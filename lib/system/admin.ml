(** The administrative ("debugging") interface of Section 3.2: inspect the
    set of pending entangled queries, the answer relations, the engine
    counters, and — in its special mode — the state created by the matching
    algorithm (a dry-run search trace for any pending query). *)

open Relational

let hrule = String.make 64 '-'

(** Pending entangled queries and their internal representation. *)
let dump_pending (sys : System.t) =
  let pending = Core.Coordinator.pending (System.coordinator sys) in
  if Core.Pending.size pending = 0 then "no pending entangled queries"
  else
    Fmt.str "%d pending entangled quer%s:@.%a" (Core.Pending.size pending)
      (if Core.Pending.size pending = 1 then "y" else "ies")
      Core.Pending.pp pending

(** Contents of every answer relation. *)
let dump_answers (sys : System.t) =
  let answers = Core.Coordinator.answers (System.coordinator sys) in
  match Core.Answers.relation_names answers with
  | [] -> "no answer relations declared"
  | names ->
    String.concat "\n"
      (List.map
         (fun rel ->
           let table = Core.Answers.find answers rel in
           Fmt.str "%a" Table.pp table)
         names)

(** Engine counters. *)
let dump_stats (sys : System.t) =
  Core.Stats.to_string (Core.Coordinator.stats (System.coordinator sys))

(** Regular tables with row counts. *)
let dump_tables (sys : System.t) =
  let cat = System.catalog sys in
  String.concat "\n"
    (List.map
       (fun name ->
         Printf.sprintf "%-24s %6d row(s)" name
           (Table.row_count (Catalog.find cat name)))
       (Catalog.table_names cat))

(** Dry-run the matcher for pending query [id] with tracing on; reports the
    search trace and whether a match exists right now, without fulfilling
    anything.  This is the "visual inspection of the state created by the
    matching algorithms" mode of the demo. *)
let explain_match (sys : System.t) id =
  let coordinator = System.coordinator sys in
  let pending = Core.Coordinator.pending coordinator in
  match Core.Pending.get pending id with
  | None -> Printf.sprintf "no pending query with id %d" id
  | Some q ->
    let config =
      { Core.Matcher.default_config with Core.Matcher.trace = true }
    in
    let stats = Core.Stats.create () in
    let result =
      Core.Matcher.find
        ~cat:(System.catalog sys)
        ~answers:(Core.Coordinator.answers coordinator)
        ~pending ~config ~stats q
    in
    let header = Fmt.str "%a" Core.Equery.pp q in
    (match result with
    | None ->
      Printf.sprintf "%s\n%s\nno match currently possible (%d search steps)"
        header hrule stats.Core.Stats.search_steps
    | Some success ->
      Printf.sprintf "%s\n%s\nmatch FOUND (group {%s}); trace:\n  %s" header
        hrule
        (String.concat ", "
           (List.map
              (fun (g : Core.Equery.t) -> string_of_int g.Core.Equery.id)
              success.Core.Matcher.group))
        (String.concat "\n  " success.Core.Matcher.trace))

(** Workload matchability report: pending constraints that no pending head
    can ever satisfy. *)
let dump_unmatchable (sys : System.t) =
  let pending = Core.Coordinator.pending (System.coordinator sys) in
  match (Core.Safety.analyse (Core.Pending.to_list pending)).unsupplied with
  | [] -> "every pending constraint has a potential supplier"
  | problems ->
    String.concat "\n"
      (List.map
         (fun ((q : Core.Equery.t), atom) ->
           Fmt.str
             "Q%d (%s): constraint %a cannot unify with any pending head"
             q.Core.Equery.id q.Core.Equery.owner Core.Atom.pp atom)
         problems)

(** One-shot full report. *)
let report (sys : System.t) =
  String.concat ("\n" ^ hrule ^ "\n")
    [
      "TABLES\n" ^ dump_tables sys;
      "ANSWER RELATIONS\n" ^ dump_answers sys;
      "PENDING QUERIES\n" ^ dump_pending sys;
      "MATCHABILITY\n" ^ dump_unmatchable sys;
      "STATISTICS\n" ^ dump_stats sys;
    ]
