(** The coordination component (Figure 2 of the paper).

    Runs whenever an entangled query arrives: the query is safety-checked,
    renamed apart, and the matcher is invoked with it as the seed.  On a
    match the whole group is *fulfilled jointly and atomically*: one
    transaction inserts the chosen answer tuples into the answer relations
    and runs every group member's side effects; then the group leaves the
    pending store and every participant is notified.  Without a match the
    query parks in the pending store — it is not rejected.

    Fulfilment can cascade: committed answer tuples may satisfy the
    constraints of queries that are still pending (e.g. a third friend whose
    query asks for "whatever flight the group picked"), so after every
    fulfilment the coordinator retries the pending queries whose constraints
    mention a touched answer relation, until a fixpoint.  [poke] retries
    the pending queries a database change could unblock — call it after
    ordinary database updates (new flights, freed seats). *)

open Relational

(** Log source for coordination events; silent unless the host application
    enables a [Logs] reporter at debug level. *)
let log_src = Logs.Src.create "youtopia.coordinator" ~doc:"Youtopia coordination component"

module Log = (val Logs.src_log log_src : Logs.LOG)

type retry = Tuples | Tables | All

type config = {
  matcher : Matcher.config;
  retry : retry;  (** which pending queries a poke retries; see the .mli *)
}

let default_config = { matcher = Matcher.default_config; retry = Tuples }

(* Per-table record of committed rows since the last poke, fed by the
   commit observer under [Tuples].  [ops] counts redo-log entries so
   the poke can check the table's version advanced by exactly that much —
   any other advance means a mutation bypassed the observer and the table
   must widen to its full reader set.  Updates buffer both images: a row
   {i leaving} an access's output can change a plan result (anti-joins,
   aggregates) just as one entering can.  Deletes don't buffer — they set
   [widen] (see DESIGN.md §12). *)
type delta = {
  mutable d_ops : int;  (** redo-log entries seen for this table *)
  mutable d_rows : Tuple.t list;  (** row images to probe, newest first *)
  mutable d_n_rows : int;
  mutable d_widen : bool;  (** fall back to table-level readers *)
}

(* Past this many buffered images a table's delta costs more to probe than
   the reader-set scan it replaces; widen instead. *)
let max_delta_rows = 512

type t = {
  db : Database.t;
  answers : Answers.t;
  pending : Pending.t;
  config : config;
  stats : Stats.t;
  versions : (string, int * int) Hashtbl.t;
      (** last-poke [(uid, version)] snapshot per table *)
  deltas : (string, delta) Hashtbl.t;
      (** committed row images since the last poke, [Tuples] only *)
  uid : int;  (** names this coordinator to {!Catalog.drain_changed} *)
  mutable next_id : int;
  mutable listeners : (Events.notification -> unit) list;
  mu : Mutex.t;
}

type outcome =
  | Rejected of string  (** failed the safety check *)
  | Answered of Events.notification  (** matched and fulfilled immediately *)
  | Registered of int  (** parked in the pending store under this id *)
  | Multi of outcome list  (** CHOOSE k > 1: one outcome per instance *)

let next_uid = Atomic.make 0

let create ?(config = default_config) db =
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      db;
      answers = Answers.create db;
      pending = Pending.create ();
      config;
      stats = Stats.create ();
      versions = Hashtbl.create 32;
      deltas = Hashtbl.create 32;
      next_id = 1;
      listeners = [];
      mu = Mutex.create ();
    }
  in
  (* Under [Tuples] every committed transaction records its row images, so
     the next poke can probe them against the pending store's constraint
     index instead of waking every reader.  Direct (non-transactional)
     [Table] mutations leave no delta; the poke's version check widens
     their tables — see [poke_delta].  Without the observer
     ([Tables]) no delta is ever recorded and every changed table widens. *)
  if config.retry = Tuples then
    Txn.add_observer db.Database.txns (fun ops ->
        List.iter
          (fun op ->
            let table =
              match op with
              | Txn.Ins (tbl, _, _) | Txn.Del (tbl, _) | Txn.Upd (tbl, _, _, _)
                -> tbl
            in
            let name = String.lowercase_ascii (Table.name table) in
            let d =
              match Hashtbl.find_opt t.deltas name with
              | Some d -> d
              | None ->
                let d =
                  { d_ops = 0; d_rows = []; d_n_rows = 0; d_widen = false }
                in
                Hashtbl.add t.deltas name d;
                d
            in
            d.d_ops <- d.d_ops + 1;
            let push row =
              if not d.d_widen then
                if d.d_n_rows >= max_delta_rows then begin
                  d.d_widen <- true;
                  d.d_rows <- []
                end
                else begin
                  d.d_rows <- row :: d.d_rows;
                  d.d_n_rows <- d.d_n_rows + 1
                end
            in
            match op with
            | Txn.Ins (_, _, row) -> push row
            | Txn.Upd (_, _, old_row, new_row) ->
              push old_row;
              push new_row
            | Txn.Del (_, _) ->
              (* a deleted row can unblock queries whose plans *exclude* it
                 (anti-joins, NOT IN); the constraint index only says which
                 rows a plan selects, so be conservative *)
              d.d_widen <- true;
              d.d_rows <- [])
          ops);
  t

let declare_answer_relation t schema = ignore (Answers.declare t.answers schema)

(** [adopt_answer_relation t name] — register an existing (e.g. recovered)
    table as an answer relation. *)
let adopt_answer_relation t name = ignore (Answers.adopt t.answers name)

let answers t = t.answers
let pending t = t.pending
let stats t = t.stats

let subscribe t listener = t.listeners <- listener :: t.listeners

let notify t notification =
  List.iter (fun listener -> listener notification) t.listeners

(* ------------------------------------------------------------------ *)
(* Side effects, executed under the fulfilment transaction. *)

let ground_term subst t =
  match Subst.walk subst t with
  | Term.Const v -> v
  | Term.Var x ->
    Errors.internalf "side effect references unbound variable %s"
      (Equery.display_var x)

let run_side_effect t txn subst = function
  | Equery.Sf_insert (table_name, terms) ->
    let table = Database.find_table t.db table_name in
    let row = Array.map (ground_term subst) terms in
    ignore (Txn.insert txn table row)
  | Equery.Sf_decrement { table; column; where_eq } ->
    let table = Database.find_table t.db table in
    let schema = Table.schema table in
    let col = Schema.column_index schema column in
    let pred =
      Expr.conjoin
        (List.map
           (fun (c, term) ->
             Expr.Binop
               ( Expr.Eq,
                 Expr.Col (Schema.column_index schema c),
                 Expr.Const (ground_term subst term) ))
           where_eq)
    in
    let assignment =
      [ col, Expr.Binop (Expr.Sub, Expr.Col col, Expr.Const (Value.Int 1)) ]
    in
    ignore (Mutation.update_where txn table assignment (Some pred))
  | Equery.Sf_update { table; set; where_eq } ->
    let table = Database.find_table t.db table in
    let schema = Table.schema table in
    let assignments =
      List.map
        (fun (col, texpr) ->
          let value =
            match Subst.eval_texpr subst texpr with
            | Some v -> v
            | None ->
              Errors.internalf "side-effect SET %s references unbound variable"
                col
          in
          Schema.column_index schema col, Expr.Const value)
        set
    in
    let pred =
      Expr.conjoin
        (List.map
           (fun (col, term) ->
             Expr.Binop
               ( Expr.Eq,
                 Expr.Col (Schema.column_index schema col),
                 Expr.Const (ground_term subst term) ))
           where_eq)
    in
    ignore (Mutation.update_where txn table assignments (Some pred))

(* ------------------------------------------------------------------ *)
(* Fulfilment. *)

let fulfil t (success : Matcher.success) : Events.notification list =
  Log.debug (fun m ->
      m "fulfilling group {%s} with %d new tuple(s)"
        (String.concat ", "
           (List.map
              (fun (q : Equery.t) -> string_of_int q.Equery.id)
              success.Matcher.group))
        (List.length success.Matcher.new_tuples));
  Database.with_txn t.db (fun txn ->
      List.iter
        (fun (rel, row) -> ignore (Answers.insert txn t.answers rel row))
        success.Matcher.new_tuples;
      List.iter
        (fun (q : Equery.t) ->
          List.iter
            (run_side_effect t txn success.Matcher.subst)
            q.Equery.side_effects)
        success.Matcher.group);
  let group_ids =
    List.map (fun (q : Equery.t) -> q.Equery.id) success.Matcher.group
  in
  List.iter
    (fun (q : Equery.t) -> Pending.remove t.pending q.Equery.id)
    success.Matcher.group;
  t.stats.Stats.groups_fulfilled <- t.stats.Stats.groups_fulfilled + 1;
  t.stats.Stats.answered <-
    t.stats.Stats.answered + List.length success.Matcher.group;
  let notifications =
    List.map
      (fun ((q : Equery.t), tuples) ->
        {
          Events.query_id = q.Equery.id;
          owner = q.Equery.owner;
          label = q.Equery.label;
          answers = tuples;
          group = group_ids;
        })
      success.Matcher.contributions
  in
  List.iter (notify t) notifications;
  notifications

let try_match t (q : Equery.t) =
  Matcher.find ~cat:t.db.Database.catalog ~answers:t.answers ~pending:t.pending
    ~config:t.config.matcher ~stats:t.stats q

(* Retry pending queries that a newly committed answer tuple could actually
   help: the tuple must satisfy the constant positions of one of the
   query's answer constraints (a relation-name match alone would retry
   every bystander on a loaded system).  The constraint index holds every
   answer constraint as an access of its relation, so [Pending.probe] on
   the tuple finds them.  Cascade until fixpoint.  [acc] and the result
   are in reverse order — appending per fulfilment would be quadratic in
   the notification count; callers [List.rev] once at the end. *)
let rec cascade_rev t tuples acc =
  let interested =
    List.concat_map
      (fun (rel, row) -> Pending.probe t.pending ~table:rel row)
      tuples
    |> List.sort_uniq Int.compare
    |> List.filter_map (Pending.get t.pending)
  in
  let rec try_each acc = function
    | [] -> acc
    | q :: rest -> (
      (* the query may have been fulfilled by an earlier iteration *)
      if not (Pending.mem t.pending q.Equery.id) then try_each acc rest
      else
        match try_match t q with
        | None -> try_each acc rest
        | Some success ->
          let notifications = fulfil t success in
          try_each
            (cascade_rev t success.Matcher.new_tuples
               (List.rev_append notifications acc))
            rest)
  in
  try_each acc interested

(* ------------------------------------------------------------------ *)
(* Submission. *)

let submit_instance t (q : Equery.t) : outcome =
  let q = Equery.freshen ~id:t.next_id q in
  t.next_id <- t.next_id + 1;
  match try_match t q with
  | Some success ->
    let notifications = fulfil t success in
    ignore (cascade_rev t success.Matcher.new_tuples []);
    let own =
      List.find
        (fun n -> n.Events.query_id = q.Equery.id)
        notifications
    in
    Answered own
  | None ->
    Log.debug (fun m -> m "Q%d (%s) parked in the pending store" q.Equery.id q.Equery.owner);
    Pending.add t.pending q;
    t.stats.Stats.registered <- t.stats.Stats.registered + 1;
    Registered q.Equery.id

(** [submit t q] — the arrival path.  CHOOSE k submits k independent
    instances (each with CHOOSE 1 semantics) and reports their outcomes. *)
let submit t (q : Equery.t) : outcome =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      t.stats.Stats.submitted <- t.stats.Stats.submitted + 1;
      match Safety.check t.answers q with
      | Safety.Unsafe reason ->
        t.stats.Stats.rejected <- t.stats.Stats.rejected + 1;
        Rejected reason
      | Safety.Safe ->
        if q.Equery.choose = 1 then submit_instance t q
        else
          Multi
            (List.init q.Equery.choose (fun _ ->
                 submit_instance t { q with Equery.choose = 1 })))

(** [cancel t id] withdraws a pending query (e.g. the user gave up). *)
let cancel t id =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if Pending.mem t.pending id then begin
        Pending.remove t.pending id;
        t.stats.Stats.cancelled <- t.stats.Stats.cancelled + 1;
        true
      end
      else false)

(* ------------------------------------------------------------------ *)
(* Poke. *)

(* The reference ([All]): retry every pending query until a full
   pass fulfils nothing.  Every pass counts the whole store as retried. *)
let poke_all t =
  let rec fixpoint acc =
    t.stats.Stats.dirty_retries <-
      t.stats.Stats.dirty_retries + Pending.size t.pending;
    let progressed = ref false in
    let acc =
      List.fold_left
        (fun acc (q : Equery.t) ->
          if not (Pending.mem t.pending q.Equery.id) then acc
          else
            match try_match t q with
            | None -> acc
            | Some success ->
              progressed := true;
              List.rev_append (fulfil t success) acc)
        acc (Pending.to_list t.pending)
    in
    if !progressed then fixpoint acc else acc
  in
  List.rev (fixpoint [])

(* Compare one table name's live [(uid, version)] with the snapshot and
   report it when it changed, with how far its version advanced: [Some d]
   when the uid is unchanged and a previous snapshot existed, [None]
   otherwise (first sighting, drop + recreate, or outright drop — all of
   which must widen).  Idempotent, so a name listed twice costs nothing
   more.  Dropped tables are reported so readers of a vanished table get
   their (failing) retry, as under [All]. *)
let check_table t changed name =
  match Catalog.find_opt t.db.Database.catalog name with
  | Some table -> (
    let uid = Table.uid table and version = Table.version table in
    match Hashtbl.find_opt t.versions name with
    | Some (puid, pver) when puid = uid && pver = version -> changed
    | prev ->
      Hashtbl.replace t.versions name (uid, version);
      let advance =
        match prev with
        | Some (puid, pver) when puid = uid -> Some (version - pver)
        | _ -> None
      in
      (name, advance) :: changed)
  | None ->
    if Hashtbl.mem t.versions name then begin
      Hashtbl.remove t.versions name;
      (name, None) :: changed
    end
    else changed

(* The tables that changed since the last call.  The catalog's
   changed-table list names them (direct [Table] mutations and DDL
   included); only when that list is not ours to trust — the first poke,
   or another consumer drained it, or it overflowed — does this walk the
   whole catalog and the snapshot. *)
let refresh_changed t =
  let cat = t.db.Database.catalog in
  let name table = String.lowercase_ascii (Table.name table) in
  match Catalog.drain_changed cat ~by:t.uid with
  | Some tables ->
    List.fold_left (fun changed table -> check_table t changed (name table))
      [] tables
  | None ->
    let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.versions [] in
    let names = ref names in
    Catalog.iter (fun table -> names := name table :: !names) cat;
    List.fold_left (check_table t) [] (List.sort_uniq String.compare !names)

(* The targeted poke ([Tuples] and [Tables]): probe the committed row
   images against the pending store's constraint index and retry only the
   hit set.  A changed table is probeable when its buffered delta accounts
   for the *whole* version advance ([d_ops] redo entries, one version bump
   each) — otherwise some mutation bypassed the observer (direct [Table]
   calls, DDL) and the table widens to its full reader set.  Under [Tables]
   no delta is recorded, so every changed table widens.  The no-table ("")
   bucket is always retried (see [Pending.reader_ids]): those queries wait
   only on partners.  The first poke sees an empty snapshot, so every table
   widens and every pending query is retried.  Fulfilments cascade and
   change the tables their side effects touch, so the loop runs until no
   table changed; a pass that fulfils nothing leaves the snapshot
   current. *)
let poke_delta t =
  let rec loop acc =
    let changed = refresh_changed t in
    if changed = [] then acc
    else begin
      let probed_ids = ref [] and n_rows = ref 0 and widened = ref [] in
      List.iter
        (fun (name, advance) ->
          let delta = Hashtbl.find_opt t.deltas name in
          Hashtbl.remove t.deltas name;
          match delta, advance with
          | Some d, Some adv when (not d.d_widen) && d.d_ops = adv ->
            List.iter
              (fun row ->
                incr n_rows;
                probed_ids :=
                  List.rev_append
                    (Pending.probe t.pending ~table:name row)
                    !probed_ids)
              d.d_rows
          | _ -> widened := name :: !widened)
        changed;
      (* deltas for tables the catalog diff did not surface are stale
         (e.g. the table was dropped and is handled via [widened]) —
         [changed] consumed every live one above, so clear the rest *)
      Hashtbl.reset t.deltas;
      let hits = List.sort_uniq compare !probed_ids in
      let ids =
        List.sort_uniq compare
          (List.rev_append hits (Pending.reader_ids t.pending !widened))
      in
      let targets = List.filter_map (Pending.get t.pending) ids in
      let n_targets = List.length targets in
      t.stats.Stats.tuple_probes <- t.stats.Stats.tuple_probes + !n_rows;
      t.stats.Stats.tuple_hits <- t.stats.Stats.tuple_hits + List.length hits;
      t.stats.Stats.tuple_fallbacks <-
        t.stats.Stats.tuple_fallbacks + List.length !widened;
      t.stats.Stats.dirty_retries <- t.stats.Stats.dirty_retries + n_targets;
      t.stats.Stats.dirty_skipped <-
        t.stats.Stats.dirty_skipped + (Pending.size t.pending - n_targets);
      let acc =
        List.fold_left
          (fun acc (q : Equery.t) ->
            if not (Pending.mem t.pending q.Equery.id) then acc
            else
              match try_match t q with
              | None -> acc
              | Some success ->
                let notifications = fulfil t success in
                cascade_rev t success.Matcher.new_tuples
                  (List.rev_append notifications acc))
          acc targets
      in
      loop acc
    end
  in
  List.rev (loop [])

let poke_locked t =
  match t.config.retry with All -> poke_all t | Tuples | Tables -> poke_delta t

(** [poke t] — call after database updates that may unblock coordinations;
    returns the notifications produced.  Which pending queries are retried
    depends on [config.retry]; every policy yields the same trace. *)
let poke t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      t.stats.Stats.pokes <- t.stats.Stats.pokes + 1;
      poke_locked t)

(** [poke_batch ~statements t] — one poke covering a whole write batch.
    The version snapshot (and, under [Tuples], the buffered row images)
    already covers every change the batch's transactions made, and a poke
    drains them to a fixpoint, so this is semantically identical to
    poking after every statement — batching changes the {i count}, not the
    outcome (the equivalence property I7 checks this).  [statements] is
    how many DML statements this single poke amortises, recorded in
    {!Stats} so the amortisation is observable. *)
let poke_batch ?(statements = 1) t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      t.stats.Stats.pokes <- t.stats.Stats.pokes + 1;
      t.stats.Stats.batch_pokes <- t.stats.Stats.batch_pokes + 1;
      t.stats.Stats.batch_poke_stmts <-
        t.stats.Stats.batch_poke_stmts + statements;
      poke_locked t)
