(** Coordination-engine counters, exposed by the administrative interface
    and consumed by the benchmarks. *)

type t = {
  mutable submitted : int;
  mutable answered : int;  (** queries answered (group members) *)
  mutable groups_fulfilled : int;
  mutable rejected : int;  (** failed the safety check *)
  mutable registered : int;  (** parked in the pending store *)
  mutable cancelled : int;
  mutable match_attempts : int;
  mutable search_steps : int;  (** solve() invocations *)
  mutable unify_attempts : int;
  mutable groundings : int;  (** database-atom row bindings explored *)
  mutable unsupplied : int;
      (** attempts dismissed before grounding: an answer constraint of the
          seed had no supplier *)
  mutable budget_exhausted : int;  (** searches cut off by max_steps *)
  mutable pokes : int;  (** poke calls *)
  mutable dirty_retries : int;  (** pending queries retried by a poke *)
  mutable dirty_skipped : int;  (** pending queries a poke did not retry *)
  mutable batch_pokes : int;  (** batch-level pokes (one per write batch) *)
  mutable batch_poke_stmts : int;  (** statements covered by those pokes *)
  mutable tuple_probes : int;  (** committed tuples probed by poke_delta *)
  mutable tuple_hits : int;  (** pending queries woken by a tuple probe *)
  mutable tuple_fallbacks : int;
      (** changed tables widened to table-level readers (deletes, DDL,
          direct mutations, delta-buffer overflow) *)
}

let create () =
  {
    submitted = 0;
    answered = 0;
    groups_fulfilled = 0;
    rejected = 0;
    registered = 0;
    cancelled = 0;
    match_attempts = 0;
    search_steps = 0;
    unify_attempts = 0;
    groundings = 0;
    unsupplied = 0;
    budget_exhausted = 0;
    pokes = 0;
    dirty_retries = 0;
    dirty_skipped = 0;
    batch_pokes = 0;
    batch_poke_stmts = 0;
    tuple_probes = 0;
    tuple_hits = 0;
    tuple_fallbacks = 0;
  }

let pp ppf s =
  Fmt.pf ppf
    "@[<v>submitted: %d@,answered: %d@,groups fulfilled: %d@,rejected: \
     %d@,registered pending: %d@,cancelled: %d@,match attempts: %d@,search \
     steps: %d@,unify attempts: %d@,groundings: %d@,unsupplied: \
     %d@,budget exhausted: %d@,pokes: %d@,dirty retries: %d@,dirty \
     skipped: %d@,batch pokes: %d@,batch poke stmts: %d@,tuple probes: \
     %d@,tuple hits: %d@,tuple fallbacks: %d@]"
    s.submitted s.answered s.groups_fulfilled s.rejected s.registered
    s.cancelled s.match_attempts s.search_steps s.unify_attempts s.groundings
    s.unsupplied s.budget_exhausted s.pokes s.dirty_retries s.dirty_skipped
    s.batch_pokes s.batch_poke_stmts s.tuple_probes s.tuple_hits
    s.tuple_fallbacks

let to_string s = Fmt.str "%a" pp s

(** Machine-readable [key=value] lines for the wire listing
    ([ADMIN|…|server]); keys are prefixed [coord_] to keep them disjoint
    from the server's own counters. *)
let to_kv s =
  String.concat "\n"
    (List.map
       (fun (k, v) -> Printf.sprintf "coord_%s=%d" k v)
       [
         "pokes", s.pokes;
         "dirty_retries", s.dirty_retries;
         "dirty_skipped", s.dirty_skipped;
         "tuple_probes", s.tuple_probes;
         "tuple_hits", s.tuple_hits;
         "tuple_fallbacks", s.tuple_fallbacks;
         "unsupplied", s.unsupplied;
       ])
