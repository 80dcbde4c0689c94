(** Coordination-engine counters, exposed by the administrative interface
    and consumed by the benchmarks.  Fields are mutable and updated in
    place by the engine; treat a handle as live. *)

type t = {
  mutable submitted : int;
  mutable answered : int;  (** queries answered (group members) *)
  mutable groups_fulfilled : int;
  mutable rejected : int;  (** failed the safety check *)
  mutable registered : int;  (** parked in the pending store *)
  mutable cancelled : int;  (** withdrawn by {!Coordinator.cancel} *)
  mutable match_attempts : int;
  mutable search_steps : int;  (** matcher [solve] invocations *)
  mutable unify_attempts : int;
  mutable groundings : int;  (** database-atom row bindings explored *)
  mutable unsupplied : int;
      (** attempts dismissed before grounding: an answer constraint of the
          seed had no supplier *)
  mutable budget_exhausted : int;  (** searches cut off by [max_steps] *)
  mutable pokes : int;  (** {!Coordinator.poke} calls *)
  mutable dirty_retries : int;  (** pending queries retried by a poke *)
  mutable dirty_skipped : int;  (** pending queries a poke did not retry *)
  mutable batch_pokes : int;  (** {!Coordinator.poke_batch} calls *)
  mutable batch_poke_stmts : int;  (** statements amortised by those pokes *)
  mutable tuple_probes : int;
      (** committed tuples probed against the constraint index *)
  mutable tuple_hits : int;  (** pending queries woken by a tuple probe *)
  mutable tuple_fallbacks : int;
      (** changed tables that widened to table-level readers (deletes, DDL,
          direct mutations, delta-buffer overflow) *)
}

val create : unit -> t
val to_string : t -> string

val to_kv : t -> string
(** Poke-related counters and [unsupplied] as [coord_key=value] lines (newline-separated)
    for the [ADMIN|…|server] wire listing; see PROTOCOL.md. *)
