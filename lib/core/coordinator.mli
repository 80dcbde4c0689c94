(** The coordination component (Figure 2 of the paper).

    Runs whenever an entangled query arrives: the query is safety-checked,
    renamed apart, and the matcher is invoked with it as the seed.  On a
    match the whole group is {b fulfilled jointly and atomically}: one
    transaction inserts the chosen answer tuples into the answer relations
    and runs every group member's side effects; then the group leaves the
    pending store and every participant is notified.  Without a match the
    query parks in the pending store — it is not rejected.

    Fulfilment can {b cascade}: committed answer tuples may satisfy the
    constraints of queries that are still pending, so after every fulfilment
    the coordinator retries the pending queries whose constraints could
    unify with a fresh tuple, until a fixpoint.  {!poke} retries the
    pending queries a database change could unblock — call it after
    ordinary database updates (new flights, freed seats). *)

open Relational

(** Which pending queries a {!poke} retries.  [Tuples] is the production
    policy; [Tables] and [All] are reference semantics that the property
    tests and benches compare it against.  Every policy produces the same
    coordination trace (properties I6, I8 and I10). *)
type retry =
  | Tuples
      (** probe the committed row images against the pending store's
          constraint index and retry only the hit set; changes the probe
          cannot account for widen to the table's reader set *)
  | Tables  (** retry every reader of every changed table *)
  | All  (** retry every pending query to a fixpoint: the reference *)

type config = { matcher : Matcher.config; retry : retry }

val default_config : config
(** Default matcher budget, [retry = Tuples]. *)

type t

type outcome =
  | Rejected of string  (** failed the safety check *)
  | Answered of Events.notification  (** matched and fulfilled immediately *)
  | Registered of int  (** parked in the pending store under this id *)
  | Multi of outcome list  (** CHOOSE k > 1: one outcome per instance *)

val create : ?config:config -> Database.t -> t

val declare_answer_relation : t -> Schema.t -> unit

val adopt_answer_relation : t -> string -> unit
(** Register an existing (e.g. WAL-recovered) table as an answer relation. *)

val answers : t -> Answers.t
val pending : t -> Pending.t
val stats : t -> Stats.t

val subscribe : t -> (Events.notification -> unit) -> unit

val submit : t -> Equery.t -> outcome
(** The arrival path.  CHOOSE k submits k independent instances (each with
    CHOOSE 1 semantics) and reports their outcomes. *)

val cancel : t -> int -> bool
(** [cancel t id] withdraws a pending query; [false] if [id] is not
    pending. *)

val poke : t -> Events.notification list
(** Call after database updates that may unblock coordinations; returns the
    notifications produced, after cascading to a fixpoint.  Under [Tuples]
    (the default) the committed row images recorded since the last poke are
    probed against the pending store's constraint index and only the hit
    set is retried — changes the probe cannot account for (deletes, DDL,
    direct [Table] mutations, a version advance the redo log doesn't
    explain) widen that table to its full reader set.  Under [Tables] every
    changed table widens.  Changed tables come from the catalog's
    changed-table list ({!Relational.Catalog.drain_changed}), which also
    names tables changed by direct [Table] mutations, rollbacks and DDL;
    only the first poke walks the whole catalog.  Under [All] every
    pending query is retried, counting the whole store in
    [Stats.dirty_retries] on each pass. *)

val poke_batch : ?statements:int -> t -> Events.notification list
(** One poke covering a whole write batch: semantically identical to
    {!poke} (the changes accumulated across the batch are drained to the
    same fixpoint), but counted as a single batch-level poke amortising
    [statements] DML statements in {!Stats} ([batch_pokes] /
    [batch_poke_stmts]).  The server's batch executor calls this once
    per batch instead of poking per statement. *)
