(** Transactions.

    Concurrency control is coarse: a manager-wide mutex is held from
    {!begin_} to {!commit}/{!rollback}, so transactions execute serially —
    the strongest isolation level, which is what Youtopia's joint fulfilment
    of a match group requires.  Atomicity comes from an undo log replayed on
    rollback; durability (optional) from a redo-only WAL written at commit
    (see {!Wal.attach}). *)

type op =
  | Ins of Table.t * int * Tuple.t
  | Del of Table.t * Tuple.t
  | Upd of Table.t * int * Tuple.t * Tuple.t  (** row id, old, new *)

type manager
type t

val create_manager : unit -> manager

val set_on_commit : manager -> (op list -> unit) option -> unit
(** Durability hook; receives the redo log in execution order and returns
    once the commit is as durable as the WAL mode promises (inside a
    {!Wal.with_batch} scope, once it is written; the scope end syncs).  It
    runs with the manager mutex held; if it raises, {!commit} undoes the
    transaction's changes, releases the mutex and re-raises.  Wired by
    {!Wal.attach}. *)

val add_observer : manager -> (op list -> unit) -> unit
(** Register a commit observer: called with every committed transaction's
    redo log (execution order), after the durability hook.  The
    coordinator's dirty-table tracker uses this.  Observers must not start
    transactions — the manager mutex is still held. *)

val begin_ : manager -> t
(** Blocks until the manager lock is available. *)

val insert : t -> Table.t -> Value.t array -> int
val delete : t -> Table.t -> int -> Tuple.t
val update : t -> Table.t -> int -> Value.t array -> Tuple.t

val commit : t -> unit
val rollback : t -> unit
(** Undoes every operation of the transaction, newest first. *)

val with_txn : manager -> (t -> 'a) -> 'a
(** Run and commit; any exception rolls back and re-raises. *)
