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

val set_on_commit : manager -> (op list -> int * (unit -> unit)) option -> unit
(** Durability hook; receives the redo log in execution order and returns
    the commit's WAL LSN plus a wait closure that {!commit} invokes
    {i after} releasing the manager mutex, so a group-commit flush can
    coalesce concurrent transactions.  Wired by {!Wal.attach}. *)

val add_observer : manager -> (op list -> unit) -> unit
(** Register a commit observer: called with every committed transaction's
    redo log (execution order), after the durability hook.  The
    coordinator's dirty-table tracker uses this.  Observers must not start
    transactions — the manager mutex is still held. *)

val add_lsn_observer : manager -> (lsn:int -> op list -> unit) -> unit
(** Like {!add_observer}, but the observer is also told the WAL LSN the
    commit was assigned (0 without an attached WAL); runs after the plain
    observers, same restrictions. *)

val begin_ : manager -> t
(** Blocks until the manager lock is available. *)

val id : t -> int

val insert : t -> Table.t -> Value.t array -> int
val delete : t -> Table.t -> int -> Tuple.t
val update : t -> Table.t -> int -> Value.t array -> Tuple.t

(** {1 Savepoints} *)

type savepoint

val savepoint : t -> savepoint
(** Mark the current position in the undo log. *)

val rollback_to : t -> savepoint -> unit
(** Undo every operation performed after the mark, newest first; the
    transaction stays active.  Raises [Txn_error] for a savepoint from
    another transaction or one invalidated by an earlier partial
    rollback. *)

val commit : t -> unit
val rollback : t -> unit
(** Undoes every operation of the transaction, newest first. *)

val with_txn : manager -> (t -> 'a) -> 'a
(** Run and commit; any exception rolls back and re-raises. *)
