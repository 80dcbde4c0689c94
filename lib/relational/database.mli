(** A database handle: catalog + transaction manager + optional WAL.

    This is the "regular DBMS" substrate that Youtopia's execution engine
    runs on.  When a WAL is attached, every committed transaction and every
    DDL operation is logged; {!recover} rebuilds an equivalent database from
    the log alone. *)

type recovery_stats = {
  snapshot_lsn : int option;
      (** LSN of the checkpoint recovery started from, if any *)
  replayed_batches : int;  (** WAL batches applied on top *)
  replayed_records : int;  (** redo records inside those batches *)
}

type t = {
  catalog : Catalog.t;
  txns : Txn.manager;
  mutable wal : Wal.t option;
  mutable recovery : recovery_stats option;
      (** how the last {!recover} rebuilt this database; [None] for a
          database born with {!create} *)
}

val create : unit -> t

val attach_wal : ?durability:Wal.durability -> t -> string -> unit
(** Start logging to the given path (appending).  [durability] defaults to
    {!Wal.Flush_per_commit} (flush only — no crash durability; see
    {!Wal.durability}). *)

val set_durability : t -> Wal.durability -> unit
(** No-op without an attached WAL. *)

val wal_io : t -> Wal.io_stats option

val reset_io_stats : t -> unit
(** Zero the WAL io counters (no-op without a WAL); {!recover} does this
    so recovery replay doesn't pollute bench/admin deltas. *)

val last_lsn : t -> int
(** LSN of the last committed WAL batch; 0 without a WAL. *)

val recovery_stats : t -> recovery_stats option
(** How the last {!recover} rebuilt this database; [None] for a database
    born with {!create}. *)

val with_wal_batch : t -> (unit -> 'a) -> 'a
(** Run inside {!Wal.with_batch} when a WAL is attached: every commit in
    the scope shares one flush (+ one fsync in the fsync mode).  Plain
    call otherwise. *)

val create_table : t -> Schema.t -> Table.t
(** DDL is auto-committed: the change is logged as one batch of its own
    (see {!Wal.append_commit}), synced as the durability mode promises.
    If the log refuses or fails the append (e.g. a poisoned log), the
    catalog change is undone and the error re-raised. *)

val drop_table : t -> string -> unit
(** Auto-committed and logged like {!create_table}. *)

val find_table : t -> string -> Table.t

val checkpoint : ?truncate_wal:bool -> ?keep:int -> t -> int * string
(** Atomically snapshot the catalog at the WAL's current LSN (see
    {!Checkpoint}); returns [(lsn, snapshot_path)].  The caller must
    exclude concurrent writers.  [truncate_wal] (default [false]) also
    cuts the WAL prefix the snapshot covers — making the snapshot
    load-bearing, since full replay of a truncated log is impossible.
    Prunes old snapshots down to [keep] (default 2).  Raises [Wal_error]
    without an attached WAL. *)

val recover : ?durability:Wal.durability -> string -> t
(** Rebuild a database from a WAL file (complete batches only), physically
    truncating any torn tail, and re-attach the log so new commits append
    to it.  Loads the newest valid checkpoint first and replays only the
    WAL suffix past its LSN; a torn/corrupt snapshot falls back to older
    snapshots, then to full replay.  See {!recovery_stats}. *)

val close : t -> unit

val crash : t -> unit
(** Abandon the database as a SIGKILL would: the WAL fd is closed without
    flushing (buffered bytes are lost).  For fault-injection tests; recover
    from the log with {!recover}. *)

val with_txn : t -> (Txn.t -> 'a) -> 'a
(** Serializable transaction over the database. *)
