(** Atomic point-in-time snapshots of a catalog.

    A checkpoint captures every table (schema, version, rows) and view at
    a recorded WAL LSN, so recovery loads the newest valid snapshot and
    replays only the WAL suffix past it (see {!Database.recover}), and a
    replica bootstraps from the same byte format streamed over the wire.

    Snapshot files are written with temp + fsync + rename and validated
    end-to-end on load (header, per-line codec, footer counts): a
    truncated or corrupt snapshot never loads partially — callers fall
    back to an older snapshot or to full WAL replay.  Files live next to
    the log as [<wal>.ckpt-<lsn>].

    Views ride along opportunistically: they are not WAL-logged, so a
    recovery that falls back to full replay loses them while a snapshot
    load preserves them. *)

val to_lines : lsn:int -> Catalog.t -> string list
(** Serialise (deterministic sorted-table order).  The caller must exclude
    concurrent writers for the snapshot to be a consistent cut. *)

val of_lines : string list -> int * Catalog.t
(** Rebuild [(lsn, catalog)]; raises [Wal_error] on any framing, codec,
    count or ordering problem. *)

val list : wal_path:string -> (int * string) list
(** Existing snapshots for this WAL as [(lsn, path)], newest first. *)

val write : wal_path:string -> lsn:int -> Catalog.t -> string
(** Write atomically (temp file, flush, fsync, rename); returns the
    snapshot's path. *)

val load : string -> int * Catalog.t
(** Read one snapshot file; raises [Wal_error] when invalid. *)

val load_latest : wal_path:string -> (int * Catalog.t * string) option
(** Newest valid snapshot, skipping torn/corrupt ones; [None] when no
    valid snapshot exists. *)

val prune : wal_path:string -> keep:int -> unit
(** Delete all but the newest [keep] snapshots. *)
