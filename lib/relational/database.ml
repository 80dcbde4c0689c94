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

let create () =
  {
    catalog = Catalog.create ();
    txns = Txn.create_manager ();
    wal = None;
    recovery = None;
  }

(** [attach_wal db path] starts logging to [path] (appending).
    [durability] defaults to {!Wal.Flush_per_commit}. *)
let attach_wal ?durability db path =
  let wal = Wal.open_log ?durability path in
  Wal.attach wal db.txns;
  db.wal <- Some wal

let set_durability db d =
  match db.wal with None -> () | Some wal -> Wal.set_durability wal d

let wal_io db = Option.map Wal.io_stats db.wal

let reset_io_stats db =
  match db.wal with None -> () | Some wal -> Wal.reset_io_stats wal

(** [last_lsn db] — LSN of the last committed WAL batch (0 without a
    WAL). *)
let last_lsn db = match db.wal with None -> 0 | Some wal -> Wal.last_lsn wal

let recovery_stats db = db.recovery

(** [with_wal_batch db f] — runs [f] inside {!Wal.with_batch} when a WAL is
    attached (one sync for every commit in the scope), plain [f ()]
    otherwise. *)
let with_wal_batch db f =
  match db.wal with None -> f () | Some wal -> Wal.with_batch wal f

(* DDL is auto-committed: one batch of its own through {!Wal.append_commit},
   synced as the durability mode promises.  If the log refuses or fails
   it, [undo] reverts the catalog change, as a failed commit undoes a
   transaction's changes. *)
let log_ddl db record ~undo =
  match db.wal with
  | None -> ()
  | Some wal -> (
    match Wal.append_commit wal ~txn_id:0 [ record ] with
    | () -> ()
    | exception e ->
      undo ();
      raise e)

(** [create_table db schema] — DDL is auto-committed and logged. *)
let create_table db schema =
  let table = Catalog.create_table db.catalog schema in
  log_ddl db (Wal.Create_table schema) ~undo:(fun () ->
      Catalog.drop_table db.catalog schema.Schema.name);
  table

let drop_table db name =
  let table = Catalog.find db.catalog name in
  Catalog.drop_table db.catalog name;
  log_ddl db (Wal.Drop_table name) ~undo:(fun () ->
      Catalog.add_table db.catalog table)

let find_table db name = Catalog.find db.catalog name

(** [checkpoint db] atomically snapshots the catalog at the WAL's current
    LSN (see {!Checkpoint}), optionally truncating the WAL prefix the
    snapshot covers, and prunes old snapshots down to [keep].  The caller
    must exclude concurrent writers (the server runs this under its engine
    read lock).  Returns [(lsn, snapshot_path)].

    [truncate_wal] defaults to [false]: truncation makes the snapshot
    load-bearing — full replay of a truncated log is impossible, so a
    corrupt snapshot then has nothing to fall back to beyond older
    snapshots. *)
let checkpoint ?(truncate_wal = false) ?(keep = 2) db =
  match db.wal with
  | None ->
    Errors.fail (Errors.Wal_error "checkpoint requires an attached WAL")
  | Some wal ->
    Wal.sync wal;
    let lsn = Wal.last_lsn wal in
    let path = Checkpoint.write ~wal_path:(Wal.path wal) ~lsn db.catalog in
    if truncate_wal then Wal.truncate_prefix wal ~upto_lsn:lsn;
    Checkpoint.prune ~wal_path:(Wal.path wal) ~keep;
    (lsn, path)

(** [recover path] rebuilds a database from a WAL file and re-attaches the
    log so new commits append to it.  The torn tail (if any) is physically
    truncated first: replay would ignore it anyway, but appending after it
    would merge stale pre-crash bytes into the next committed batch.

    When a valid checkpoint exists next to the log, only the WAL suffix
    past its LSN is replayed; a torn or corrupt snapshot falls back to an
    older one, then to full replay (impossible — loud failure — only if
    the WAL prefix was truncated past every surviving snapshot).
    {!recovery_stats} records which path was taken.  The io counters are
    reset afterwards so recovery replay doesn't pollute bench/admin
    deltas. *)
let recover ?durability path =
  ignore (Wal.truncate_torn_tail path);
  let catalog, recovery =
    match Checkpoint.load_latest ~wal_path:path with
    | Some (lsn, catalog, _snapshot_path) ->
      let batches, records = Wal.replay_into catalog path ~after_lsn:lsn in
      ( catalog,
        {
          snapshot_lsn = Some lsn;
          replayed_batches = batches;
          replayed_records = records;
        } )
    | None ->
      let catalog = Catalog.create () in
      let batches, records = Wal.replay_into catalog path ~after_lsn:0 in
      ( catalog,
        {
          snapshot_lsn = None;
          replayed_batches = batches;
          replayed_records = records;
        } )
  in
  let db =
    {
      catalog;
      txns = Txn.create_manager ();
      wal = None;
      recovery = Some recovery;
    }
  in
  attach_wal ?durability db path;
  reset_io_stats db;
  db

let close db =
  match db.wal with
  | None -> ()
  | Some wal ->
    Wal.close wal;
    db.wal <- None

(** [crash db] — abandon the database as a SIGKILL would: the WAL fd is
    closed without flushing (see {!Wal.crash}), losing any buffered bytes.
    The in-memory catalog is left as-is but must not be trusted; recover
    from the log with {!recover}. *)
let crash db =
  match db.wal with
  | None -> ()
  | Some wal ->
    Wal.crash wal;
    db.wal <- None

(** [with_txn db f] — serializable transaction over the database. *)
let with_txn db f = Txn.with_txn db.txns f
