(* Durability modes and group commit: what each mode actually does at
   commit time (io_stats), that concurrent transactions each get their
   own fsync without losing any, that DDL syncs like any other commit,
   and that the batch scope — the log's group commit — amortises
   flushes. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let schema () =
  Schema.make ~primary_key:[ 0 ] "Accounts"
    [
      Schema.column "id" Ctype.TInt;
      Schema.column "owner" Ctype.TText;
      Schema.column "balance" Ctype.TInt;
    ]

let with_tmp f =
  let path = Filename.temp_file "youtopia_group" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let insert_record i =
  Wal.Insert
    ( "Accounts",
      [| Value.Int i; Value.Str (Printf.sprintf "owner%d" i); Value.Int (i * 100) |]
    )

let rows_after_replay path =
  let cat = Wal.replay path in
  Table.row_count (Catalog.find cat "Accounts")

(** [Fsync_per_commit]: one fsync per commit — full durability, paid per
    transaction. *)
let test_fsync_per_commit () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Fsync_per_commit path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      for i = 1 to 5 do
        Wal.append_commit log ~txn_id:i [ insert_record i ]
      done;
      let io = Wal.io_stats log in
      check int "commits logged" 6 io.Wal.commits_logged;
      check int "one fsync per commit" 6 io.Wal.fsyncs;
      Wal.close log;
      check int "all rows replayed" 5 (rows_after_replay path))

(** [Flush_per_commit] — the historical default — never fsyncs: bytes reach
    the kernel page cache only, so it gives {b no} durability against an OS
    crash or power loss.  This test pins that documented weakness. *)
let test_flush_per_commit_no_fsync () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Flush_per_commit path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      for i = 1 to 5 do
        Wal.append_commit log ~txn_id:i [ insert_record i ]
      done;
      let io = Wal.io_stats log in
      check int "commits logged" 6 io.Wal.commits_logged;
      check bool "flushes at least per commit" true (io.Wal.flushes >= 6);
      check int "ZERO fsyncs: no crash durability" 0 io.Wal.fsyncs;
      Wal.close log)

(** [Never]: commits don't even flush; bytes sit in the channel buffer
    until close (or an incidental flush). *)
let test_never_buffers () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Never path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      for i = 1 to 5 do
        Wal.append_commit log ~txn_id:i [ insert_record i ]
      done;
      let io = Wal.io_stats log in
      check int "no flush at commit" 0 io.Wal.flushes;
      check int "no fsync at commit" 0 io.Wal.fsyncs;
      Wal.close log;
      (* close flushes whatever was buffered *)
      check int "everything still replayable after close" 5
        (rows_after_replay path))

(** Concurrency on the one commit path: 8 threads × 25 serializable
    transactions against one database under [Fsync_per_commit].  Every
    commit must be logged, fsynced on its own and survive replay. *)
let test_concurrent_fsync_per_commit () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal ~durability:Wal.Fsync_per_commit db path;
      let table = Database.create_table db (schema ()) in
      let before = Option.get (Database.wal_io db) in
      let threads = 8 and per_thread = 25 in
      let worker t =
        for i = 0 to per_thread - 1 do
          let id = (t * 1000) + i in
          Database.with_txn db (fun txn ->
              ignore
                (Txn.insert txn table
                   [| Value.Int id; Value.Str "w"; Value.Int id |]))
        done
      in
      let ts = List.init threads (fun t -> Thread.create worker t) in
      List.iter Thread.join ts;
      let io = Option.get (Database.wal_io db) in
      let commits = threads * per_thread in
      check int "every transaction logged" commits
        (io.Wal.commits_logged - before.Wal.commits_logged);
      check int "one fsync per commit" commits
        (io.Wal.fsyncs - before.Wal.fsyncs);
      Database.close db;
      check int "no committed row lost" commits (rows_after_replay path))

(** DDL takes the commit path: under [Fsync_per_commit] an acked
    CREATE/DROP TABLE is one logged commit and one fsync, not bytes
    waiting for some later commit's barrier. *)
let test_ddl_follows_durability () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal ~durability:Wal.Fsync_per_commit db path;
      let step name f =
        let before = Option.get (Database.wal_io db) in
        f ();
        let after = Option.get (Database.wal_io db) in
        check int (name ^ ": one commit") 1
          (after.Wal.commits_logged - before.Wal.commits_logged);
        check int (name ^ ": one fsync") 1 (after.Wal.fsyncs - before.Wal.fsyncs)
      in
      step "create" (fun () -> ignore (Database.create_table db (schema ())));
      step "drop" (fun () -> Database.drop_table db "Accounts");
      Database.close db;
      check bool "replay ends without the dropped table" false
        (Catalog.mem (Wal.replay path) "Accounts"))

(** {!Wal.with_batch} defers the per-commit sync: N commits inside one
    scope cost one flush (+ one fsync in the fsync modes) at scope end. *)
let test_with_batch_amortises () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Fsync_per_commit path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      let before = Wal.io_stats log in
      Wal.with_batch log (fun () ->
          for i = 1 to 10 do
            Wal.append_commit log ~txn_id:i [ insert_record i ]
          done);
      let after = Wal.io_stats log in
      check int "one scope" 1 (after.Wal.batched_scopes - before.Wal.batched_scopes);
      check int "ten deferred commits" 10
        (after.Wal.batched_commits - before.Wal.batched_commits);
      check int "one flush for the whole scope" 1
        (after.Wal.flushes - before.Wal.flushes);
      check int "one fsync for the whole scope" 1
        (after.Wal.fsyncs - before.Wal.fsyncs);
      Wal.close log;
      check int "all rows replayed" 10 (rows_after_replay path))

(** Switching durability at runtime takes effect from the next commit,
    and commits keep working in every mode. *)
let test_set_durability_switches () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Flush_per_commit path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      Wal.set_durability log Wal.Fsync_per_commit;
      Wal.append_commit log ~txn_id:1 [ insert_record 1 ];
      let io = Wal.io_stats log in
      check int "fsync mode fsynced once" 1 io.Wal.fsyncs;
      Wal.set_durability log Wal.Never;
      Wal.append_commit log ~txn_id:2 [ insert_record 2 ];
      let io' = Wal.io_stats log in
      check int "never mode does not flush" io.Wal.flushes io'.Wal.flushes;
      check bool "mode reads back" true (Wal.durability log = Wal.Never);
      Wal.close log;
      check int "both commits survive" 2 (rows_after_replay path))

(** Sync failures are loud: syncing a closed log raises [Wal_error] instead
    of silently dropping durability. *)
let test_sync_on_closed_log_raises () =
  with_tmp (fun path ->
      let log = Wal.open_log path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      Wal.close log;
      match Wal.sync log with
      | () -> Alcotest.fail "sync on a closed log must raise"
      | exception Errors.Db_error (Errors.Wal_error _) -> ())

(** CLI/config round-trip of the durability notation. *)
let test_durability_strings () =
  let roundtrip d =
    match Wal.durability_of_string (Wal.durability_to_string d) with
    | Some d' -> check bool (Wal.durability_to_string d) true (d = d')
    | None ->
      Alcotest.fail ("unparsable: " ^ Wal.durability_to_string d)
  in
  List.iter roundtrip
    [ Wal.Never; Wal.Flush_per_commit; Wal.Fsync_per_commit ];
  List.iter
    (fun s ->
      check bool (s ^ " rejected") true (Wal.durability_of_string s = None))
    (* the retired group-commit spellings *)
    [ "group"; Printf.sprintf "group(%d,%dus)" 8 2000 ];
  check bool "garbage rejected" true
    (Wal.durability_of_string "eventually" = None)

let suite =
  [
    Alcotest.test_case "fsync per commit" `Quick test_fsync_per_commit;
    Alcotest.test_case "flush per commit never fsyncs" `Quick
      test_flush_per_commit_no_fsync;
    Alcotest.test_case "never-mode buffers" `Quick test_never_buffers;
    Alcotest.test_case "concurrent txns fsync every commit" `Quick
      test_concurrent_fsync_per_commit;
    Alcotest.test_case "DDL follows the durability mode" `Quick
      test_ddl_follows_durability;
    Alcotest.test_case "with_batch amortises sync" `Quick
      test_with_batch_amortises;
    Alcotest.test_case "set_durability switches modes" `Quick
      test_set_durability_switches;
    Alcotest.test_case "sync on closed log raises" `Quick
      test_sync_on_closed_log_raises;
    Alcotest.test_case "durability string round-trip" `Quick
      test_durability_strings;
  ]
