(* Checkpoint snapshots: codec round-trip, newest-valid selection, torn
   files rejected at EVERY truncation offset (falling back to older
   snapshots or full replay), suffix-only recovery, WAL prefix
   truncation, and a qcheck property that recovering through a snapshot
   is observationally identical to full WAL replay. *)

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

let v_int i = Value.Int i
let v_str s = Value.Str s

(* Checkpoints live next to the log as <wal>.ckpt-<lsn>: give every test
   its own directory so snapshot discovery sees only its own files. *)
let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_ckpt_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let rm_rf () =
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:rm_rf (fun () -> f (Filename.concat dir "db.wal"))

(* Canonical dump: every table's rows in pk order — recovery equivalence
   is "same dump", which is blind to row ids and version counters. *)
let dump_cat cat =
  List.map
    (fun name ->
      let t = Catalog.find cat name in
      let rows = List.map Wal.encode_tuple (Table.rows t) in
      name :: List.sort compare rows)
    (List.sort compare (Catalog.table_names cat))

let dump db = dump_cat db.Database.catalog

let insert db i =
  Database.with_txn db (fun txn ->
      ignore
        (Txn.insert txn
           (Database.find_table db "Accounts")
           [| v_int i; v_str (Printf.sprintf "owner%d" i); v_int (i * 100) |]))

let update db i bal =
  Database.with_txn db (fun txn ->
      let t = Database.find_table db "Accounts" in
      match Table.lookup_pk t [| v_int i |] with
      | None -> ()
      | Some id ->
        ignore
          (Txn.update txn t id
             [| v_int i; v_str (Printf.sprintf "owner%d" i); v_int bal |]))

let delete db i =
  Database.with_txn db (fun txn ->
      let t = Database.find_table db "Accounts" in
      match Table.lookup_pk t [| v_int i |] with
      | None -> ()
      | Some id -> ignore (Txn.delete txn t id))

let seeded path n =
  let db = Database.create () in
  Database.attach_wal db path;
  ignore (Database.create_table db (schema ()));
  for i = 1 to n do
    insert db i
  done;
  db

(* ---------------- codec ---------------- *)

let test_lines_roundtrip () =
  with_tmp_dir (fun path ->
      let db = seeded path 7 in
      update db 3 42;
      delete db 5;
      Catalog.create_view db.Database.catalog "rich"
        "SELECT * FROM Accounts WHERE balance > 100";
      let lines = Checkpoint.to_lines ~lsn:9 db.Database.catalog in
      let lsn, cat = Checkpoint.of_lines lines in
      check int "lsn preserved" 9 lsn;
      check bool "rows preserved" true (dump db = dump_cat cat);
      check bool "view preserved" true (Catalog.view_exists cat "rich");
      check int "version preserved"
        (Table.version (Catalog.find db.Database.catalog "Accounts"))
        (Table.version (Catalog.find cat "Accounts"));
      Database.close db)

let test_load_latest_and_prune () =
  with_tmp_dir (fun path ->
      let db = seeded path 3 in
      ignore (Database.checkpoint db);
      insert db 4;
      let lsn2, _ = Database.checkpoint db in
      (match Checkpoint.load_latest ~wal_path:path with
      | None -> Alcotest.fail "expected a snapshot"
      | Some (lsn, _, _) -> check int "newest wins" lsn2 lsn);
      check int "both kept (keep defaults to 2)" 2
        (List.length (Checkpoint.list ~wal_path:path));
      Checkpoint.prune ~wal_path:path ~keep:1;
      check int "pruned to one" 1 (List.length (Checkpoint.list ~wal_path:path));
      Database.close db)

(* ---------------- torn snapshots ---------------- *)

(* A snapshot cut at ANY byte offset must never load: the format is
   validated end-to-end (header, codec, footer counts), so a torn file
   raises instead of yielding a partial catalog. *)
let test_torn_snapshot_every_offset () =
  with_tmp_dir (fun path ->
      let db = seeded path 5 in
      let _, snap_path = Database.checkpoint db in
      Database.close db;
      let ic = open_in_bin snap_path in
      let full = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let _, whole = Checkpoint.load snap_path in
      let torn = Filename.concat (Filename.dirname path) "torn.ckpt" in
      let rejected = ref 0 in
      for cut = 0 to String.length full - 1 do
        let oc = open_out_bin torn in
        output_string oc (String.sub full 0 cut);
        close_out oc;
        (* a cut either fails loudly (as Wal_error, so fallback engages)
           or — only when it severed nothing but trailing framing — loads
           the complete state; a partial catalog must never come back *)
        match Checkpoint.load torn with
        | _, cat ->
          if dump_cat cat <> dump_cat whole then
            Alcotest.failf "cut at byte %d loaded a partial catalog" cut
        | exception Errors.Db_error (Errors.Wal_error _) -> incr rejected
      done;
      Sys.remove torn;
      (* everything short of the footer line must have been rejected *)
      check bool "almost every truncation rejected" true
        (!rejected >= String.length full - 2))

(* Recovery survives a torn newest snapshot by falling back: to an older
   valid snapshot if one exists, else to full WAL replay. *)
let test_recover_falls_back_past_torn_snapshot () =
  with_tmp_dir (fun path ->
      let db = seeded path 4 in
      let old_lsn, _ = Database.checkpoint db ~keep:10 in
      insert db 5;
      let _, newest = Database.checkpoint db ~keep:10 in
      insert db 6;
      let expect = dump db in
      Database.close db;
      (* tear the newest snapshot mid-file *)
      let len = (Unix.stat newest).Unix.st_size in
      let fd = Unix.openfile newest [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len / 2);
      Unix.close fd;
      let recovered = Database.recover path in
      check bool "state intact via older snapshot" true (dump recovered = expect);
      (match Database.recovery_stats recovered with
      | Some { snapshot_lsn = Some l; _ } -> check int "older snapshot used" old_lsn l
      | _ -> Alcotest.fail "expected snapshot-based recovery");
      Database.close recovered;
      (* tear the older one too: full replay remains possible *)
      List.iter (fun (_, p) -> Sys.remove p) (Checkpoint.list ~wal_path:path);
      let recovered = Database.recover path in
      check bool "state intact via full replay" true (dump recovered = expect);
      (match Database.recovery_stats recovered with
      | Some { snapshot_lsn = None; _ } -> ()
      | _ -> Alcotest.fail "expected full replay");
      Database.close recovered)

(* ---------------- suffix-only recovery ---------------- *)

let test_recover_replays_only_suffix () =
  with_tmp_dir (fun path ->
      let db = seeded path 6 in
      (* batches so far: 1 DDL + 6 inserts = 7 *)
      let ckpt_lsn, _ = Database.checkpoint db in
      check int "checkpoint at current lsn" 7 ckpt_lsn;
      for i = 7 to 10 do
        insert db i
      done;
      let expect = dump db in
      Database.close db;
      let recovered = Database.recover path in
      check bool "state matches" true (dump recovered = expect);
      (match Database.recovery_stats recovered with
      | Some { snapshot_lsn; replayed_batches; replayed_records } ->
        check bool "started from the snapshot" true (snapshot_lsn = Some ckpt_lsn);
        check int "replayed only the 4-batch suffix" 4 replayed_batches;
        check int "one record per suffix batch" 4 replayed_records
      | None -> Alcotest.fail "expected recovery stats");
      check int "lsn continues past recovery" 11 (Database.last_lsn recovered);
      Database.close recovered)

let test_truncate_wal_prefix () =
  with_tmp_dir (fun path ->
      let db = seeded path 5 in
      let lsn, _ = Database.checkpoint ~truncate_wal:true db in
      insert db 6;
      let expect = dump db in
      Database.close db;
      (* the log now *starts* at the snapshot lsn: full replay of the cut
         prefix is impossible, so the snapshot is load-bearing *)
      let wal = Wal.open_log path in
      check int "log rebased" lsn (Wal.base_lsn wal);
      Wal.close wal;
      let recovered = Database.recover path in
      check bool "state intact from snapshot + suffix" true (dump recovered = expect);
      (match Database.recovery_stats recovered with
      | Some { snapshot_lsn = Some l; replayed_batches; _ } ->
        check int "snapshot used" lsn l;
        check int "only the post-truncation suffix" 1 replayed_batches
      | _ -> Alcotest.fail "truncated prefix demands snapshot recovery");
      Database.close recovered)

(* ---------------- io stats ---------------- *)

let test_reset_io_stats () =
  with_tmp_dir (fun path ->
      let db = seeded path 3 in
      (* 1 CREATE TABLE + 3 txn commits: DDL takes the commit path *)
      let io = Option.get (Database.wal_io db) in
      check int "commits counted" 4 io.Wal.commits_logged;
      Database.reset_io_stats db;
      let io = Option.get (Database.wal_io db) in
      check int "commits zeroed" 0 io.Wal.commits_logged;
      check int "flushes zeroed" 0 io.Wal.flushes;
      check int "fsyncs zeroed" 0 io.Wal.fsyncs;
      check int "batched scopes zeroed" 0 io.Wal.batched_scopes;
      insert db 4;
      let io = Option.get (Database.wal_io db) in
      check int "counting resumes" 1 io.Wal.commits_logged;
      Database.close db)

(* ---------------- property: checkpoint ≡ full replay ---------------- *)

type op = Ins of int | Upd of int * int | Del of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Ins k) (int_range 1 30));
        (2, map2 (fun k b -> Upd (k, b)) (int_range 1 30) (int_range 0 999));
        (1, map (fun k -> Del k) (int_range 1 30));
      ])

let apply_op db = function
  | Ins k ->
    (* pk collisions would abort the txn; skip existing keys *)
    if Table.lookup_pk (Database.find_table db "Accounts") [| v_int k |] = None
    then insert db k
  | Upd (k, b) -> update db k b
  | Del k -> delete db k

let prop_checkpoint_equals_full_replay =
  QCheck.Test.make ~name:"recover via checkpoint = full WAL replay" ~count:40
    QCheck.(
      pair (list_of_size Gen.(int_range 1 25) (make op_gen)) (int_bound 25))
    (fun (ops, cut) ->
      with_tmp_dir (fun path ->
          let db = seeded path 0 in
          let cut = min cut (List.length ops) in
          List.iteri
            (fun i op ->
              apply_op db op;
              if i + 1 = cut then ignore (Database.checkpoint db))
            ops;
          if cut = 0 then ignore (Database.checkpoint db);
          let live = dump db in
          Database.close db;
          (* once through the snapshot... *)
          let via_ckpt = Database.recover path in
          let d1 = dump via_ckpt in
          let used_snapshot =
            match Database.recovery_stats via_ckpt with
            | Some { snapshot_lsn = Some _; _ } -> true
            | _ -> false
          in
          Database.close via_ckpt;
          (* ...and once with every snapshot deleted: full replay *)
          List.iter (fun (_, p) -> Sys.remove p) (Checkpoint.list ~wal_path:path);
          let via_replay = Database.recover path in
          let d2 = dump via_replay in
          Database.close via_replay;
          used_snapshot && d1 = live && d2 = live))

let suite =
  [
    Alcotest.test_case "to_lines/of_lines round-trip" `Quick test_lines_roundtrip;
    Alcotest.test_case "load_latest picks newest; prune" `Quick
      test_load_latest_and_prune;
    Alcotest.test_case "torn snapshot rejected at every offset" `Quick
      test_torn_snapshot_every_offset;
    Alcotest.test_case "recover falls back past torn snapshots" `Quick
      test_recover_falls_back_past_torn_snapshot;
    Alcotest.test_case "recover replays only the WAL suffix" `Quick
      test_recover_replays_only_suffix;
    Alcotest.test_case "checkpoint can truncate the WAL prefix" `Quick
      test_truncate_wal_prefix;
    Alcotest.test_case "reset_io_stats zeroes all counters" `Quick
      test_reset_io_stats;
    QCheck_alcotest.to_alcotest prop_checkpoint_equals_full_replay;
  ]
