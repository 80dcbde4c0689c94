(* Unit tests for the incremental-matching machinery: table versioning and
   identity, commit observers, the table-level poke targeting, and the
   retry-all reference's counters. *)

open Relational
open Core

let v_int i = Value.Int i
let v_str s = Value.Str s

let make_flights db =
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iter
    (fun (f, d) -> ignore (Table.insert flights [| v_int f; v_str d |]))
    [ 1, "Paris"; 2, "Paris"; 3, "Rome" ];
  flights

(* ------------------------------------------------------------------ *)

let test_version_bumps () =
  let db = Database.create () in
  let flights = make_flights db in
  let v0 = Table.version flights in
  Alcotest.(check int) "3 seed inserts" 3 v0;
  let row_id = Table.insert flights [| v_int 9; v_str "Oslo" |] in
  Alcotest.(check int) "insert bumps" (v0 + 1) (Table.version flights);
  ignore (Table.update flights row_id [| v_int 9; v_str "Rome" |]);
  Alcotest.(check int) "update bumps" (v0 + 2) (Table.version flights);
  ignore (Table.delete flights row_id);
  Alcotest.(check int) "delete bumps" (v0 + 3) (Table.version flights);
  let other =
    Database.create_table db
      (Schema.make "Other" [ Schema.column "x" Ctype.TInt ])
  in
  Alcotest.(check bool) "uids distinct" true (Table.uid flights <> Table.uid other);
  let uid0 = Table.uid flights in
  ignore (Table.insert flights [| v_int 10; v_str "Oslo" |]);
  Alcotest.(check int) "uid stable across mutations" uid0 (Table.uid flights)

(* The poke's version-snapshot diff keys tables on [(uid, version)]
   ([Coordinator.refresh_changed]); a drop and recreate under the same name
   must not alias, even when the new table reaches the old version. *)
let test_uid_drop_recreate () =
  let db = Database.create () in
  let key name =
    let t = Database.find_table db name in
    Table.uid t, Table.version t
  in
  let tiny () =
    ignore
      (Database.create_table db
         (Schema.make "Tiny" [ Schema.column "x" Ctype.TInt ]))
  in
  tiny ();
  let fresh = key "tiny" in
  Alcotest.(check int) "new table at version 0" 0 (snd fresh);
  Database.drop_table db "Tiny";
  tiny ();
  Alcotest.(check bool) "recreated table has a new identity" true
    (key "tiny" <> fresh);
  Alcotest.(check int) "recreated table also at version 0" 0
    (snd (key "tiny"))

let test_wal_recovery_versions () =
  let path = Filename.temp_file "youtopia_inc" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let db = Database.create () in
      Database.attach_wal db path;
      let t =
        Database.create_table db
          (Schema.make "Logged" [ Schema.column "x" Ctype.TInt ])
      in
      Database.with_txn db (fun txn ->
          for i = 1 to 5 do
            ignore (Txn.insert txn t [| v_int i |])
          done);
      Database.close db;
      let recovered = Database.recover path in
      let t' = Database.find_table recovered "Logged" in
      Alcotest.(check int) "replayed rows" 5 (Table.row_count t');
      Alcotest.(check int) "replay bumps versions" 5 (Table.version t');
      Database.close recovered)

let test_txn_observer () =
  let db = Database.create () in
  let flights = make_flights db in
  let seen = ref [] in
  Txn.add_observer db.Database.txns (fun ops ->
      seen :=
        List.map
          (function
            | Txn.Ins (t, _, _) -> "ins:" ^ Table.name t
            | Txn.Del (t, _) -> "del:" ^ Table.name t
            | Txn.Upd (t, _, _, _) -> "upd:" ^ Table.name t)
          ops
        :: !seen);
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn flights [| v_int 8; v_str "Oslo" |]));
  Alcotest.(check (list (list string)))
    "observer sees the redo log"
    [ [ "ins:Flights" ] ] !seen;
  (* a rolled-back transaction is invisible *)
  (try
     Database.with_txn db (fun txn ->
         ignore (Txn.insert txn flights [| v_int 9; v_str "Oslo" |]);
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "rollback not observed" 1 (List.length !seen)

(* ------------------------------------------------------------------ *)

let pair_sql ~me ~partner ~dest table =
  Printf.sprintf
    "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM %s WHERE \
     dest='%s') AND ('%s', fno) IN ANSWER R CHOOSE 1"
    me table dest partner

let make_coord ?config () =
  let db = Database.create () in
  let mk name =
    let t =
      Database.create_table db
        (Schema.make name
           [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
    in
    ignore (Table.insert t [| v_int 1; v_str "Paris" |]);
    t
  in
  let ta = mk "TA" and tb = mk "TB" in
  let coord = Coordinator.create ?config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord, ta, tb

let submit_pending coord cat ~me ~table =
  (* the ghost partner never arrives, so the query parks forever *)
  match
    Coordinator.submit coord
      (Translate.of_sql cat ~owner:me
         (pair_sql ~me ~partner:("ghost_" ^ me) ~dest:"Paris" table))
  with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "query should park"

let test_dirty_targeting () =
  let db, coord, ta, tb = make_coord () in
  let cat = db.Database.catalog in
  submit_pending coord cat ~me:"ua" ~table:"TA";
  submit_pending coord cat ~me:"ub" ~table:"TB";
  let stats = Coordinator.stats coord in
  ignore (Coordinator.poke coord);
  (* first poke: empty snapshot, everything dirty, both queries retried *)
  Alcotest.(check int) "first poke retries all" 2 stats.Stats.dirty_retries;
  (* quiescent poke touches nothing *)
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "quiescent poke retries none" 2 stats.Stats.dirty_retries;
  (* a localized direct mutation retries only that table's reader *)
  ignore (Table.insert ta [| v_int 2; v_str "Rome" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "TA mutation retries TA's reader" 3
    stats.Stats.dirty_retries;
  Alcotest.(check int) "TB's reader skipped" 1 stats.Stats.dirty_skipped;
  ignore (Table.insert tb [| v_int 2; v_str "Rome" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "TB mutation retries TB's reader" 4
    stats.Stats.dirty_retries;
  Alcotest.(check int) "pokes counted" 4 stats.Stats.pokes

let test_poke_fulfils_after_mutation () =
  let db, coord, ta, _ = make_coord () in
  let cat = db.Database.catalog in
  (* a real pair over a destination with no flight yet: both park *)
  let submit me partner =
    Coordinator.submit coord
      (Translate.of_sql cat ~owner:me (pair_sql ~me ~partner ~dest:"Oslo" "TA"))
  in
  (match submit "ann" "bob" with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "ann should park");
  (match submit "bob" "ann" with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "bob should park");
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "still pending" 2 (Pending.size (Coordinator.pending coord));
  (* the unblocking mutation arrives outside any transaction *)
  ignore (Table.insert ta [| v_int 77; v_str "Oslo" |]);
  let notifications = Coordinator.poke coord in
  Alcotest.(check int) "poke fulfils the pair" 2 (List.length notifications);
  Alcotest.(check int) "pending drained" 0
    (Pending.size (Coordinator.pending coord))

let test_pending_readers () =
  let db, coord, _, _ = make_coord () in
  let cat = db.Database.catalog in
  submit_pending coord cat ~me:"ua" ~table:"TA";
  submit_pending coord cat ~me:"ub" ~table:"TB";
  let pending = Coordinator.pending coord in
  let owners names =
    Pending.reader_ids pending names
    |> List.filter_map (Pending.get pending)
    |> List.map (fun (q : Equery.t) -> q.Equery.owner)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "TA readers" [ "ua" ] (owners [ "TA" ]);
  Alcotest.(check (list string)) "case-insensitive" [ "ub" ] (owners [ "tb" ]);
  Alcotest.(check (list string)) "union" [ "ua"; "ub" ] (owners [ "TA"; "TB" ]);
  Alcotest.(check (list string)) "unknown table" [] (owners [ "nope" ])

(* The retry-all reference counts its work like the targeted poke does:
   every pass retries, and counts, the whole pending store. *)
let test_retry_all_counts () =
  let db, coord, _, _ =
    make_coord
      ~config:{ Coordinator.default_config with Coordinator.retry = All }
      ()
  in
  let cat = db.Database.catalog in
  let n = 5 in
  for i = 1 to n do
    submit_pending coord cat ~me:(Printf.sprintf "u%d" i)
      ~table:(if i mod 2 = 0 then "TA" else "TB")
  done;
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "one poke retries all N" n
    (stats.Stats.dirty_retries - r0);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "a quiescent poke retries all N again" (2 * n)
    (stats.Stats.dirty_retries - r0)

(* ------------------------------------------------------------------ *)
(* The poke learns which tables changed from the catalog's changed-table
   list, not from a catalog walk.  Every way a table can change must still
   reach it: each case parks a pair over Oslo on TA, pokes once (the first
   poke widens everything), makes an Oslo flight appear by that route, and
   expects the next poke to answer the pair. *)

let park_oslo_pair coord cat =
  List.iter
    (fun (me, partner) ->
      match
        Coordinator.submit coord
          (Translate.of_sql cat ~owner:me
             (pair_sql ~me ~partner ~dest:"Oslo" "TA"))
      with
      | Coordinator.Registered _ -> ()
      | _ -> Alcotest.fail (me ^ " should park"))
    [ "ann", "bob"; "bob", "ann" ];
  ignore (Coordinator.poke coord)

let expect_pair_answered what coord =
  Alcotest.(check int) (what ^ ": pair answered") 2
    (List.length (Coordinator.poke coord));
  Alcotest.(check int) (what ^ ": pending drained") 0
    (Pending.size (Coordinator.pending coord))

let oslo_ta () =
  let t =
    Table.create
      (Schema.make "TA"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  ignore (Table.insert t [| v_int 77; v_str "Oslo" |]);
  t

let test_poke_widens_direct_mutation () =
  let db, coord, ta, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  let fallbacks = (Coordinator.stats coord).Stats.tuple_fallbacks in
  ignore (Table.insert ta [| v_int 77; v_str "Oslo" |]);
  expect_pair_answered "direct insert" coord;
  Alcotest.(check bool) "TA widened" true
    ((Coordinator.stats coord).Stats.tuple_fallbacks > fallbacks)

let test_poke_widens_rollback () =
  let db, coord, ta, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  let stats = Coordinator.stats coord in
  let retries = stats.Stats.dirty_retries in
  (* a rolled-back insert leaves TA as it was but moves its version twice;
     no commit reaches the observer, so the poke must widen TA *)
  let txn = Txn.begin_ db.Database.txns in
  ignore (Txn.insert txn ta [| v_int 78; v_str "Oslo" |]);
  Txn.rollback txn;
  Alcotest.(check int) "nothing to answer" 0
    (List.length (Coordinator.poke coord));
  Alcotest.(check int) "TA's readers retried" (retries + 2)
    stats.Stats.dirty_retries;
  ignore (Table.insert ta [| v_int 77; v_str "Oslo" |]);
  expect_pair_answered "after rollback" coord

let test_poke_widens_drop_recreate () =
  let db, coord, _, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  Database.drop_table db "TA";
  Catalog.add_table db.Database.catalog (oslo_ta ());
  expect_pair_answered "drop and recreate" coord

let test_poke_widens_adopt () =
  let db, coord, _, tb = make_coord () in
  let cat = db.Database.catalog in
  park_oslo_pair coord cat;
  (* a replica bootstrap: the catalog's contents are replaced in place *)
  let snapshot = Catalog.create () in
  Catalog.add_table snapshot (oslo_ta ());
  Catalog.add_table snapshot tb;
  Catalog.add_table snapshot (Catalog.find cat "R");
  Catalog.adopt cat snapshot;
  expect_pair_answered "adopt" coord

(* Over a thousand DDL statements between pokes overflow the list; the next
   poke walks the catalog instead, and still sees TA's change. *)
let test_poke_widens_after_overflow () =
  let db, coord, ta, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  for i = 1 to 1100 do
    let name = Printf.sprintf "Scratch%d" i in
    ignore
      (Database.create_table db (Schema.make name [ Schema.column "x" Ctype.TInt ]));
    Database.drop_table db name
  done;
  ignore (Table.insert ta [| v_int 77; v_str "Oslo" |]);
  expect_pair_answered "after overflow" coord

(* Two coordinators over one database each see every change, although each
   drain empties the one list. *)
let test_poke_two_consumers () =
  let db, coord, ta, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  let other = Coordinator.create db in
  ignore (Coordinator.poke other);
  ignore (Table.insert ta [| v_int 77; v_str "Oslo" |]);
  ignore (Coordinator.poke other);
  expect_pair_answered "after another consumer drained" coord

(* After the first poke no poke walks the catalog: over 2 000 tables, a
   poke with nothing changed and a poke after a change to one unread table
   each allocate less than one word per table (a walk lowercases every
   name). *)
let test_poke_does_not_walk_catalog () =
  let db, coord, _, _ = make_coord () in
  park_oslo_pair coord db.Database.catalog;
  let n = 2000 in
  let tables =
    Array.init n (fun i ->
        Database.create_table db
          (Schema.make (Printf.sprintf "Filler%d" i)
             [ Schema.column "x" Ctype.TInt ]))
  in
  ignore (Coordinator.poke coord);
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words (fun () -> ignore (Coordinator.poke coord)) in
  let one =
    words (fun () ->
        ignore (Table.insert tables.(7) [| v_int 1 |]);
        ignore (Coordinator.poke coord))
  in
  Alcotest.(check bool)
    (Printf.sprintf "empty poke: %.0f words for %d tables" empty n)
    true
    (empty < float_of_int n);
  Alcotest.(check bool)
    (Printf.sprintf "one-table poke: %.0f words for %d tables" one n)
    true
    (one < float_of_int n)

let suite =
  [
    Alcotest.test_case "table versions bump on mutation" `Quick
      test_version_bumps;
    Alcotest.test_case "table uid is new after recreate" `Quick
      test_uid_drop_recreate;
    Alcotest.test_case "WAL recovery bumps versions" `Quick
      test_wal_recovery_versions;
    Alcotest.test_case "commit observer" `Quick test_txn_observer;
    Alcotest.test_case "dirty poke retries only affected readers" `Quick
      test_dirty_targeting;
    Alcotest.test_case "poke fulfils after direct mutation" `Quick
      test_poke_fulfils_after_mutation;
    Alcotest.test_case "pending readers index" `Quick test_pending_readers;
    Alcotest.test_case "poke widens: direct mutation" `Quick
      test_poke_widens_direct_mutation;
    Alcotest.test_case "poke widens: rollback" `Quick test_poke_widens_rollback;
    Alcotest.test_case "poke widens: drop and recreate" `Quick
      test_poke_widens_drop_recreate;
    Alcotest.test_case "poke widens: Catalog.adopt" `Quick
      test_poke_widens_adopt;
    Alcotest.test_case "poke widens: changed-list overflow" `Quick
      test_poke_widens_after_overflow;
    Alcotest.test_case "poke widens: two consumers" `Quick
      test_poke_two_consumers;
    Alcotest.test_case "poke walks no catalog after the first" `Quick
      test_poke_does_not_walk_catalog;
    Alcotest.test_case "retry-all poke counts every retry" `Quick
      test_retry_all_counts;
  ]
