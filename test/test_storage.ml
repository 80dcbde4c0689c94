(* Tests for Txn, Wal, Database recovery, Csv. *)

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

let with_tmp f =
  let path = Filename.temp_file "youtopia_test" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ---------------- Txn ---------------- *)

let test_txn_commit () =
  let mgr = Txn.create_manager () in
  let t = Table.create (schema ()) in
  Txn.with_txn mgr (fun txn ->
      ignore (Txn.insert txn t [| v_int 1; v_str "jerry"; v_int 100 |]);
      ignore (Txn.insert txn t [| v_int 2; v_str "kramer"; v_int 50 |]));
  check int "both rows" 2 (Table.row_count t)

let test_txn_rollback_on_exception () =
  let mgr = Txn.create_manager () in
  let t = Table.create (schema ()) in
  ignore (Table.insert t [| v_int 1; v_str "jerry"; v_int 100 |]);
  (try
     Txn.with_txn mgr (fun txn ->
         ignore (Txn.insert txn t [| v_int 2; v_str "kramer"; v_int 50 |]);
         let id = Option.get (Table.lookup_pk t [| v_int 1 |]) in
         ignore (Txn.update txn t id [| v_int 1; v_str "jerry"; v_int 0 |]);
         ignore (Txn.delete txn t id);
         failwith "boom")
   with Failure _ -> ());
  (* Everything must be restored: row 1 intact, row 2 gone. *)
  check int "one row" 1 (Table.row_count t);
  let id = Option.get (Table.lookup_pk t [| v_int 1 |]) in
  check bool "balance restored" true
    (Value.equal (Table.get_exn t id).(2) (v_int 100));
  check bool "row 2 gone" true (Table.lookup_pk t [| v_int 2 |] = None)

let test_txn_explicit_rollback () =
  let mgr = Txn.create_manager () in
  let t = Table.create (schema ()) in
  let txn = Txn.begin_ mgr in
  ignore (Txn.insert txn t [| v_int 1; v_str "jerry"; v_int 1 |]);
  Txn.rollback txn;
  check int "empty" 0 (Table.row_count t);
  (* manager reusable after rollback *)
  Txn.with_txn mgr (fun txn ->
      ignore (Txn.insert txn t [| v_int 1; v_str "jerry"; v_int 1 |]));
  check int "one" 1 (Table.row_count t)

let test_txn_use_after_commit_rejected () =
  let mgr = Txn.create_manager () in
  let t = Table.create (schema ()) in
  let txn = Txn.begin_ mgr in
  Txn.commit txn;
  match Txn.insert txn t [| v_int 1; v_str "x"; v_int 0 |] with
  | exception Errors.Db_error (Errors.Txn_error _) -> ()
  | _ -> Alcotest.fail "use after commit accepted"

(* ---------------- WAL ---------------- *)

let test_wal_roundtrip_records () =
  let records =
    [
      Wal.Create_table (schema ());
      Wal.Insert ("Accounts", [| v_int 1; v_str "we|ird'; name"; v_int 3 |]);
      Wal.Update
        ( "Accounts",
          [| v_int 1; v_str "a"; v_int 3 |],
          [| v_int 1; v_str "b\nnewline"; Value.Null |] );
      Wal.Delete ("Accounts", [| v_int 1; v_str "b\nnewline"; Value.Null |]);
      Wal.Commit 42;
    ]
  in
  List.iter
    (fun r ->
      let encoded = Wal.encode_record r in
      check bool "single line" false (String.contains encoded '\n');
      let decoded = Wal.decode_record encoded in
      check bool "roundtrip" true (decoded = r))
    records

(* unescape must be total: malformed escapes come from torn WAL tails and
   from hostile wire payloads, and must never raise *)
let test_wal_unescape_total () =
  let str = Alcotest.string in
  check str "valid escape" "|" (Wal.unescape "%7C");
  check str "roundtrip" "a|b%c\nd" (Wal.unescape (Wal.escape "a|b%c\nd"));
  check str "non-hex kept literally" "%zz" (Wal.unescape "%zz");
  check str "half escape kept literally" "%7" (Wal.unescape "%7");
  check str "trailing percent" "100%" (Wal.unescape "100%");
  check str "mixed" "ok|%zz%" (Wal.unescape "ok%7C%zz%")

let test_wal_replay () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal db path;
      let t = Database.create_table db (schema ()) in
      Database.with_txn db (fun txn ->
          ignore (Txn.insert txn t [| v_int 1; v_str "jerry"; v_int 100 |]);
          ignore (Txn.insert txn t [| v_int 2; v_str "kramer"; v_int 50 |]));
      Database.with_txn db (fun txn ->
          let id = Option.get (Table.lookup_pk t [| v_int 1 |]) in
          ignore (Txn.update txn t id [| v_int 1; v_str "jerry"; v_int 75 |]));
      Database.with_txn db (fun txn ->
          let id = Option.get (Table.lookup_pk t [| v_int 2 |]) in
          ignore (Txn.delete txn t id));
      Database.close db;
      let recovered = Database.recover path in
      let t' = Database.find_table recovered "Accounts" in
      check int "one row survives" 1 (Table.row_count t');
      let id = Option.get (Table.lookup_pk t' [| v_int 1 |]) in
      check bool "updated balance" true
        (Value.equal (Table.get_exn t' id).(2) (v_int 75));
      Database.close recovered)

let test_wal_rolled_back_txn_not_logged () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal db path;
      let t = Database.create_table db (schema ()) in
      (try
         Database.with_txn db (fun txn ->
             ignore (Txn.insert txn t [| v_int 9; v_str "ghost"; v_int 0 |]);
             failwith "abort")
       with Failure _ -> ());
      Database.close db;
      let recovered = Database.recover path in
      let t' = Database.find_table recovered "Accounts" in
      check int "no ghost row" 0 (Table.row_count t');
      Database.close recovered)

let test_wal_torn_tail_discarded () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal db path;
      let t = Database.create_table db (schema ()) in
      Database.with_txn db (fun txn ->
          ignore (Txn.insert txn t [| v_int 1; v_str "ok"; v_int 1 |]));
      Database.close db;
      (* simulate a crash mid-batch: append records without a commit marker *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc
        (Wal.encode_record (Wal.Insert ("Accounts", [| v_int 2; v_str "torn"; v_int 2 |])));
      output_char oc '\n';
      close_out oc;
      let recovered = Database.recover path in
      let t' = Database.find_table recovered "Accounts" in
      check int "torn insert discarded" 1 (Table.row_count t');
      Database.close recovered)

let test_wal_ddl_replay_with_drop () =
  with_tmp (fun path ->
      let db = Database.create () in
      Database.attach_wal db path;
      let t = Database.create_table db (schema ()) in
      Database.with_txn db (fun txn ->
          ignore (Txn.insert txn t [| v_int 1; v_str "x"; v_int 1 |]));
      Database.drop_table db "Accounts";
      ignore
        (Database.create_table db
           (Schema.make "Other" [ Schema.column "z" Ctype.TInt ]));
      Database.close db;
      let recovered = Database.recover path in
      check bool "dropped table absent" false
        (Catalog.mem recovered.Database.catalog "Accounts");
      check bool "later table present" true
        (Catalog.mem recovered.Database.catalog "Other");
      Database.close recovered)

(* ---------------- CSV ---------------- *)

let test_csv_parse_quoting () =
  let rows = Csv.parse "a,\"b,c\",\"d\"\"e\"\n1,2,3\n" in
  check int "two rows" 2 (List.length rows);
  (match rows with
  | [ r1; _ ] ->
    check bool "quoted comma" true (List.nth r1 1 = "b,c");
    check bool "doubled quote" true (List.nth r1 2 = "d\"e")
  | _ -> Alcotest.fail "parse shape");
  let rows = Csv.parse "\"multi\nline\",x" in
  check bool "embedded newline" true
    (match rows with [ [ a; _ ] ] -> a = "multi\nline" | _ -> false)

let test_csv_load_dump_roundtrip () =
  let t = Table.create (schema ()) in
  ignore (Table.insert t [| v_int 1; v_str "has,comma"; v_int 10 |]);
  ignore (Table.insert t [| v_int 2; v_str "has\"quote"; v_int 20 |]);
  let text = Csv.dump t in
  let t2 = Table.create (schema ()) in
  let n = Csv.load ~header:true t2 text in
  check int "2 loaded" 2 n;
  let r1 = Table.get_exn t2 (Option.get (Table.lookup_pk t2 [| v_int 1 |])) in
  check bool "comma survives" true (Value.equal r1.(1) (v_str "has,comma"))

let test_csv_type_errors () =
  let t = Table.create (schema ()) in
  (match Csv.load t "notanint,jerry,3\n" with
  | exception Errors.Db_error (Errors.Type_error _) -> ()
  | _ -> Alcotest.fail "bad int accepted");
  match Csv.load t "1,jerry\n" with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* Property: WAL value codec round-trips. *)
let prop_wal_value_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          QCheck.Gen.return Value.Null;
          map (fun i -> Value.Int i) small_signed_int;
          map (fun b -> Value.Bool b) bool;
          map (fun s -> Value.Str s) (string_size (int_bound 20));
        ])
  in
  QCheck.Test.make ~name:"wal value codec roundtrip" ~count:300
    (QCheck.make ~print:Value.to_string value_gen) (fun v ->
      Value.equal (Wal.decode_value (Wal.encode_value v)) v)

(* Floats survive the value codec bit for bit (the log once held
   [string_of_float]'s 12 digits); NaN stays a NaN. *)
let prop_wal_float_exact =
  let float_gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map Int64.float_of_bits int64;
          oneofl
            [ 0.1 +. 0.2; -0.0; 0.0; Float.infinity; Float.neg_infinity; 5e-324;
              Float.max_float; Float.min_float; 99.0; 1e15; 1e16; 123456789012345678. ];
        ])
  in
  QCheck.Test.make ~name:"wal float codec is exact" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen) (fun f ->
      match Wal.decode_value (Wal.encode_value (Value.Float f)) with
      | Value.Float g when Float.is_nan f -> Float.is_nan g
      | Value.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> false)

(* The repro: a float that needs 17 digits changes a query's answer
   after recovery unless the log holds it exactly. *)
let test_wal_float_recovery () =
  with_tmp (fun path ->
      let query sys =
        let s = Youtopia.System.session sys "admin" in
        match Youtopia.System.exec_sql sys s "SELECT id FROM T WHERE p > 0.3" with
        | Youtopia.System.Sql (Sql.Run.Rows (_, rows)) -> List.length rows
        | _ -> Alcotest.fail "expected rows"
      in
      let sys = Youtopia.System.create ~wal_path:path () in
      let s = Youtopia.System.session sys "admin" in
      ignore (Youtopia.System.exec_sql sys s "CREATE TABLE T (id INT PRIMARY KEY, p FLOAT)");
      ignore (Youtopia.System.exec_sql sys s "INSERT INTO T VALUES (1, 0.1 + 0.2)");
      check int "before recovery" 1 (query sys);
      Option.iter Wal.close (Youtopia.System.database sys).Database.wal;
      let recovered = Youtopia.System.recover ~wal_path:path ~answer_relations:[] () in
      check int "after recovery" 1 (query recovered))

(* Logs written before the exact codec hold [string_of_float] text; they
   still recover. *)
let test_wal_old_float_text () =
  with_tmp (fun path ->
      let schema =
        Schema.make ~primary_key:[ 0 ] "T"
          [ Schema.column ~nullable:false "id" Ctype.TInt; Schema.column "p" Ctype.TFloat ]
      in
      let oc = open_out path in
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [ "S|" ^ Wal.encode_schema schema; "C|1"; "I|T|i1,f0.3"; "I|T|i2,f99."; "C|2" ];
      close_out oc;
      let cat = Wal.replay path in
      let ps =
        Table.fold (fun acc _ row -> row.(1) :: acc) [] (Catalog.find cat "T")
        |> List.map Value.as_float |> List.sort compare
      in
      check Alcotest.(list (float 0.)) "old float text" [ 0.3; 99.0 ] ps)

let prop_csv_field_roundtrip =
  QCheck.Test.make ~name:"csv field quoting roundtrip" ~count:300
    (QCheck.string_gen_of_size (QCheck.Gen.int_bound 20) QCheck.Gen.printable)
    (fun s ->
      match Csv.parse (Csv.encode_row [ s; "x" ]) with
      | [ [ a; _ ] ] -> a = s
      | [] -> s = ""  (* a fully empty line yields no row *)
      | _ -> false)

let suite =
  [
    Alcotest.test_case "txn commit" `Quick test_txn_commit;
    Alcotest.test_case "txn rollback on exception" `Quick test_txn_rollback_on_exception;
    Alcotest.test_case "txn explicit rollback" `Quick test_txn_explicit_rollback;
    Alcotest.test_case "txn use after commit" `Quick test_txn_use_after_commit_rejected;
    Alcotest.test_case "wal record roundtrip" `Quick test_wal_roundtrip_records;
    Alcotest.test_case "wal unescape total" `Quick test_wal_unescape_total;
    Alcotest.test_case "wal replay" `Quick test_wal_replay;
    Alcotest.test_case "wal skips rolled-back txn" `Quick test_wal_rolled_back_txn_not_logged;
    Alcotest.test_case "wal torn tail discarded" `Quick test_wal_torn_tail_discarded;
    Alcotest.test_case "wal ddl replay with drop" `Quick test_wal_ddl_replay_with_drop;
    Alcotest.test_case "csv parse quoting" `Quick test_csv_parse_quoting;
    Alcotest.test_case "csv load/dump roundtrip" `Quick test_csv_load_dump_roundtrip;
    Alcotest.test_case "csv type errors" `Quick test_csv_type_errors;
    QCheck_alcotest.to_alcotest prop_wal_value_roundtrip;
    QCheck_alcotest.to_alcotest prop_wal_float_exact;
    Alcotest.test_case "wal float survives recovery" `Quick test_wal_float_recovery;
    Alcotest.test_case "wal old float text recovers" `Quick test_wal_old_float_text;
    QCheck_alcotest.to_alcotest prop_csv_field_roundtrip;
  ]
