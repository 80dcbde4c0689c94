(* Tests for the extended SQL surface: LIKE, scalar functions, BETWEEN,
   LEFT JOIN, HAVING, and set operations. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let setup () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  let exec sql = Sql.Run.exec_sql session sql in
  ignore (exec "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT NOT NULL, price FLOAT NOT NULL)");
  ignore (exec "CREATE TABLE Airlines (fno INT PRIMARY KEY, airline TEXT NOT NULL)");
  ignore
    (exec
       "INSERT INTO Flights VALUES (122, 'Paris', 300.0), (123, 'Paris', \
        350.0), (134, 'Prague', 400.0), (136, 'Rome', 280.0)");
  (* airline info missing for 136: LEFT JOIN fodder *)
  ignore
    (exec "INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (134, 'Lufthansa')");
  exec

let rows_of = function
  | Sql.Run.Rows (_, rows) -> rows
  | r -> Alcotest.failf "expected rows, got %s" (Sql.Run.result_to_string r)

(* ---------------- LIKE ---------------- *)

let test_like () =
  let exec = setup () in
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest LIKE 'P%'") in
  check int "P-destinations" 3 (List.length rows);
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest LIKE 'Par_s'") in
  check int "underscore wildcard" 2 (List.length rows);
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest NOT LIKE 'P%'") in
  check int "not like" 1 (List.length rows);
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest LIKE '%ague'") in
  check int "suffix" 1 (List.length rows);
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest LIKE 'Paris'") in
  check int "exact" 2 (List.length rows);
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest LIKE '%r%a%'") in
  check int "two-letter order" 1 (List.length rows)

(* Property: the LIKE matcher agrees with a reference regex translation. *)
let prop_like_reference =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 6))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 6)))
  in
  let reference pattern text =
    (* dynamic-programming reference matcher *)
    let np = String.length pattern and nt = String.length text in
    let dp = Array.make_matrix (np + 1) (nt + 1) false in
    dp.(0).(0) <- true;
    for p = 1 to np do
      if pattern.[p - 1] = '%' then dp.(p).(0) <- dp.(p - 1).(0)
    done;
    for p = 1 to np do
      for t = 1 to nt do
        dp.(p).(t) <-
          (match pattern.[p - 1] with
          | '%' -> dp.(p - 1).(t) || dp.(p).(t - 1)
          | '_' -> dp.(p - 1).(t - 1)
          | c -> c = text.[t - 1] && dp.(p - 1).(t - 1))
      done
    done;
    dp.(np).(nt)
  in
  QCheck.Test.make ~name:"LIKE agrees with DP reference" ~count:500
    (QCheck.make gen) (fun (pattern, text) ->
      Expr.like_match ~pattern text = reference pattern text)

(* ---------------- scalar functions ---------------- *)

let test_scalar_functions () =
  let exec = setup () in
  let one sql =
    match rows_of (exec sql) with
    | [ row ] -> row.(0)
    | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)
  in
  check bool "lower" true (Value.equal (one "SELECT lower('AbC')") (Value.Str "abc"));
  check bool "upper" true (Value.equal (one "SELECT upper('AbC')") (Value.Str "ABC"));
  check bool "length" true (Value.equal (one "SELECT length('hello')") (Value.Int 5));
  check bool "abs int" true (Value.equal (one "SELECT abs(-4)") (Value.Int 4));
  check bool "abs float" true (Value.equal (one "SELECT abs(-4.5)") (Value.Float 4.5));
  check bool "coalesce" true
    (Value.equal (one "SELECT coalesce(NULL, NULL, 7, 9)") (Value.Int 7));
  check bool "coalesce all null" true
    (Value.is_null (one "SELECT coalesce(NULL, NULL)"));
  check bool "null propagates" true (Value.is_null (one "SELECT lower(NULL)"));
  (* in WHERE *)
  let rows =
    rows_of (exec "SELECT fno FROM Flights WHERE lower(dest) = 'paris'")
  in
  check int "lower in where" 2 (List.length rows);
  match exec "SELECT frobnicate(1)" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "unknown function accepted"

(* ---------------- BETWEEN ---------------- *)

let test_between () =
  let exec = setup () in
  let rows =
    rows_of (exec "SELECT fno FROM Flights WHERE price BETWEEN 300.0 AND 360.0")
  in
  check int "between" 2 (List.length rows);
  let rows =
    rows_of
      (exec "SELECT fno FROM Flights WHERE price NOT BETWEEN 300.0 AND 360.0")
  in
  check int "not between" 2 (List.length rows)

(* ---------------- LEFT JOIN ---------------- *)

let test_left_join () =
  let exec = setup () in
  let rows =
    rows_of
      (exec
         "SELECT f.fno, a.airline FROM Flights f LEFT JOIN Airlines a ON \
          f.fno = a.fno ORDER BY f.fno")
  in
  check int "all flights kept" 4 (List.length rows);
  let last = List.nth rows 3 in
  check bool "136 present" true (Value.equal last.(0) (Value.Int 136));
  check bool "136 padded with NULL" true (Value.is_null last.(1));
  (* inner-joined rows carry their airline *)
  check bool "122 airline" true
    (Value.equal (List.hd rows).(1) (Value.Str "United"))

let test_left_join_where_on_right () =
  let exec = setup () in
  (* IS NULL on the padded side finds the unmatched rows *)
  let rows =
    rows_of
      (exec
         "SELECT f.fno FROM Flights f LEFT JOIN Airlines a ON f.fno = a.fno \
          WHERE a.airline IS NULL")
  in
  check int "one unmatched flight" 1 (List.length rows);
  check bool "it is 136" true (Value.equal (List.hd rows).(0) (Value.Int 136))

let test_left_join_aggregate () =
  let exec = setup () in
  let rows =
    rows_of
      (exec
         "SELECT a.airline, count(f.fno) AS n FROM Flights f LEFT JOIN \
          Airlines a ON f.fno = a.fno GROUP BY a.airline ORDER BY n DESC")
  in
  (* United 2, Lufthansa 1, NULL group 1 *)
  check int "three groups" 3 (List.length rows)

(* ---------------- HAVING ---------------- *)

let test_having () =
  let exec = setup () in
  let rows =
    rows_of
      (exec
         "SELECT dest, count(*) AS n FROM Flights GROUP BY dest HAVING n >= 2")
  in
  check int "only paris qualifies" 1 (List.length rows);
  check bool "paris" true (Value.equal (List.hd rows).(0) (Value.Str "Paris"));
  match exec "SELECT fno FROM Flights HAVING fno > 1" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "HAVING without aggregation accepted"

(* ---------------- set operations ---------------- *)

let test_set_operations () =
  let exec = setup () in
  let count sql = List.length (rows_of (exec sql)) in
  check int "union dedups" 3
    (count "SELECT dest FROM Flights UNION SELECT dest FROM Flights");
  check int "union all keeps" 8
    (count "SELECT dest FROM Flights UNION ALL SELECT dest FROM Flights");
  check int "intersect" 3
    (count
       "SELECT fno FROM Flights INTERSECT SELECT fno FROM Airlines");
  check int "except" 1
    (count "SELECT fno FROM Flights EXCEPT SELECT fno FROM Airlines");
  check int "except all multiset" 1
    (count
       "SELECT dest FROM Flights EXCEPT ALL SELECT dest FROM Flights WHERE \
        price < 400.0");
  check int "intersect all multiset" 2
    (count
       "SELECT dest FROM Flights WHERE dest = 'Paris' INTERSECT ALL SELECT \
        dest FROM Flights");
  (* chaining *)
  check int "chained union" 3
    (count
       "SELECT dest FROM Flights UNION SELECT dest FROM Flights UNION \
        SELECT dest FROM Flights");
  match exec "SELECT fno, dest FROM Flights UNION SELECT fno FROM Flights" with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "arity mismatch in UNION accepted"

(* ---------------- derived tables ---------------- *)

let test_derived_table_basic () =
  let exec = setup () in
  let rows =
    rows_of
      (exec
         "SELECT d FROM (SELECT dest AS d, price FROM Flights WHERE price <           400.0) cheap WHERE cheap.price > 290.0 ORDER BY d")
  in
  check int "two cheap-but-not-too-cheap" 2 (List.length rows);
  check bool "first is Paris" true
    (Value.equal (List.hd rows).(0) (Value.Str "Paris"))

let test_derived_table_join () =
  let exec = setup () in
  (* join a base table with an aggregated derived table *)
  let rows =
    rows_of
      (exec
         "SELECT f.fno, s.n FROM Flights f JOIN (SELECT dest, count(*) AS n           FROM Flights GROUP BY dest) s ON f.dest = s.dest WHERE s.n >= 2           ORDER BY f.fno")
  in
  check int "both paris flights" 2 (List.length rows);
  List.iter
    (fun r -> check bool "count is 2" true (Value.equal r.(1) (Value.Int 2)))
    rows

let test_derived_table_requires_alias () =
  let exec = setup () in
  match exec "SELECT 1 FROM (SELECT fno FROM Flights)" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "aliasless derived table accepted"

let test_derived_table_nested () =
  let exec = setup () in
  let rows =
    rows_of
      (exec
         "SELECT x FROM (SELECT fno AS x FROM (SELECT fno FROM Flights           WHERE dest = 'Rome') inner1) outer1")
  in
  check int "one rome flight through two layers" 1 (List.length rows)

(* ---------------- pretty round trips for new syntax ---------------- *)

let test_pretty_roundtrip_features () =
  let queries =
    [
      "SELECT fno FROM Flights WHERE (dest LIKE 'P%')";
      "SELECT fno FROM Flights WHERE (dest NOT LIKE '_aris')";
      "SELECT lower(dest) FROM Flights";
      "SELECT coalesce(dest, 'x', 'y') FROM Flights";
      "SELECT f.fno FROM Flights f LEFT JOIN Airlines a ON (f.fno = a.fno)";
      "SELECT dest, count(*) AS n FROM Flights GROUP BY dest HAVING (n > 1)";
      "SELECT dest FROM Flights UNION ALL SELECT dest FROM Flights";
      "SELECT dest FROM Flights INTERSECT SELECT dest FROM Flights";
      "SELECT dest FROM Flights EXCEPT SELECT dest FROM Flights";
      "SELECT x FROM (SELECT fno AS x FROM Flights) d WHERE (x > 1)";
    ]
  in
  List.iter
    (fun q ->
      let ast1 = Sql.Parser.parse_one q in
      let printed = Sql.Pretty.statement_to_string ast1 in
      let ast2 = Sql.Parser.parse_one printed in
      if ast1 <> ast2 then
        Alcotest.failf "roundtrip mismatch:\n%s\n->\n%s" q printed)
    queries

(* ---------------- INSERT..SELECT / CREATE TABLE AS ---------------- *)

let test_insert_select () =
  let exec = setup () in
  ignore (exec "CREATE TABLE Cheap (fno INT PRIMARY KEY, dest TEXT NOT NULL)");
  (match exec "INSERT INTO Cheap SELECT fno, dest FROM Flights WHERE price < 360.0" with
  | Sql.Run.Affected 3 -> ()
  | r -> Alcotest.failf "expected 3, got %s" (Sql.Run.result_to_string r));
  check int "rows landed" 3 (List.length (rows_of (exec "SELECT * FROM Cheap")));
  (* with a column list, missing columns become NULL *)
  ignore (exec "CREATE TABLE Partial (fno INT PRIMARY KEY, note TEXT)");
  ignore (exec "INSERT INTO Partial (fno) SELECT fno FROM Flights WHERE dest = 'Rome'");
  let rows = rows_of (exec "SELECT note FROM Partial") in
  check bool "null filled" true (Value.is_null (List.hd rows).(0));
  (* arity mismatch rejected *)
  match exec "INSERT INTO Cheap SELECT fno FROM Flights" with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

let test_create_table_as () =
  let exec = setup () in
  (match
     exec
       "CREATE TABLE Summary AS SELECT dest, count(*) AS n, min(price) AS         cheapest FROM Flights GROUP BY dest"
   with
  | Sql.Run.Ok_msg _ -> ()
  | r -> Alcotest.failf "ctas failed: %s" (Sql.Run.result_to_string r));
  let rows = rows_of (exec "SELECT dest, n FROM Summary ORDER BY n DESC") in
  check int "three summary rows" 3 (List.length rows);
  check bool "paris 2" true
    (Value.equal (List.hd rows).(0) (Value.Str "Paris")
    && Value.equal (List.hd rows).(1) (Value.Int 2));
  (* the new table is a first-class table: it can be joined *)
  let rows =
    rows_of
      (exec
         "SELECT f.fno FROM Flights f JOIN Summary s ON f.dest = s.dest           WHERE s.n = 1")
  in
  check int "join against ctas" 2 (List.length rows)

let test_update_delete_with_subquery () =
  let exec = setup () in
  (match
     exec
       "UPDATE Flights SET price = 0.0 WHERE fno IN (SELECT fno FROM         Airlines WHERE airline = 'United')"
   with
  | Sql.Run.Affected 2 -> ()
  | r -> Alcotest.failf "update: %s" (Sql.Run.result_to_string r));
  check int "two free flights" 2
    (List.length (rows_of (exec "SELECT fno FROM Flights WHERE price = 0.0")));
  (match
     exec
       "DELETE FROM Flights WHERE fno NOT IN (SELECT fno FROM Airlines)"
   with
  | Sql.Run.Affected 1 -> ()
  | r -> Alcotest.failf "delete: %s" (Sql.Run.result_to_string r));
  check int "three remain" 3
    (List.length (rows_of (exec "SELECT fno FROM Flights")))

(* ---------------- views ---------------- *)

let test_views () =
  let exec = setup () in
  ignore (exec "CREATE VIEW ParisFlights AS SELECT fno, price FROM Flights WHERE dest = 'Paris'");
  let rows = rows_of (exec "SELECT fno FROM ParisFlights ORDER BY fno") in
  check int "view rows" 2 (List.length rows);
  (* views reflect current base data *)
  ignore (exec "INSERT INTO Flights VALUES (200, 'Paris', 111.0)");
  check int "view follows base" 3
    (List.length (rows_of (exec "SELECT fno FROM ParisFlights")));
  (* views can be joined and nested in views *)
  ignore (exec "CREATE VIEW CheapParis AS SELECT fno FROM ParisFlights WHERE price < 320.0");
  check int "view over view" 2
    (List.length (rows_of (exec "SELECT fno FROM CheapParis")));
  let rows =
    rows_of
      (exec
         "SELECT a.airline FROM CheapParis c JOIN Airlines a ON c.fno = a.fno")
  in
  check int "join against view" 1 (List.length rows);
  (* entangled queries see views too *)
  ignore (exec "DROP VIEW CheapParis");
  (match exec "SELECT fno FROM CheapParis" with
  | exception Errors.Db_error (Errors.No_such_table _) -> ()
  | _ -> Alcotest.fail "dropped view still resolvable");
  (* name clashes rejected both ways *)
  (match exec "CREATE VIEW Flights AS SELECT 1" with
  | exception Errors.Db_error (Errors.Duplicate_table _) -> ()
  | _ -> Alcotest.fail "view shadowing table accepted");
  match exec "CREATE TABLE ParisFlights (x INT)" with
  | exception Errors.Db_error (Errors.Duplicate_table _) -> ()
  | _ -> Alcotest.fail "table shadowing view accepted"

(* A view keeps its float constants exactly: the stored definition is
   rendered SQL text, which once printed floats with 6 significant
   digits, turning [p > 99.12344] into [p > 99.1234]. *)
let test_view_float_literals () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  let exec sql = Sql.Run.exec_sql session sql in
  let ids sql =
    List.map (fun row -> Value.as_int row.(0)) (rows_of (exec sql))
    |> List.sort compare
  in
  ignore (exec "CREATE TABLE T (id INT PRIMARY KEY, p FLOAT)");
  ignore (exec "INSERT INTO T VALUES (1, 99.12342), (2, 99.5), (3, 0.1 + 0.2)");
  ignore (exec "CREATE VIEW V AS SELECT id FROM T WHERE p > 99.12344");
  check Alcotest.(list int) "direct" [ 2 ] (ids "SELECT id FROM T WHERE p > 99.12344");
  check Alcotest.(list int) "through the view" [ 2 ] (ids "SELECT * FROM V");
  ignore (exec "CREATE VIEW W AS SELECT id FROM T WHERE p = 99.12342");
  check Alcotest.(list int) "equality through the view" [ 1 ] (ids "SELECT * FROM W");
  ignore (exec "CREATE VIEW X AS SELECT id FROM T WHERE p = 0.30000000000000004 OR p > 1e300");
  check Alcotest.(list int) "17 digits through the view" [ 3 ] (ids "SELECT * FROM X")

let test_view_in_entangled_query () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  ignore (Sql.Run.exec_sql session "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT NOT NULL)");
  ignore (Sql.Run.exec_sql session "INSERT INTO Flights VALUES (7, 'Paris')");
  ignore (Sql.Run.exec_sql session "CREATE VIEW P AS SELECT fno FROM Flights WHERE dest = 'Paris'");
  let coord = Core.Coordinator.create db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "R" [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let q =
    Core.Translate.of_sql db.Database.catalog ~owner:"x"
      "SELECT 'x', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM P) CHOOSE 1"
  in
  match Core.Coordinator.submit coord q with
  | Core.Coordinator.Answered n ->
    check bool "answered via view" true
      (Value.equal (snd (List.hd n.Core.Events.answers)).(1) (Value.Int 7))
  | _ -> Alcotest.fail "entangled query over a view should answer"

(* ---------------- prepared statements ---------------- *)

let test_prepared_basic () =
  let exec = setup () in
  ignore exec;
  let p = Sql.Prepared.prepare "SELECT fno FROM Flights WHERE dest = ? AND price < ?" in
  Alcotest.(check int) "two params" 2 (Sql.Prepared.n_params p)

let test_prepared_exec_reuse () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  ignore (Sql.Run.exec_sql session "CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL)");
  let ins = Sql.Prepared.prepare "INSERT INTO t VALUES (?, ?)" in
  List.iter
    (fun (a, b) ->
      ignore (Sql.Prepared.exec session ins [ Value.Int a; Value.Str b ]))
    [ 1, "x"; 2, "y"; 3, "x" ];
  let q = Sql.Prepared.prepare "SELECT a FROM t WHERE b = ? ORDER BY a" in
  let rows1 = rows_of (Sql.Prepared.exec session q [ Value.Str "x" ]) in
  check int "two x" 2 (List.length rows1);
  let rows2 = rows_of (Sql.Prepared.exec session q [ Value.Str "y" ]) in
  check int "one y" 1 (List.length rows2);
  (* arity mismatch rejected *)
  (match Sql.Prepared.exec session q [] with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "missing parameter accepted");
  (* unbound parameter caught if executed raw *)
  match Sql.Run.exec_sql session "SELECT a FROM t WHERE b = ?" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "unbound parameter accepted"

let test_prepared_entangled () =
  (* bind an entangled template, then translate and submit it *)
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make ~primary_key:[ 0 ] "Flights"
          [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ]));
  let flights = Database.find_table db "Flights" in
  ignore (Table.insert flights [| Value.Int 1; Value.Str "Paris" |]);
  let coord = Core.Coordinator.create db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let template =
    Sql.Prepared.prepare
      "SELECT ?, fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights        WHERE dest = ?) AND (?, fno) IN ANSWER R CHOOSE 1"
  in
  let submit me friend =
    match
      Sql.Prepared.bind template
        [ Value.Str me; Value.Str "Paris"; Value.Str friend ]
    with
    | Sql.Ast.Select s ->
      Core.Coordinator.submit coord
        (Core.Translate.of_select db.Database.catalog ~owner:me s)
    | _ -> Alcotest.fail "not a select"
  in
  (match submit "A" "B" with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "A waits");
  match submit "B" "A" with
  | Core.Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "B should match"

let test_entangled_rejects_new_constructs () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "Flights" [ Schema.column "fno" Ctype.TInt ]));
  let cat = db.Database.catalog in
  let bad sql =
    match Core.Translate.of_sql cat ~owner:"x" sql with
    | exception Errors.Db_error (Errors.Parse_error _) -> ()
    | _ -> Alcotest.failf "accepted: %s" sql
  in
  bad "SELECT 'x', 1 INTO ANSWER R UNION SELECT 'y', 2 INTO ANSWER R CHOOSE 1";
  bad
    "SELECT 'x', fno INTO ANSWER R FROM Flights LEFT JOIN Flights g ON fno = \
     g.fno CHOOSE 1"

let test_analyze () =
  let exec = setup () in
  match exec "ANALYZE Flights" with
  | Sql.Run.Ok_msg text ->
    let has needle =
      let lh = String.length text and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
      go 0
    in
    check bool "row count" true (has "4 row(s)");
    check bool "fno ndv" true (has "ndv=4");
    check bool "range" true (has "range=[122, 136]")
  | r -> Alcotest.failf "analyze: %s" (Sql.Run.result_to_string r)

let test_explain_analyze () =
  let exec = setup () in
  match
    exec
      "EXPLAIN ANALYZE SELECT f.fno FROM Flights f JOIN Airlines a ON f.fno        = a.fno WHERE f.dest = 'Paris'"
  with
  | Sql.Run.Explained text ->
    let has needle =
      let lh = String.length text and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
      go 0
    in
    check bool "has join node" true (has "hash_join");
    check bool "root cardinality" true (has "-> 2 row(s)");
    (* every operator below the root is counted on its own line *)
    check bool "scan Flights counted" true (has "scan Flights  -> 4 row(s)");
    check bool "scan Airlines counted" true (has "scan Airlines  -> 3 row(s)");
    check bool "filter counted" true (has "filter (#1 = 'Paris')  -> 2 row(s)")
  | r -> Alcotest.failf "explain analyze: %s" (Sql.Run.result_to_string r)

let suite =
  [
    Alcotest.test_case "LIKE" `Quick test_like;
    QCheck_alcotest.to_alcotest prop_like_reference;
    Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
    Alcotest.test_case "BETWEEN" `Quick test_between;
    Alcotest.test_case "LEFT JOIN" `Quick test_left_join;
    Alcotest.test_case "LEFT JOIN + IS NULL" `Quick test_left_join_where_on_right;
    Alcotest.test_case "LEFT JOIN + aggregate" `Quick test_left_join_aggregate;
    Alcotest.test_case "HAVING" `Quick test_having;
    Alcotest.test_case "set operations" `Quick test_set_operations;
    Alcotest.test_case "derived table basic" `Quick test_derived_table_basic;
    Alcotest.test_case "derived table join" `Quick test_derived_table_join;
    Alcotest.test_case "derived table needs alias" `Quick
      test_derived_table_requires_alias;
    Alcotest.test_case "derived table nested" `Quick test_derived_table_nested;
    Alcotest.test_case "pretty roundtrip (new)" `Quick test_pretty_roundtrip_features;
    Alcotest.test_case "entangled rejects new constructs" `Quick
      test_entangled_rejects_new_constructs;
    Alcotest.test_case "views" `Quick test_views;
    Alcotest.test_case "ANALYZE" `Quick test_analyze;
    Alcotest.test_case "EXPLAIN ANALYZE" `Quick test_explain_analyze;
    Alcotest.test_case "view in entangled query" `Quick test_view_in_entangled_query;
    Alcotest.test_case "INSERT..SELECT" `Quick test_insert_select;
    Alcotest.test_case "CREATE TABLE AS" `Quick test_create_table_as;
    Alcotest.test_case "UPDATE/DELETE with subquery" `Quick
      test_update_delete_with_subquery;
    Alcotest.test_case "view keeps float literals exact" `Quick test_view_float_literals;
    Alcotest.test_case "prepared basic" `Quick test_prepared_basic;
    Alcotest.test_case "prepared exec/reuse" `Quick test_prepared_exec_reuse;
    Alcotest.test_case "prepared entangled" `Quick test_prepared_entangled;
  ]
