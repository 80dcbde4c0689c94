(* Tests for the SQL front end: lexer, parser, pretty-printer round trips,
   and end-to-end statement execution through Sql.Run. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

(* ---------------- lexer ---------------- *)

let test_lexer_basics () =
  let lexed = Sql.Lexer.tokenize "SELECT fno, 'it''s' FROM Flights -- c\nWHERE price >= 3.5" in
  let toks = Array.to_list lexed.Sql.Lexer.tokens |> List.map fst in
  check bool "keyword select" true (List.mem (Sql.Token.KW "SELECT") toks);
  check bool "string escape" true (List.mem (Sql.Token.STRING "it's") toks);
  check bool "float" true (List.mem (Sql.Token.FLOAT 3.5) toks);
  check bool "geq" true (List.mem Sql.Token.GEQ toks);
  check bool "comment skipped" true
    (not (List.exists (function Sql.Token.IDENT "c" -> true | _ -> false) toks))

let test_lexer_errors () =
  (match Sql.Lexer.tokenize "SELECT 'oops" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "unterminated string accepted");
  match Sql.Lexer.tokenize "SELECT @" with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "bad char accepted"

(* ---------------- parser ---------------- *)

let parse = Sql.Parser.parse_one

let test_parse_select_shape () =
  match parse "SELECT f.fno, dest AS d FROM Flights f WHERE price < 400 ORDER BY fno DESC LIMIT 2" with
  | Sql.Ast.Select s ->
    check int "items" 2 (List.length s.Sql.Ast.items);
    check int "from" 1 (List.length s.Sql.Ast.from);
    check bool "where" true (s.Sql.Ast.where <> None);
    check int "order" 1 (List.length s.Sql.Ast.order_by);
    check bool "limit" true (s.Sql.Ast.limit = Some 2)
  | _ -> Alcotest.fail "not a select"

let test_parse_join_folds_on () =
  match parse "SELECT * FROM Flights f JOIN Airlines a ON f.fno = a.fno WHERE a.airline = 'United'" with
  | Sql.Ast.Select s ->
    check int "two sources" 2 (List.length s.Sql.Ast.from);
    (* ON predicate conjoined into WHERE *)
    (match s.Sql.Ast.where with
    | Some (Sql.Ast.E_bin (Expr.And, _, _)) -> ()
    | _ -> Alcotest.fail "ON not folded into WHERE")
  | _ -> Alcotest.fail "not a select"

let test_parse_entangled_paper_query () =
  (* The exact query from Section 2.1 of the paper. *)
  let q =
    "SELECT 'Kramer', fno INTO ANSWER Reservation \
     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
     AND ('Jerry', fno) IN ANSWER Reservation \
     CHOOSE 1"
  in
  match parse q with
  | Sql.Ast.Select s ->
    check bool "entangled" true (Sql.Ast.is_entangled (Sql.Ast.Select s));
    check int "one head" 1 (List.length s.Sql.Ast.into_answer);
    let tuple, rel = List.hd s.Sql.Ast.into_answer in
    check str "head relation" "Reservation" rel;
    check int "head arity" 2 (List.length tuple);
    check bool "choose 1" true (s.Sql.Ast.choose = Some 1);
    (* WHERE contains one IN-select and one IN ANSWER *)
    let rec count_ans e =
      match e with
      | Sql.Ast.E_bin (_, a, b) -> count_ans a + count_ans b
      | Sql.Ast.E_in_answer _ -> 1
      | _ -> 0
    in
    check int "one answer constraint" 1 (count_ans (Option.get s.Sql.Ast.where))
  | _ -> Alcotest.fail "not a select"

let test_parse_multi_head_entangled () =
  let q =
    "SELECT ('Jerry', fno) INTO ANSWER FlightRes, ('Jerry', hid) INTO ANSWER HotelRes \
     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
     AND hid IN (SELECT hid FROM Hotels WHERE city='Paris') \
     AND ('Kramer', fno) IN ANSWER FlightRes \
     AND ('Kramer', hid) IN ANSWER HotelRes \
     CHOOSE 1"
  in
  match parse q with
  | Sql.Ast.Select s ->
    check int "two heads" 2 (List.length s.Sql.Ast.into_answer);
    let rels = List.map snd s.Sql.Ast.into_answer in
    check bool "relations" true (rels = [ "FlightRes"; "HotelRes" ])
  | _ -> Alcotest.fail "not a select"

let test_parse_same_tuple_two_relations () =
  match parse "SELECT 'J', 5 INTO ANSWER A, ANSWER B CHOOSE 1" with
  | Sql.Ast.Select s ->
    check int "two heads" 2 (List.length s.Sql.Ast.into_answer);
    let t1, r1 = List.nth s.Sql.Ast.into_answer 0 in
    let t2, r2 = List.nth s.Sql.Ast.into_answer 1 in
    check bool "same tuple" true (t1 = t2);
    check bool "rels" true (r1 = "A" && r2 = "B")
  | _ -> Alcotest.fail "not a select"

let test_parse_ddl_dml () =
  (match parse "CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL, c FLOAT)" with
  | Sql.Ast.Create_table { t_columns; t_primary_key; _ } ->
    check int "3 columns" 3 (List.length t_columns);
    check bool "pk from column" true (t_primary_key = [ "a" ])
  | _ -> Alcotest.fail "not create table");
  (match parse "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')" with
  | Sql.Ast.Insert { in_rows; in_columns; _ } ->
    check int "2 rows" 2 (List.length in_rows);
    check bool "columns" true (in_columns = Some [ "a"; "b" ])
  | _ -> Alcotest.fail "not insert");
  (match parse "UPDATE t SET b = 'z', c = c + 1 WHERE a = 1" with
  | Sql.Ast.Update { u_sets; u_where; _ } ->
    check int "2 sets" 2 (List.length u_sets);
    check bool "where" true (u_where <> None)
  | _ -> Alcotest.fail "not update");
  match parse "DELETE FROM t WHERE a <> 2" with
  | Sql.Ast.Delete _ -> ()
  | _ -> Alcotest.fail "not delete"

let test_parse_errors () =
  let bad q =
    match parse q with
    | exception Errors.Db_error (Errors.Parse_error _) -> ()
    | _ -> Alcotest.failf "accepted bad sql: %s" q
  in
  bad "SELECT";
  bad "SELECT 1 FROM";
  bad "SELECT 1 WHERE (1,2) IN (3, 4)";
  bad "CREATE TABLE t (a BOGUSTYPE)";
  bad "SELECT 1; SELECT";  (* parse_one rejects trailing input *)
  bad "FROB 1"

let test_parse_script () =
  let stmts = Sql.Parser.parse_script "SELECT 1; SELECT 2; -- done\n" in
  check int "two statements" 2 (List.length stmts)

(* Round-trip: pretty-print then re-parse gives the same AST. *)
let test_pretty_roundtrip () =
  let queries =
    [
      "SELECT f.fno, dest AS d FROM Flights f WHERE (price < 400) ORDER BY fno DESC LIMIT 2";
      "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE (fno IN (SELECT fno \
       FROM Flights WHERE (dest = 'Paris'))) AND (('Jerry', fno) IN ANSWER \
       Reservation) CHOOSE 1";
      "SELECT count(*), dest FROM Flights GROUP BY dest";
      "INSERT INTO t (a, b) VALUES (1, 'x''y')";
      "UPDATE t SET a = (a + 1) WHERE (b IS NOT NULL)";
      "DELETE FROM t WHERE (a IN (1, 2, 3))";
    ]
  in
  List.iter
    (fun q ->
      let ast1 = parse q in
      let printed = Sql.Pretty.statement_to_string ast1 in
      let ast2 = parse printed in
      if ast1 <> ast2 then
        Alcotest.failf "roundtrip mismatch:\n%s\n->\n%s" q printed)
    queries

(* ---------------- end-to-end execution ---------------- *)

let setup_db () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  let exec sql = Sql.Run.exec_sql session sql in
  ignore (exec "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT NOT NULL, price FLOAT NOT NULL)");
  ignore (exec "CREATE TABLE Airlines (fno INT PRIMARY KEY, airline TEXT NOT NULL)");
  ignore
    (exec
       "INSERT INTO Flights VALUES (122, 'Paris', 300.0), (123, 'Paris', \
        350.0), (134, 'Paris', 400.0), (136, 'Rome', 280.0)");
  ignore
    (exec
       "INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (134, \
        'Lufthansa'), (136, 'Alitalia')");
  session, exec

let rows_of = function
  | Sql.Run.Rows (_, rows) -> rows
  | r -> Alcotest.failf "expected rows, got %s" (Sql.Run.result_to_string r)

let test_exec_select () =
  let _, exec = setup_db () in
  let rows = rows_of (exec "SELECT fno FROM Flights WHERE dest = 'Paris' ORDER BY fno") in
  check int "3 rows" 3 (List.length rows);
  check bool "first is 122" true
    (Value.equal (List.hd rows).(0) (Value.Int 122))

let test_exec_join () =
  let _, exec = setup_db () in
  let rows =
    rows_of
      (exec
         "SELECT f.fno, a.airline FROM Flights f JOIN Airlines a ON f.fno = \
          a.fno WHERE f.dest = 'Paris' AND a.airline = 'United' ORDER BY f.fno")
  in
  check int "2 united paris" 2 (List.length rows)

let test_exec_in_subquery () =
  let _, exec = setup_db () in
  let rows =
    rows_of
      (exec
         "SELECT airline FROM Airlines WHERE fno IN (SELECT fno FROM Flights \
          WHERE dest = 'Paris') ORDER BY airline")
  in
  check int "3 airlines" 3 (List.length rows);
  let rows =
    rows_of
      (exec
         "SELECT airline FROM Airlines WHERE fno NOT IN (SELECT fno FROM \
          Flights WHERE dest = 'Paris')")
  in
  check int "1 airline (rome)" 1 (List.length rows)

let test_exec_aggregates () =
  let _, exec = setup_db () in
  let rows =
    rows_of
      (exec
         "SELECT dest, count(*) AS n, min(price) AS cheapest FROM Flights \
          GROUP BY dest ORDER BY n DESC")
  in
  check int "2 groups" 2 (List.length rows);
  (match rows with
  | paris :: _ ->
    check bool "paris first" true (Value.equal paris.(0) (Value.Str "Paris"));
    check bool "count 3" true (Value.equal paris.(1) (Value.Int 3));
    check bool "min 300" true (Value.equal paris.(2) (Value.Float 300.))
  | [] -> Alcotest.fail "no rows");
  let rows = rows_of (exec "SELECT count(*) FROM Flights") in
  check bool "global count" true (Value.equal (List.hd rows).(0) (Value.Int 4))

let test_exec_update_delete () =
  let _, exec = setup_db () in
  (match exec "UPDATE Flights SET price = price * 2 WHERE dest = 'Paris'" with
  | Sql.Run.Affected 3 -> ()
  | r -> Alcotest.failf "expected 3 affected, got %s" (Sql.Run.result_to_string r));
  let rows = rows_of (exec "SELECT price FROM Flights WHERE fno = 122") in
  check bool "doubled" true (Value.equal (List.hd rows).(0) (Value.Float 600.));
  (match exec "DELETE FROM Flights WHERE dest = 'Rome'" with
  | Sql.Run.Affected 1 -> ()
  | _ -> Alcotest.fail "delete count");
  let rows = rows_of (exec "SELECT count(*) FROM Flights") in
  check bool "3 left" true (Value.equal (List.hd rows).(0) (Value.Int 3))

let test_exec_interactive_txn () =
  let _, exec = setup_db () in
  ignore (exec "BEGIN");
  ignore (exec "DELETE FROM Flights");
  let rows = rows_of (exec "SELECT count(*) FROM Flights") in
  check bool "empty inside txn" true (Value.equal (List.hd rows).(0) (Value.Int 0));
  ignore (exec "ROLLBACK");
  let rows = rows_of (exec "SELECT count(*) FROM Flights") in
  check bool "restored" true (Value.equal (List.hd rows).(0) (Value.Int 4))

let test_exec_insert_with_columns_and_null () =
  let db = Database.create () in
  let session = Sql.Run.make_session db in
  let exec sql = Sql.Run.exec_sql session sql in
  ignore (exec "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)");
  ignore (exec "INSERT INTO t (a) VALUES (1)");
  let rows = rows_of (exec "SELECT b FROM t WHERE a = 1") in
  check bool "b is null" true (Value.is_null (List.hd rows).(0));
  let rows = rows_of (exec "SELECT a FROM t WHERE b IS NULL") in
  check int "is null filter" 1 (List.length rows)

let test_exec_errors () =
  let _, exec = setup_db () in
  let bad sql =
    match exec sql with
    | exception Errors.Db_error _ -> ()
    | r -> Alcotest.failf "accepted %s -> %s" sql (Sql.Run.result_to_string r)
  in
  bad "SELECT nope FROM Flights";
  bad "SELECT * FROM NoSuchTable";
  bad "INSERT INTO Flights VALUES (1)";
  bad "INSERT INTO Flights VALUES (122, 'Dup', 1.0)";
  (* duplicate pk *)
  bad "SELECT fno, count(*) FROM Flights";
  (* not grouped *)
  bad "COMMIT"

let test_exec_explain_and_show () =
  let _, exec = setup_db () in
  (match exec "EXPLAIN SELECT fno FROM Flights WHERE fno = 122" with
  | Sql.Run.Explained text ->
    check bool "mentions index" true
      (String.length text > 0)
  | _ -> Alcotest.fail "explain");
  match exec "SHOW TABLES" with
  | Sql.Run.Ok_msg msg ->
    check bool "lists flights" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "show tables"

(* Keyword lookup pin-down: every reserved word lexes to its uppercase
   KW token in any letter case, and near-miss identifiers stay IDENTs with
   their spelling intact. *)
let test_lexer_keywords () =
  let reserved =
    [
      "SELECT"; "FROM"; "WHERE"; "INTO"; "ANSWER"; "CHOOSE"; "AND"; "OR";
      "NOT"; "IN"; "IS"; "NULL"; "TRUE"; "FALSE"; "AS"; "DISTINCT"; "GROUP";
      "BY"; "ORDER"; "ASC"; "DESC"; "LIMIT"; "CREATE"; "TABLE"; "DROP";
      "INDEX"; "UNIQUE"; "ON"; "PRIMARY"; "KEY"; "INSERT"; "VALUES";
      "UPDATE"; "SET"; "DELETE"; "JOIN"; "INNER"; "CROSS"; "BEGIN"; "COMMIT";
      "ROLLBACK"; "EXPLAIN"; "SHOW"; "TABLES"; "PENDING"; "HAVING"; "LEFT";
      "OUTER"; "UNION"; "INTERSECT"; "EXCEPT"; "ALL"; "BETWEEN"; "LIKE";
      "VIEW"; "ANALYZE"; "THEN"; "DECREMENT";
    ]
  in
  let lex1 src =
    match Array.to_list (Sql.Lexer.tokenize src).Sql.Lexer.tokens with
    | [ (tok, _); (Sql.Token.EOF, _) ] -> tok
    | _ -> Alcotest.failf "%S should lex to one token" src
  in
  check Alcotest.(list string) "keyword set"
    (List.sort compare reserved)
    (List.sort compare Sql.Token.keywords);
  List.iter
    (fun kw ->
      List.iter
        (fun spelling ->
          match lex1 spelling with
          | Sql.Token.KW k when k = kw -> ()
          | _ -> Alcotest.failf "%S should lex as keyword %s" spelling kw)
        [
          kw;
          String.lowercase_ascii kw;
          String.capitalize_ascii (String.lowercase_ascii kw);
        ])
    reserved;
  List.iter
    (fun id ->
      match lex1 id with
      | Sql.Token.IDENT s when s = id -> ()
      | _ -> Alcotest.failf "%S should lex as an identifier" id)
    [
      "Flights"; "fno"; "selects"; "_from"; "Answers"; "then_"; "keys"; "x1";
      "counT";
    ]

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer keywords" `Quick test_lexer_keywords;
    Alcotest.test_case "parse select shape" `Quick test_parse_select_shape;
    Alcotest.test_case "parse join folds ON" `Quick test_parse_join_folds_on;
    Alcotest.test_case "parse paper entangled query" `Quick test_parse_entangled_paper_query;
    Alcotest.test_case "parse multi-head entangled" `Quick test_parse_multi_head_entangled;
    Alcotest.test_case "parse same tuple two relations" `Quick
      test_parse_same_tuple_two_relations;
    Alcotest.test_case "parse ddl/dml" `Quick test_parse_ddl_dml;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse script" `Quick test_parse_script;
    Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "exec select" `Quick test_exec_select;
    Alcotest.test_case "exec join" `Quick test_exec_join;
    Alcotest.test_case "exec IN subquery" `Quick test_exec_in_subquery;
    Alcotest.test_case "exec aggregates" `Quick test_exec_aggregates;
    Alcotest.test_case "exec update/delete" `Quick test_exec_update_delete;
    Alcotest.test_case "exec interactive txn" `Quick test_exec_interactive_txn;
    Alcotest.test_case "exec insert columns/null" `Quick
      test_exec_insert_with_columns_and_null;
    Alcotest.test_case "exec errors" `Quick test_exec_errors;
    Alcotest.test_case "exec explain/show" `Quick test_exec_explain_and_show;
  ]
