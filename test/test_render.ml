(* Byte-identity of the buffer renderers against the Fmt/Printf reference
   in [Render_oracle]: SQL text, plain-SQL result sets, wire messages and
   WAL records.  Plus a totality property for the SQL front end and an
   allocation budget for the request path's text artifacts. *)

open Relational

(* ---------------- generators ---------------- *)

(* Text with every byte the codecs and renderers treat specially. *)
let text_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ ""; "a"; "it's"; "x|y"; "100%"; "a;b,c"; "line\nbreak\r"; "%7C" ];
        string_size ~gen:(oneofl [ 'a'; 'Z'; '\''; '|'; '%'; ';'; ','; '\n'; '\r'; ' ' ])
          (int_bound 12);
        string_size ~gen:printable (int_range 60 120);
      ])

let float_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> float_of_int i) (int_range (-1000) 1000);
        map (fun i -> float_of_int i +. 0.5) (int_bound 100);
        oneofl [ 0.1 +. 0.2; 99.12342; -0.0; 1e20; 1.7976931348623157e308; 5e-324; Float.infinity ];
        float;
      ])

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float_gen;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Str s) text_gen;
      ])

let tuple_gen = QCheck.Gen.(map Array.of_list (list_size (int_range 0 6) value_gen))
let name_gen = QCheck.Gen.oneofl [ "Flights"; "T"; "a|b"; "x;y"; "100%"; "n,m" ]

(* A SELECT with every clause filled in, nested to [depth]: the renderers
   need not produce parseable text here, only the same text. *)
let rec wide_select_gen depth =
  let open QCheck.Gen in
  let expr = Test_ast_fuzz.expr_gen 2 in
  let ident = Test_ast_fuzz.ident_gen in
  let table = Test_ast_fuzz.table_gen in
  let small l = list_size (int_range 0 2) l in
  let sub =
    if depth = 0 then return Sql.Ast.empty_select else wide_select_gen (depth - 1)
  in
  let from_item =
    map3
      (fun t s a ->
        Sql.Ast.{ f_source = (if depth = 0 then F_table t else F_subquery s); f_alias = a })
      table sub (opt ident)
  in
  let effect =
    oneof
      [
        map2 (fun t es -> Sql.Ast.Fx_insert (t, es)) table (small expr);
        map3
          (fun t set where -> Sql.Ast.Fx_update { fx_table = t; fx_set = set; fx_where = where })
          table (small (pair ident expr)) (small (pair ident expr));
        map3
          (fun t c where -> Sql.Ast.Fx_decrement { fx_table = t; fx_column = c; fx_where = where })
          table ident (small (pair ident expr));
      ]
  in
  let conds =
    map3
      (fun a b (c, d) -> [ Sql.Ast.E_in_answer (a, b); c; d ])
      (small expr) name_gen
      (pair
         (map3 (fun es n s -> Sql.Ast.E_in_select (es, n, s)) (small expr) bool sub)
         (map (fun i -> Sql.Ast.E_param i) (int_bound 3)))
  in
  map
    (fun ( (distinct, items, heads, from),
           (left_joins, where, fulfilment, group_by),
           (having, order_by, limit, choose),
           (setop, extra) ) ->
      {
        Sql.Ast.distinct;
        items;
        into_answer = heads;
        from;
        left_joins;
        where =
          Option.map
            (fun w -> List.fold_left (fun acc c -> Sql.Ast.E_bin (Expr.And, acc, c)) w extra)
            where;
        fulfilment;
        group_by;
        having;
        order_by;
        limit;
        choose;
        setop;
      })
    (quad
       (quad bool
          (small
             (oneof
                [
                  return Sql.Ast.S_star;
                  map2 (fun e a -> Sql.Ast.S_expr (e, a)) expr (opt ident);
                ]))
          (small (pair (small expr) name_gen))
          (small from_item))
       (quad (small (pair from_item expr)) (opt expr) (small effect) (small expr))
       (quad (opt expr)
          (small (pair expr (oneofl [ Plan.Asc; Plan.Desc ])))
          (opt (int_bound 50))
          (opt (int_bound 5)))
       (pair
          (opt
             (triple
                (oneofl [ Plan.Union; Plan.Intersect; Plan.Except ])
                bool sub))
          conds))

let statement_gen =
  let open QCheck.Gen in
  let sel = wide_select_gen 1 in
  let expr = Test_ast_fuzz.expr_gen 2 in
  let ident = Test_ast_fuzz.ident_gen in
  let names = list_size (int_range 1 3) ident in
  let column =
    map3
      (fun n t nullable -> Sql.Ast.{ c_name = n; c_type = t; c_nullable = nullable; c_primary = false })
      ident
      (oneofl Ctype.[ TInt; TFloat; TBool; TText ])
      bool
  in
  oneof
    [
      map (fun s -> Sql.Ast.Select s) sel;
      map3
        (fun n cols pk -> Sql.Ast.Create_table { t_name = n; t_columns = cols; t_primary_key = pk })
        name_gen (list_size (int_range 1 3) column)
        (list_size (int_bound 2) ident);
      map2 (fun n q -> Sql.Ast.Create_table_as { cta_name = n; cta_query = q }) name_gen sel;
      map2 (fun n q -> Sql.Ast.Create_view { v_name = n; v_query = q }) name_gen sel;
      map (fun n -> Sql.Ast.Drop_view n) name_gen;
      map (fun n -> Sql.Ast.Drop_table n) name_gen;
      map3
        (fun (n, t) cols u ->
          Sql.Ast.Create_index { i_name = n; i_table = t; i_columns = cols; i_unique = u })
        (pair ident name_gen) names bool;
      map3
        (fun t cols rows ->
          Sql.Ast.Insert { in_table = t; in_columns = cols; in_rows = rows; in_select = None })
        name_gen (opt names)
        (list_size (int_range 1 3) (list_size (int_range 1 3) expr));
      map2
        (fun t s ->
          Sql.Ast.Insert { in_table = t; in_columns = None; in_rows = []; in_select = Some s })
        name_gen sel;
      map3
        (fun t sets w -> Sql.Ast.Update { u_table = t; u_sets = sets; u_where = w })
        name_gen (list_size (int_range 1 3) (pair ident expr)) (opt expr);
      map2 (fun t w -> Sql.Ast.Delete { d_table = t; d_where = w }) name_gen (opt expr);
      map (fun s -> Sql.Ast.Explain (Sql.Ast.Select s)) sel;
      map (fun s -> Sql.Ast.Explain_analyze s) sel;
      map (fun t -> Sql.Ast.Analyze t) name_gen;
      oneofl
        Sql.Ast.[ Show_tables; Show_pending; Begin_txn; Commit_txn; Rollback_txn ];
    ]

(* ---------------- SQL text ---------------- *)

let same ~what expected actual =
  String.equal expected actual
  || QCheck.Test.fail_reportf "%s differs:\nreference %S\nrenderer  %S" what expected actual

let prop_pretty_expr =
  QCheck.Test.make ~name:"Pretty.expr_to_string = reference" ~count:500
    (QCheck.make (Test_ast_fuzz.expr_gen 3))
    (fun e ->
      same ~what:"expression" (Render_oracle.Pretty.expr_to_string e)
        (Sql.Pretty.expr_to_string e))

let prop_pretty_select =
  QCheck.Test.make ~name:"Pretty.select_to_string = reference" ~count:300
    (QCheck.make QCheck.Gen.(oneof [ Test_ast_fuzz.select_gen; wide_select_gen 2 ]))
    (fun s ->
      same ~what:"select" (Render_oracle.Pretty.select_to_string s)
        (Sql.Pretty.select_to_string s))

let prop_pretty_statement =
  QCheck.Test.make ~name:"Pretty.statement_to_string = reference" ~count:300
    (QCheck.make statement_gen)
    (fun st ->
      same ~what:"statement" (Render_oracle.Pretty.statement_to_string st)
        (Sql.Pretty.statement_to_string st)
      && same ~what:"formatter wrapper"
           (Sql.Pretty.statement_to_string st)
           (Fmt.str "%a" Sql.Pretty.statement st))

(* ---------------- result sets ---------------- *)

let result_gen =
  let open QCheck.Gen in
  oneof
    [
      ( int_range 1 8 >>= fun arity ->
        map2
          (fun names rows ->
            let schema =
              Schema.make "R"
                (List.mapi (fun i n -> Schema.column (n ^ string_of_int i) Ctype.TText) names)
            in
            Sql.Run.Rows (schema, rows))
          (list_repeat arity
             (oneofl [ "id"; "val"; "a|b"; "x y"; "it's"; "a_rather_long_column_name_0123456789" ]))
          (list_size (int_range 0 5)
             (map Array.of_list (list_repeat arity value_gen))) );
      map (fun n -> Sql.Run.Affected n) small_nat;
      map (fun m -> Sql.Run.Ok_msg m) text_gen;
      map (fun m -> Sql.Run.Explained m) text_gen;
    ]

let prop_result_to_string =
  QCheck.Test.make ~name:"Run.result_to_string = reference" ~count:500
    (QCheck.make result_gen)
    (fun r ->
      same ~what:"result" (Render_oracle.result_to_string r)
        (Sql.Run.result_to_string r))

let test_empty_result () =
  let schema = Schema.make "R" [ Schema.column "a" Ctype.TInt; Schema.column "b" Ctype.TInt ] in
  Alcotest.(check string) "blank line for no rows" "a | b\n\n(0 row(s))"
    (Sql.Run.result_to_string (Sql.Run.Rows (schema, [])))

let prop_tuple_to_string =
  QCheck.Test.make ~name:"Tuple.to_string and Value.pp = reference" ~count:500
    (QCheck.make tuple_gen)
    (fun t ->
      same ~what:"tuple" (Fmt.str "%a" Render_oracle.tuple_pp t) (Tuple.to_string t)
      && same ~what:"tuple formatter" (Tuple.to_string t) (Fmt.str "%a" Tuple.pp t)
      && Array.for_all
           (fun v ->
             same ~what:"value" (Fmt.str "%a" Render_oracle.value_pp v)
               (Fmt.str "%a" Value.pp v))
           t)

(* ---------------- WAL records ---------------- *)

let schema_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun arity ->
  map3
    (fun name cols pk ->
      let pk = List.filter (fun k -> k < arity) pk in
      Schema.make ~primary_key:pk name
        (List.mapi
           (fun i (n, t, nullable) ->
             Schema.column
               ~nullable:(nullable && not (List.mem i pk))
               (n ^ string_of_int i) t)
           cols))
    name_gen
    (list_repeat arity
       (triple
          (oneofl [ "id"; "a,b"; "p%"; "x|y"; "c;d" ])
          (oneofl Ctype.[ TInt; TFloat; TBool; TText ])
          bool))
    (oneofl [ []; [ 0 ]; [ 0; 1 ] ])

let record_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun s -> Wal.Create_table s) schema_gen;
      map (fun n -> Wal.Drop_table n) name_gen;
      map2 (fun n t -> Wal.Insert (n, t)) name_gen tuple_gen;
      map2 (fun n t -> Wal.Delete (n, t)) name_gen tuple_gen;
      map3 (fun n o t -> Wal.Update (n, o, t)) name_gen tuple_gen tuple_gen;
      map (fun i -> Wal.Commit i) nat;
      map (fun i -> Wal.Lsn_base i) nat;
    ]

let prop_wal_record =
  QCheck.Test.make ~name:"Wal.encode_record = reference" ~count:500
    (QCheck.make record_gen)
    (fun r ->
      same ~what:"record" (Render_oracle.Wal.encode_record r) (Wal.encode_record r)
      &&
      match r with
      | Wal.Insert (_, t) ->
        same ~what:"tuple" (Render_oracle.Wal.encode_tuple t) (Wal.encode_tuple t)
      | Wal.Create_table s ->
        same ~what:"schema" (Render_oracle.Wal.encode_schema s) (Wal.encode_schema s)
      | _ -> true)

(* ---------------- wire messages ---------------- *)

let notification_gen =
  let open QCheck.Gen in
  map3
    (fun (qid, owner) (label, group) answers ->
      { Core.Events.query_id = qid; owner; label; group; answers })
    (pair nat text_gen)
    (pair
       (oneof [ text_gen; return "SELECT 'a|b', x INTO ANSWER R WHERE x IN (1, 2); -- 100%\n" ])
       (list_size (int_bound 3) nat))
    (list_size (int_bound 3) (pair name_gen tuple_gen))

let rec body_gen depth =
  let open QCheck.Gen in
  let leaves =
    [
      map (fun s -> Net.Wire.Sql_result s) text_gen;
      map (fun i -> Net.Wire.Registered i) nat;
      map (fun n -> Net.Wire.Answered n) notification_gen;
      map (fun m -> Net.Wire.Rejected m) text_gen;
      map (fun s -> Net.Wire.Listing s) text_gen;
    ]
  in
  if depth = 0 then oneof leaves
  else
    oneof
      (map (fun bs -> Net.Wire.Multi bs) (list_size (int_bound 3) (body_gen (depth - 1)))
      :: leaves)

let response_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun v b -> Net.Wire.Welcome { version = v; banner = b }) small_nat text_gen;
      map2 (fun id b -> Net.Wire.Result { id; body = b }) nat (body_gen 2);
      map2 (fun id m -> Net.Wire.Error { id; message = m }) nat text_gen;
      map2 (fun id p -> Net.Wire.Pong { id; payload = p }) nat text_gen;
      map2 (fun id b -> Net.Wire.Stats { id; body = b }) nat text_gen;
      map (fun n -> Net.Wire.Push n) notification_gen;
      map3
        (fun (lsn, seq) last data -> Net.Wire.Snapshot_chunk { lsn; seq; last; data })
        (pair nat nat) bool text_gen;
      map3
        (fun (lsn, sent_at_us) last records -> Net.Wire.Wal_recs { lsn; sent_at_us; last; records })
        (pair nat nat) bool text_gen;
      map2
        (fun id n -> Net.Wire.Result { id; body = Net.Wire.Sql_result (String.make n 'x') })
        nat (int_range 4000 4200);
    ]

let request_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun v u -> Net.Wire.Hello { version = v; user = u }) small_nat text_gen;
      map2 (fun id sql -> Net.Wire.Submit { id; sql }) nat text_gen;
      map2 (fun id q -> Net.Wire.Cancel { id; query_id = q }) nat nat;
      map2 (fun id w -> Net.Wire.Admin { id; what = w }) nat text_gen;
      map2 (fun id p -> Net.Wire.Ping { id; payload = p }) nat text_gen;
      return Net.Wire.Bye;
      map3
        (fun v r l -> Net.Wire.Replica_hello { version = v; replica_id = r; last_lsn = l })
        small_nat text_gen nat;
      map (fun l -> Net.Wire.Repl_ack { lsn = l }) nat;
    ]

let prop_wire_response =
  QCheck.Test.make ~name:"Wire.encode_response = reference" ~count:500
    (QCheck.make response_gen)
    (fun r ->
      same ~what:"response" (Render_oracle.Wire.encode_response r)
        (Net.Wire.encode_response r)
      && Option.equal String.equal
           (Render_oracle.Wire.encode_response_raw r)
           (Net.Wire.encode_response_raw r)
      &&
      match r with
      | Net.Wire.Push n ->
        same ~what:"notification" (Render_oracle.Wire.encode_notification n)
          (Net.Wire.encode_notification n)
      | Net.Wire.Result { body; _ } ->
        same ~what:"body" (Render_oracle.Wire.encode_body body) (Net.Wire.encode_body body)
      | _ -> true)

let prop_wire_request =
  QCheck.Test.make ~name:"Wire.encode_request = reference" ~count:300
    (QCheck.make request_gen)
    (fun r ->
      same ~what:"request" (Render_oracle.Wire.encode_request r)
        (Net.Wire.encode_request r))

(* ---------------- front-end totality ---------------- *)

(* Arbitrary bytes, and soups of SQL fragments that get deeper into the
   parser, either parse or fail with a typed parse error. *)
let sql_soup_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:char (int_bound 40);
        map (String.concat " ")
          (list_size (int_range 1 25)
             (oneofl
                [
                  "SELECT"; "FROM"; "WHERE"; "INTO"; "ANSWER"; "CHOOSE"; "IN"; "NOT";
                  "AND"; "OR"; "("; ")"; ","; "."; "*"; ";"; "="; "<>"; "<="; "||";
                  "?"; "1"; "2.5"; "1e"; "'s'"; "'"; "x"; "T"; "INSERT"; "VALUES";
                  "CREATE"; "TABLE"; "VIEW"; "AS"; "INT"; "PRIMARY"; "KEY"; "THEN";
                  "UPDATE"; "SET"; "DECREMENT"; "JOIN"; "LEFT"; "ON"; "GROUP"; "BY";
                  "UNION"; "ALL"; "EXPLAIN"; "ANALYZE"; "BETWEEN"; "LIKE"; "IS";
                  "NULL"; "--"; "\n"; "99999999999999999999"; "1e999"; "!"; "|";
                ]));
      ])

let prop_parse_total =
  QCheck.Test.make ~name:"parse_script is total" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") sql_soup_gen)
    (fun src ->
      match Sql.Parser.parse_script src with
      | _ -> true
      | exception Errors.Db_error (Errors.Parse_error _) -> true
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" src (Printexc.to_string e))

(* ---------------- allocation budget ---------------- *)

(* Minor words per call of each request-path stage, measured on the pair
   statement perfbench submits.  Allocation is deterministic in native
   code, so the budget is 1.25x this tree's count: a Format or Printf
   creeping back into one of these paths breaks it.  EXPERIMENTS.md
   records the counts before and after the buffer renderers. *)
let pair_sql =
  "SELECT 'alice', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM \
   Flights WHERE dest = 'Paris') AND ('bob', fno) IN ANSWER FlightRes CHOOSE 1"

let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let n = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let stages () =
  let select =
    match Sql.Parser.parse_one pair_sql with
    | Sql.Ast.Select s -> s
    | _ -> assert false
  in
  let label = Sql.Pretty.select_to_string select in
  let push =
    Net.Wire.Push
      {
        Core.Events.query_id = 4242;
        owner = "alice";
        label;
        group = [ 4242; 4241 ];
        answers = [ ("FlightRes", [| Value.Str "alice"; Value.Int 122 |]) ];
      }
  in
  let insert =
    Wal.Insert
      ( "Flights",
        [|
          Value.Int 100123; Value.Str "Lima"; Value.Str "Atlantis"; Value.Int 1017;
          Value.Float 99.0; Value.Int 4;
        |] )
  in
  let one_row =
    Sql.Run.Rows
      (Schema.make "Items" [ Schema.column "val" Ctype.TInt ], [ [| Value.Int 2247 |] ])
  in
  [
    ("parse pair statement", (fun () -> Obj.repr (Sql.Parser.parse_one pair_sql)));
    ("render its label", (fun () -> Obj.repr (Sql.Pretty.select_to_string select)));
    ("encode its PUSH frame", (fun () -> Obj.repr (Net.Wire.encode_response push)));
    ("encode a Flights insert record", (fun () -> Obj.repr (Wal.encode_record insert)));
    ("render a one-row result", (fun () -> Obj.repr (Sql.Run.result_to_string one_row)));
  ]

(* minor words per call with the buffer renderers (x86-64, OCaml 5.1,
   native); the Format/Printf renderers took 867, 1737, 488, 181 and
   1000.  The coordination rows took 2839, 151 and 1000 before the
   supplier check, the changed-table list and stored bucket keys. *)
let budget =
  [
    ("parse pair statement", 779.);
    ("render its label", 161.);
    ("encode its PUSH frame", 156.);
    ("encode a Flights insert record", 76.);
    ("render a one-row result", 64.);
    ("park a pair half", 1412.);
    ("poke with nothing changed", 24.);
    ("pending add + remove of a pair query", 597.);
  ]

(* Coordination stages on the travel dataset the wire benchmarks serve:
   parking the first half of a pair (its partner has not arrived, so the
   supplier check dismisses it before grounding), a poke with nothing
   changed since the last one, and indexing then dropping one pair query
   in the pending store. *)
let coordination_stages () =
  let sys =
    Travel.Datagen.make_system ~seed:1 ~n_flights:32 ~n_hotels:16 ()
  in
  let coord = Youtopia.System.coordinator sys in
  let q =
    Core.Translate.of_sql (Youtopia.System.catalog sys) ~owner:"alice"
      pair_sql
  in
  ignore (Core.Coordinator.poke coord);
  let store = Core.Pending.create () in
  let stored = Core.Equery.freshen ~id:1 q in
  [
    ("park a pair half", (fun () -> Obj.repr (Core.Coordinator.submit coord q)));
    ("poke with nothing changed", (fun () -> Obj.repr (Core.Coordinator.poke coord)));
    ( "pending add + remove of a pair query",
      fun () ->
        Core.Pending.add store stored;
        Core.Pending.remove store 1;
        Obj.repr () );
  ]

let test_alloc_budget () =
  let over =
    List.filter_map
      (fun (name, f) ->
        let words = words_per_call f in
        let allowed = 1.25 *. List.assoc name budget in
        if words > allowed then
          Some (Printf.sprintf "%s: %.0f minor words per call, budget %.0f" name words allowed)
        else None)
      (stages () @ coordination_stages ())
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pretty_expr;
    QCheck_alcotest.to_alcotest prop_pretty_select;
    QCheck_alcotest.to_alcotest prop_pretty_statement;
    QCheck_alcotest.to_alcotest prop_result_to_string;
    Alcotest.test_case "empty result keeps its blank line" `Quick test_empty_result;
    QCheck_alcotest.to_alcotest prop_tuple_to_string;
    QCheck_alcotest.to_alcotest prop_wal_record;
    QCheck_alcotest.to_alcotest prop_wire_response;
    QCheck_alcotest.to_alcotest prop_wire_request;
    QCheck_alcotest.to_alcotest prop_parse_total;
    Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
  ]
