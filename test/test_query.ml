(* Tests for Plan / Executor / Planner on a small flight database. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_float f = Value.Float f

(* Figure 1(a) of the paper plus a prices/airlines extension. *)
let make_db () =
  let cat = Catalog.create () in
  let flights =
    Catalog.create_table cat
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [
           Schema.column "fno" Ctype.TInt;
           Schema.column "dest" Ctype.TText;
           Schema.column "price" Ctype.TFloat;
         ])
  in
  List.iter
    (fun (f, d, p) -> ignore (Table.insert flights [| v_int f; v_str d; v_float p |]))
    [ 122, "Paris", 300.; 123, "Paris", 350.; 134, "Paris", 400.; 136, "Rome", 280. ];
  let airlines =
    Catalog.create_table cat
      (Schema.make ~primary_key:[ 0 ] "Airlines"
         [ Schema.column "fno" Ctype.TInt; Schema.column "airline" Ctype.TText ])
  in
  List.iter
    (fun (f, a) -> ignore (Table.insert airlines [| v_int f; v_str a |]))
    [ 122, "United"; 123, "United"; 134, "Lufthansa"; 136, "Alitalia" ];
  cat

let scan cat name = Plan.scan (Catalog.find cat name) ~alias:name

let test_scan_filter_project () =
  let cat = make_db () in
  let plan =
    Plan.project
      [ Expr.Col 0, "fno" ]
      (Plan.filter
         (Expr.Binop (Expr.Eq, Expr.Col 1, Expr.Const (v_str "Paris")))
         (scan cat "Flights"))
  in
  let rows = Executor.run cat plan in
  check int "3 paris flights" 3 (List.length rows);
  check bool "all fnos" true
    (List.map (fun r -> r.(0)) rows = [ v_int 122; v_int 123; v_int 134 ])

let test_nl_and_hash_join_agree () =
  let cat = make_db () in
  let pred = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 3) in
  let nl = Plan.nl_join ~pred (scan cat "Flights") (scan cat "Airlines") in
  let hash =
    Plan.hash_join ~left_keys:[| 0 |] ~right_keys:[| 0 |] (scan cat "Flights")
      (scan cat "Airlines")
  in
  let sort rows = List.sort Tuple.compare rows in
  check int "nl join rows" 4 (List.length (Executor.run cat nl));
  check bool "same result" true
    (sort (Executor.run cat nl) = sort (Executor.run cat hash))

let test_hash_join_null_keys_never_match () =
  let cat = Catalog.create () in
  let t =
    Catalog.create_table cat
      (Schema.make "L" [ Schema.column ~nullable:true "k" Ctype.TInt ])
  in
  ignore (Table.insert t [| Value.Null |]);
  ignore (Table.insert t [| v_int 1 |]);
  let r =
    Catalog.create_table cat
      (Schema.make "R" [ Schema.column ~nullable:true "k" Ctype.TInt ])
  in
  ignore (Table.insert r [| Value.Null |]);
  ignore (Table.insert r [| v_int 1 |]);
  let plan =
    Plan.hash_join ~left_keys:[| 0 |] ~right_keys:[| 0 |]
      (Plan.scan t ~alias:"L") (Plan.scan r ~alias:"R")
  in
  check int "only non-null key matches" 1 (List.length (Executor.run cat plan))

let test_aggregate () =
  let cat = make_db () in
  let plan =
    Plan.aggregate
      ~group_by:[ Expr.Col 1 ]
      ~aggs:
        [
          Plan.Count_star, "n";
          Plan.Sum (Expr.Col 2), "total";
          Plan.Min (Expr.Col 2), "cheapest";
          Plan.Avg (Expr.Col 2), "mean";
        ]
      (scan cat "Flights")
  in
  let rows = Executor.run cat plan in
  check int "two destinations" 2 (List.length rows);
  let paris = List.find (fun r -> Value.equal r.(0) (v_str "Paris")) rows in
  check bool "count" true (Value.equal paris.(1) (v_int 3));
  check bool "sum" true (Value.equal paris.(2) (v_float 1050.));
  check bool "min" true (Value.equal paris.(3) (v_float 300.));
  check bool "avg" true (Value.equal paris.(4) (v_float 350.))

let test_aggregate_empty_input () =
  let cat = make_db () in
  let plan =
    Plan.aggregate ~group_by:[]
      ~aggs:[ Plan.Count_star, "n"; Plan.Sum (Expr.Col 0), "s" ]
      (Plan.filter (Expr.Const (Value.Bool false)) (scan cat "Flights"))
  in
  match Executor.run cat plan with
  | [ row ] ->
    check bool "count 0" true (Value.equal row.(0) (v_int 0));
    check bool "sum null" true (Value.is_null row.(1))
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_sort_distinct_limit () =
  let cat = make_db () in
  let sorted =
    Executor.run cat
      (Plan.sort [ Expr.Col 2, Plan.Desc ] (scan cat "Flights"))
  in
  check bool "desc by price" true
    (List.map (fun r -> r.(0)) sorted = [ v_int 134; v_int 123; v_int 122; v_int 136 ]);
  let dests =
    Executor.run cat
      (Plan.distinct (Plan.project [ Expr.Col 1, "dest" ] (scan cat "Flights")))
  in
  check int "distinct dests" 2 (List.length dests);
  let limited = Executor.run cat (Plan.limit 2 (scan cat "Flights")) in
  check int "limit 2" 2 (List.length limited)

let test_index_lookup_plan () =
  let cat = make_db () in
  let flights = Catalog.find cat "Flights" in
  let plan =
    Plan.index_lookup flights ~alias:"f" ~positions:[| 0 |] ~key:[| v_int 123 |]
  in
  match Executor.run cat plan with
  | [ row ] -> check bool "row 123" true (Value.equal row.(0) (v_int 123))
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

(* ---------------- planner ---------------- *)

let plan_and_run cat sources where =
  let plan = Planner.plan_joins sources where in
  plan, Executor.run cat plan

let test_planner_single_source_pushdown () =
  let cat = make_db () in
  let src = Planner.make_source "f" (Catalog.find cat "Flights") in
  let where = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Const (v_int 122)) in
  let plan, rows = plan_and_run cat [ src ] where in
  check int "one row" 1 (List.length rows);
  (* equality on the PK must become an index lookup *)
  let explained = Plan.explain plan in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec loop i =
      if i + nn > nh then false
      else String.sub haystack i nn = needle || loop (i + 1)
    in
    loop 0
  in
  check bool "uses index" true (contains explained "index_lookup")

let test_planner_join_restores_column_order () =
  let cat = make_db () in
  (* Airlines first, Flights second: the planner may reorder, but output
     columns must stay in source order. *)
  let sources =
    [
      Planner.make_source "a" (Catalog.find cat "Airlines");
      Planner.make_source "f" (Catalog.find cat "Flights");
    ]
  in
  (* a.fno = f.fno AND f.dest = 'Paris' AND a.airline = 'United' *)
  let where =
    Expr.conjoin
      [
        Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2);
        Expr.Binop (Expr.Eq, Expr.Col 3, Expr.Const (v_str "Paris"));
        Expr.Binop (Expr.Eq, Expr.Col 1, Expr.Const (v_str "United"));
      ]
  in
  let _, rows = plan_and_run cat sources where in
  check int "2 united paris flights" 2 (List.length rows);
  List.iter
    (fun r ->
      check bool "col 0 is a.fno (int)" true (not (Value.is_null r.(0)));
      check bool "airline col" true (Value.equal r.(1) (v_str "United"));
      check bool "dest col" true (Value.equal r.(3) (v_str "Paris"));
      check bool "join key equal" true (Value.equal r.(0) r.(2)))
    rows

let test_planner_cross_join () =
  let cat = make_db () in
  let sources =
    [
      Planner.make_source "f1" (Catalog.find cat "Flights");
      Planner.make_source "f2" (Catalog.find cat "Flights");
    ]
  in
  let _, rows = plan_and_run cat sources (Expr.Const (Value.Bool true)) in
  check int "cartesian 16" 16 (List.length rows)

let test_planner_three_table_chain () =
  let cat = make_db () in
  (* third relation keyed by airline *)
  let lounges =
    Catalog.create_table cat
      (Schema.make ~primary_key:[ 0 ] "Lounges"
         [ Schema.column "airline" Ctype.TText; Schema.column "terminal" Ctype.TInt ])
  in
  List.iter
    (fun (a, t) -> ignore (Table.insert lounges [| v_str a; v_int t |]))
    [ "United", 1; "Lufthansa", 2 ];
  let sources =
    [
      Planner.make_source "f" (Catalog.find cat "Flights");
      Planner.make_source "a" (Catalog.find cat "Airlines");
      Planner.make_source "l" lounges;
    ]
  in
  (* f.fno = a.fno AND a.airline = l.airline AND f.dest = 'Paris' *)
  let where =
    Expr.conjoin
      [
        Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 3);
        Expr.Binop (Expr.Eq, Expr.Col 4, Expr.Col 5);
        Expr.Binop (Expr.Eq, Expr.Col 1, Expr.Const (v_str "Paris"));
      ]
  in
  let plan = Planner.plan_joins sources where in
  let rows = Executor.run cat plan in
  (* 3 paris flights, all with lounges (united x2, lufthansa x1) *)
  check int "three rows" 3 (List.length rows);
  List.iter
    (fun r ->
      check bool "chain consistent" true
        (Value.equal r.(0) r.(3) && Value.equal r.(4) r.(5));
      check bool "7 columns" true (Array.length r = 7))
    rows

let test_planner_no_source () =
  let cat = make_db () in
  let _, rows = plan_and_run cat [] (Expr.Const (Value.Bool true)) in
  check int "one empty row" 1 (List.length rows)

(* Property: planner result = naive nested-loop result on random predicates. *)
let prop_planner_equivalent_to_naive =
  QCheck.Test.make ~name:"planner equivalent to naive join" ~count:60
    QCheck.(pair (int_range 0 400) (int_range 0 3))
    (fun (price_bound, _salt) ->
      let cat = make_db () in
      let sources =
        [
          Planner.make_source "f" (Catalog.find cat "Flights");
          Planner.make_source "a" (Catalog.find cat "Airlines");
        ]
      in
      let where =
        Expr.conjoin
          [
            Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 3);
            Expr.Binop
              (Expr.Lt, Expr.Col 2, Expr.Const (v_float (float_of_int price_bound)));
          ]
      in
      let planned =
        Executor.run cat (Planner.plan_joins sources where)
        |> List.sort Tuple.compare
      in
      let naive =
        Executor.run cat
          (Plan.filter where
             (Plan.nl_join
                (scan cat "Flights")
                (scan cat "Airlines")))
        |> List.sort Tuple.compare
      in
      planned = naive)

let suite =
  [
    Alcotest.test_case "scan/filter/project" `Quick test_scan_filter_project;
    Alcotest.test_case "nl vs hash join" `Quick test_nl_and_hash_join_agree;
    Alcotest.test_case "hash join null keys" `Quick test_hash_join_null_keys_never_match;
    Alcotest.test_case "aggregate" `Quick test_aggregate;
    Alcotest.test_case "aggregate empty input" `Quick test_aggregate_empty_input;
    Alcotest.test_case "sort/distinct/limit" `Quick test_sort_distinct_limit;
    Alcotest.test_case "index lookup plan" `Quick test_index_lookup_plan;
    Alcotest.test_case "planner pushdown to index" `Quick test_planner_single_source_pushdown;
    Alcotest.test_case "planner restores column order" `Quick
      test_planner_join_restores_column_order;
    Alcotest.test_case "planner cross join" `Quick test_planner_cross_join;
    Alcotest.test_case "planner 3-table chain" `Quick test_planner_three_table_chain;
    Alcotest.test_case "planner no source" `Quick test_planner_no_source;
    QCheck_alcotest.to_alcotest prop_planner_equivalent_to_naive;
  ]
