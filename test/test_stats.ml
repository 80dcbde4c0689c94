(* Tests for table statistics and their use by the planner. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let make_table () =
  let t =
    Table.create
      (Schema.make ~primary_key:[ 0 ] "T"
         [
           Schema.column "id" Ctype.TInt;
           Schema.column "category" Ctype.TText;
           Schema.column ~nullable:true "score" Ctype.TFloat;
         ])
  in
  for i = 1 to 100 do
    ignore
      (Table.insert t
         [|
           Value.Int i;
           Value.Str (if i mod 2 = 0 then "even" else "odd");
           (if i mod 10 = 0 then Value.Null else Value.Float (float_of_int i));
         |])
  done;
  t

let test_collect () =
  let t = make_table () in
  let stats = Tablestats.collect t in
  check int "rows" 100 stats.Tablestats.rows;
  check int "id distinct" 100 stats.Tablestats.columns.(0).Tablestats.distinct;
  check int "category distinct" 2 stats.Tablestats.columns.(1).Tablestats.distinct;
  check int "score nulls" 10 stats.Tablestats.columns.(2).Tablestats.nulls;
  check int "score distinct" 90 stats.Tablestats.columns.(2).Tablestats.distinct;
  check bool "id min" true
    (stats.Tablestats.columns.(0).Tablestats.min_value = Some (Value.Int 1));
  check bool "id max" true
    (stats.Tablestats.columns.(0).Tablestats.max_value = Some (Value.Int 100))

let test_selectivity_and_estimates () =
  let t = make_table () in
  let stats = Tablestats.get t in
  check bool "pk selectivity" true
    (Float.abs (Tablestats.eq_selectivity stats 0 -. 0.01) < 1e-9);
  check bool "category selectivity" true
    (Float.abs (Tablestats.eq_selectivity stats 1 -. 0.5) < 1e-9);
  check int "eq filter on pk ~ 1 row" 1 (Tablestats.estimate_eq_filter t [ 0 ]);
  check int "eq filter on category ~ 50 rows" 50
    (Tablestats.estimate_eq_filter t [ 1 ]);
  check int "combined selectivity" 1 (Tablestats.estimate_eq_filter t [ 0; 1 ])

let test_cache_invalidation () =
  let t = make_table () in
  let s1 = Tablestats.get t in
  let s1' = Tablestats.get t in
  check bool "cached object reused" true (s1 == s1');
  ignore (Table.insert t [| Value.Int 101; Value.Str "even"; Value.Null |]);
  let s2 = Tablestats.get t in
  check int "refreshed after insert" 101 s2.Tablestats.rows;
  (* Same name, same version, different table: the cache must not serve
     the old table's statistics, whether the name was dropped and
     recreated or lives in another database of the same process. *)
  let make db values =
    let t =
      Database.create_table db
        (Schema.make "Recreated" [ Schema.column "x" Ctype.TInt ])
    in
    List.iter (fun v -> ignore (Table.insert t [| Value.Int v |])) values;
    t
  in
  let ndv t = (Tablestats.get t).Tablestats.columns.(0).Tablestats.distinct in
  let db = Database.create () in
  check int "first table ndv" 3 (ndv (make db [ 1; 2; 3 ]));
  Database.drop_table db "Recreated";
  let recreated = make db [ 5; 5; 5 ] in
  check int "recreated table ndv" 1 (ndv recreated);
  check int "one database's ndv" 3
    (ndv (make (Database.create ()) [ 1; 2; 3 ]));
  let s = Tablestats.get (make (Database.create ()) [ 7; 7; 7 ]) in
  check int "other database's ndv" 1
    s.Tablestats.columns.(0).Tablestats.distinct;
  check bool "other database's max" true
    (s.Tablestats.columns.(0).Tablestats.max_value = Some (Value.Int 7))

let test_planner_uses_selectivity () =
  (* Two same-size tables; the filter on the high-NDV column is far more
     selective, so the planner must start the join from that side. *)
  let cat = Catalog.create () in
  let wide =
    Catalog.create_table cat
      (Schema.make "Wide"
         [ Schema.column "k" Ctype.TInt; Schema.column "v" Ctype.TInt ])
  in
  let narrow =
    Catalog.create_table cat
      (Schema.make "Narrow"
         [ Schema.column "k" Ctype.TInt; Schema.column "v" Ctype.TInt ])
  in
  for i = 1 to 200 do
    (* Wide.v has 200 distinct values; Narrow.v only 2 *)
    ignore (Table.insert wide [| Value.Int i; Value.Int i |]);
    ignore (Table.insert narrow [| Value.Int i; Value.Int (i mod 2) |])
  done;
  let sources =
    [ Planner.make_source "n" narrow; Planner.make_source "w" wide ]
  in
  (* n.k = w.k AND n.v = 1 AND w.v = 7 *)
  let where =
    Expr.conjoin
      [
        Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2);
        Expr.Binop (Expr.Eq, Expr.Col 1, Expr.Const (Value.Int 1));
        Expr.Binop (Expr.Eq, Expr.Col 3, Expr.Const (Value.Int 7));
      ]
  in
  let plan = Planner.plan_joins sources where in
  (* the hash join must build from the (tiny) Wide side: in our left-deep
     plans the first-placed source is the most selective one, so the plan
     explanation lists "scan Wide" before "scan Narrow" *)
  let explained = Plan.explain plan in
  let index_of needle =
    let lh = String.length explained and ln = String.length needle in
    let rec go i =
      if i + ln > lh then -1
      else if String.sub explained i ln = needle then i
      else go (i + 1)
    in
    go 0
  in
  check bool "wide placed first" true
    (index_of "scan Wide" >= 0
    && index_of "scan Narrow" >= 0
    && index_of "scan Wide" < index_of "scan Narrow");
  (* and the result is correct regardless *)
  let rows = Executor.run cat plan in
  check int "one row" 1 (List.length rows)

let prop_distinct_bounded_by_rows =
  QCheck.Test.make ~name:"NDV <= non-null rows" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 50) (option (int_bound 5)))
    (fun values ->
      let t =
        Table.create
          (Schema.make "P" [ Schema.column ~nullable:true "x" Ctype.TInt ])
      in
      List.iter
        (fun v ->
          ignore
            (Table.insert t
               [| (match v with None -> Value.Null | Some i -> Value.Int i) |]))
        values;
      let stats = Tablestats.collect t in
      let c = stats.Tablestats.columns.(0) in
      let non_null = List.length (List.filter Option.is_some values) in
      c.Tablestats.distinct <= non_null
      && c.Tablestats.nulls = List.length values - non_null
      && stats.Tablestats.rows = List.length values)

(* A plan estimating [dest = const] through a non-unique index must not
   rescan the table after it changed: the index's distinct-key count is
   the NDV.  The pair statement over a 5 000-row Flights table, translated
   right after an insert each time, stays within a minor-word budget; a
   per-column rescan allocates a hash table entry per row. *)
let test_index_ndv_without_rescan () =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  ignore (Table.create_index flights "flights_by_dest" [| 1 |]);
  let dest i = Value.Str (Printf.sprintf "city%d" (i mod 50)) in
  for i = 1 to 5000 do
    ignore (Table.insert flights [| Value.Int i; dest i |])
  done;
  check int "estimate from the index" 100
    (Tablestats.estimate_eq_filter flights [ 1 ]);
  let coord = Core.Coordinator.create db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "FlightRes"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let select =
    match
      Sql.Parser.parse_one
        "SELECT 'alice', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno \
         FROM Flights WHERE dest = 'city7') AND ('bob', fno) IN ANSWER \
         FlightRes CHOOSE 1"
    with
    | Sql.Ast.Select s -> s
    | _ -> assert false
  in
  let translate () =
    Core.Translate.of_select db.Database.catalog ~owner:"alice" select
  in
  ignore (translate ());
  let n = 20 in
  let words = ref 0. in
  for i = 1 to n do
    ignore (Table.insert flights [| Value.Int (5000 + i); dest i |]);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (translate ()));
    words := !words +. (Gc.minor_words () -. before)
  done;
  (* 760 words per call on x86-64, OCaml 5.1; the budget is 1.25x that *)
  let per_call = !words /. float_of_int n in
  check bool
    (Printf.sprintf "%.0f minor words per translate, budget 950" per_call)
    true (per_call <= 950.)

let suite =
  [
    Alcotest.test_case "collect" `Quick test_collect;
    Alcotest.test_case "selectivity/estimates" `Quick test_selectivity_and_estimates;
    Alcotest.test_case "cache invalidation" `Quick test_cache_invalidation;
    Alcotest.test_case "planner uses selectivity" `Quick test_planner_uses_selectivity;
    Alcotest.test_case "index NDV: no rescan after a change" `Quick
      test_index_ndv_without_rescan;
    QCheck_alcotest.to_alcotest prop_distinct_bounded_by_rows;
  ]
