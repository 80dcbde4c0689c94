(* Tests for Schema, Tuple, Expr, Index, Table, Catalog. *)

open Relational

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let vt = Alcotest.testable Value.pp Value.equal
let tup = Alcotest.testable Tuple.pp Tuple.equal

let flights_schema () =
  Schema.make ~primary_key:[ 0 ] "Flights"
    [
      Schema.column "fno" Ctype.TInt;
      Schema.column "dest" Ctype.TText;
      Schema.column ~nullable:true "price" Ctype.TFloat;
    ]

let v_int i = Value.Int i
let v_str s = Value.Str s

(* ---------------- Schema ---------------- *)

let test_schema_lookup () =
  let s = flights_schema () in
  check int "arity" 3 (Schema.arity s);
  check int "fno at 0" 0 (Schema.column_index s "fno");
  check int "case-insensitive" 1 (Schema.column_index s "DEST");
  check bool "missing" true (Schema.find_column s "nope" = None)

let test_schema_duplicate_column () =
  match
    Schema.make "T" [ Schema.column "a" Ctype.TInt; Schema.column "A" Ctype.TInt ]
  with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "expected duplicate-column rejection"

let test_schema_nullable_pk_rejected () =
  match
    Schema.make ~primary_key:[ 0 ] "T"
      [ Schema.column ~nullable:true "a" Ctype.TInt ]
  with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "expected nullable-PK rejection"

let test_check_row () =
  let s = flights_schema () in
  let row =
    Schema.check_row s [| v_int 1; v_str "Paris"; Value.Int 300 |]
  in
  (* price column widens ints to float *)
  check vt "widened" (Value.Float 300.) row.(2);
  (match Schema.check_row s [| Value.Null; v_str "x"; Value.Null |] with
  | exception Errors.Db_error (Errors.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "null in non-nullable column accepted");
  match Schema.check_row s [| v_int 1; v_str "x" |] with
  | exception Errors.Db_error (Errors.Schema_error _) -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* ---------------- Expr ---------------- *)

let test_expr_three_valued_logic () =
  let null = Expr.Const Value.Null in
  let t = Expr.Const (Value.Bool true) in
  let f = Expr.Const (Value.Bool false) in
  let eval e = Expr.eval [||] e in
  check vt "null AND false = false" (Value.Bool false)
    (eval (Expr.Binop (Expr.And, null, f)));
  check vt "null AND true = null" Value.Null
    (eval (Expr.Binop (Expr.And, null, t)));
  check vt "null OR true = true" (Value.Bool true)
    (eval (Expr.Binop (Expr.Or, null, t)));
  check vt "null OR false = null" Value.Null
    (eval (Expr.Binop (Expr.Or, null, f)));
  check vt "null = null is null" Value.Null
    (eval (Expr.Binop (Expr.Eq, null, null)));
  check vt "is null" (Value.Bool true) (eval (Expr.Unop (Expr.Is_null, null)));
  check bool "holds rejects null" false
    (Expr.holds [||] (Expr.Binop (Expr.Eq, null, Expr.Const (v_int 1))))

let test_expr_eval_row () =
  let row = [| v_int 10; v_str "Paris" |] in
  let e =
    Expr.Binop
      ( Expr.And,
        Expr.Binop (Expr.Gt, Expr.Col 0, Expr.Const (v_int 5)),
        Expr.Binop (Expr.Eq, Expr.Col 1, Expr.Const (v_str "Paris")) )
  in
  check bool "holds" true (Expr.holds row e)

let test_expr_resolve () =
  let lookup q n =
    match q, n with
    | None, "fno" -> Some 0
    | Some "f", "dest" -> Some 1
    | _ -> None
  in
  let e =
    Expr.resolve lookup
      (Expr.Binop (Expr.Eq, Expr.Named (None, "fno"), Expr.Named (Some "f", "dest")))
  in
  check bool "resolved" true (e = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 1));
  match Expr.resolve lookup (Expr.Named (None, "bogus")) with
  | exception Errors.Db_error (Errors.No_such_column _) -> ()
  | _ -> Alcotest.fail "unresolved column accepted"

let test_expr_conjuncts_and_fold () =
  let a = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Const (v_int 1)) in
  let b = Expr.Binop (Expr.Lt, Expr.Col 1, Expr.Const (v_int 2)) in
  let c = Expr.conjoin [ a; b ] in
  check int "2 conjuncts" 2 (List.length (Expr.conjuncts c));
  let folded =
    Expr.const_fold
      (Expr.Binop (Expr.Add, Expr.Const (v_int 2), Expr.Const (v_int 3)))
  in
  check bool "folded" true (folded = Expr.Const (v_int 5))

let test_expr_in_tuples () =
  let set = Tuple.Set.of_list [ [| v_int 1; v_str "a" |]; [| v_int 2; v_str "b" |] ] in
  let e anti = Expr.In_tuples ([ Expr.Col 0; Expr.Col 1 ], set, anti) in
  check vt "member" (Value.Bool true) (Expr.eval [| v_int 1; v_str "a" |] (e false));
  check vt "not member" (Value.Bool false)
    (Expr.eval [| v_int 9; v_str "a" |] (e false));
  check vt "anti" (Value.Bool true) (Expr.eval [| v_int 9; v_str "a" |] (e true));
  check vt "null lhs is null" Value.Null
    (Expr.eval [| Value.Null; v_str "a" |] (e false))

(* ---------------- Table & Index ---------------- *)

let make_flights () =
  let t = Table.create (flights_schema ()) in
  List.iter
    (fun (f, d, p) ->
      ignore (Table.insert t [| v_int f; v_str d; Value.Float p |]))
    [ 122, "Paris", 300.; 123, "Paris", 350.; 134, "Paris", 400.; 136, "Rome", 280. ];
  t

let test_table_insert_lookup () =
  let t = make_flights () in
  check int "rows" 4 (Table.row_count t);
  (match Table.lookup_pk t [| v_int 123 |] with
  | Some id ->
    check tup "pk row" [| v_int 123; v_str "Paris"; Value.Float 350. |]
      (Table.get_exn t id)
  | None -> Alcotest.fail "pk lookup failed");
  check bool "absent pk" true (Table.lookup_pk t [| v_int 999 |] = None)

let test_table_pk_violation () =
  let t = make_flights () in
  (match Table.insert t [| v_int 122; v_str "Oslo"; Value.Null |] with
  | exception Errors.Db_error (Errors.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "duplicate pk accepted");
  (* failed insert must not leak a slot or index entry *)
  check int "rows unchanged" 4 (Table.row_count t);
  check bool "index unchanged" true
    (Table.lookup_pk t [| v_int 122 |] <> None)

let test_table_delete_update () =
  let t = make_flights () in
  let id = Option.get (Table.lookup_pk t [| v_int 136 |]) in
  let old = Table.delete t id in
  check tup "deleted row" [| v_int 136; v_str "Rome"; Value.Float 280. |] old;
  check int "rows after delete" 3 (Table.row_count t);
  check bool "pk gone" true (Table.lookup_pk t [| v_int 136 |] = None);
  (* slot reuse *)
  let id2 = Table.insert t [| v_int 200; v_str "Oslo"; Value.Float 100. |] in
  check int "slot reused" id id2;
  (* update rewrites indexes *)
  ignore (Table.update t id2 [| v_int 201; v_str "Oslo"; Value.Float 100. |]);
  check bool "old key gone" true (Table.lookup_pk t [| v_int 200 |] = None);
  check bool "new key present" true (Table.lookup_pk t [| v_int 201 |] <> None)

let test_secondary_index () =
  let t = make_flights () in
  let _ix = Table.create_index t "by_dest" [| 1 |] in
  let ids = Table.lookup_eq t [| 1 |] [| v_str "Paris" |] in
  check int "3 paris flights" 3 (List.length ids);
  (* index is maintained under mutation *)
  let id = Option.get (Table.lookup_pk t [| v_int 122 |]) in
  ignore (Table.delete t id);
  check int "2 after delete" 2
    (List.length (Table.lookup_eq t [| 1 |] [| v_str "Paris" |]));
  ignore (Table.insert t [| v_int 150; v_str "Paris"; Value.Null |]);
  check int "3 after insert" 3
    (List.length (Table.lookup_eq t [| 1 |] [| v_str "Paris" |]))

let test_unique_secondary_index_backfill_conflict () =
  let t = make_flights () in
  match Table.create_index ~unique:true t "uniq_dest" [| 1 |] with
  | exception Errors.Db_error (Errors.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "unique index over duplicate data accepted"

let test_catalog () =
  let cat = Catalog.create () in
  let _ = Catalog.create_table cat (flights_schema ()) in
  check bool "mem case-insensitive" true (Catalog.mem cat "FLIGHTS");
  (match Catalog.create_table cat (flights_schema ()) with
  | exception Errors.Db_error (Errors.Duplicate_table _) -> ()
  | _ -> Alcotest.fail "duplicate table accepted");
  Catalog.drop_table cat "flights";
  check bool "dropped" false (Catalog.mem cat "Flights")

(* ---------------- property tests ---------------- *)

let row_gen =
  QCheck.Gen.(
    map
      (fun (f, d, p) ->
        [|
          Value.Int f;
          Value.Str d;
          (match p with None -> Value.Null | Some x -> Value.Float x);
        |])
      (triple small_signed_int (string_size (int_bound 6))
         (option (float_bound_inclusive 100.))))

let prop_insert_delete_roundtrip =
  QCheck.Test.make ~name:"insert then delete restores row count" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 30) row_gen))
    (fun rows ->
      let t =
        Table.create
          (Schema.make "T"
             [
               Schema.column "a" Ctype.TInt;
               Schema.column "b" Ctype.TText;
               Schema.column ~nullable:true "c" Ctype.TFloat;
             ])
      in
      let ids = List.map (Table.insert t) rows in
      let before = Table.row_count t in
      if before <> List.length rows then false
      else begin
        List.iter (fun id -> ignore (Table.delete t id)) ids;
        Table.row_count t = 0
      end)

let prop_index_agrees_with_scan =
  QCheck.Test.make ~name:"index lookup agrees with full scan" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) row_gen))
    (fun rows ->
      let t =
        Table.create
          (Schema.make "T"
             [
               Schema.column "a" Ctype.TInt;
               Schema.column "b" Ctype.TText;
               Schema.column ~nullable:true "c" Ctype.TFloat;
             ])
      in
      List.iter (fun r -> ignore (Table.insert t r)) rows;
      let scan_result key =
        Table.fold
          (fun acc id r ->
            if Value.equal r.(1) key then id :: acc else acc)
          [] t
        |> List.sort Stdlib.compare
      in
      let probe = [ Value.Str ""; Value.Str "a"; Value.Str "zz" ] in
      let without_index =
        List.map (fun k -> scan_result k) probe
      in
      ignore (Table.create_index t "by_b" [| 1 |]);
      let with_index =
        List.map
          (fun k -> List.sort Stdlib.compare (Table.lookup_eq t [| 1 |] [| k |]))
          probe
      in
      without_index = with_index)

(* Mutation's index targeting against the full scan it replaces: a table
   with a primary key and a non-unique secondary index, a random predicate
   (equalities mixed with OR, ranges, NULL constants and Int/Float key
   overlap such as [id = 2.0]), and a random UPDATE or DELETE.  The scan
   reference is the pre-index algorithm, run on an identical table: both
   must report the same outcome and leave the same rows. *)

let mut_schema () =
  Schema.make ~primary_key:[ 0 ] "M"
    [
      Schema.column "id" Ctype.TInt;
      Schema.column ~nullable:true "k" Ctype.TInt;
      Schema.column "v" Ctype.TInt;
    ]

let mut_table rows =
  let t = Table.create (mut_schema ()) in
  ignore (Table.create_index t "by_k" [| 1 |]);
  List.iter (fun r -> ignore (Table.insert t r)) rows;
  t

let mut_const =
  QCheck.Gen.(
    frequency
      [
        6, map (fun i -> Value.Int i) (int_range (-1) 12);
        2, map (fun i -> Value.Float (float_of_int i)) (int_range 0 12);
        1, return (Value.Float 2.5);
        1, return Value.Null;
      ])

let mut_pred =
  QCheck.Gen.(
    let col = int_bound 2 in
    let atom =
      frequency
        [
          5,
          map2
            (fun c v -> Expr.Binop (Expr.Eq, Expr.Col c, Expr.Const v))
            col mut_const;
          1,
          map2
            (fun c v -> Expr.Binop (Expr.Eq, Expr.Const v, Expr.Col c))
            col mut_const;
          2,
          map3
            (fun c op v -> Expr.Binop (op, Expr.Col c, Expr.Const v))
            col
            (oneofl [ Expr.Lt; Expr.Leq; Expr.Gt; Expr.Geq; Expr.Neq ])
            mut_const;
        ]
    in
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then atom
           else
             frequency
               [
                 2, atom;
                 3, map2 (fun a b -> Expr.Binop (Expr.And, a, b)) (self (n - 1))
                      (self (n - 1));
                 1, map2 (fun a b -> Expr.Binop (Expr.Or, a, b)) (self (n - 1))
                      (self (n - 1));
               ]))

(* [None] deletes; [Some assignments] updates (the PK shift can collide) *)
let mut_action =
  QCheck.Gen.oneofl
    [
      None;
      Some [ (2, Expr.Binop (Expr.Add, Expr.Col 2, Expr.Const (Value.Int 1))) ];
      Some [ (1, Expr.Binop (Expr.Add, Expr.Col 1, Expr.Const (Value.Int 1))) ];
      Some [ (1, Expr.Const Value.Null) ];
      Some [ (0, Expr.Binop (Expr.Add, Expr.Col 0, Expr.Const (Value.Int 2))) ];
    ]

let mut_rows =
  QCheck.Gen.(
    map
      (fun cells ->
        List.mapi
          (fun i (k, v) ->
            [|
              Value.Int i;
              (match k with None -> Value.Null | Some k -> Value.Int k);
              Value.Int v;
            |])
          cells)
      (list_size (int_bound 14) (pair (opt (int_bound 4)) (int_bound 9))))

(* the scan the index targeting replaced *)
let scan_matching table pred =
  Table.fold
    (fun acc row_id row ->
      if match pred with None -> true | Some p -> Expr.holds row p then
        (row_id, row) :: acc
      else acc)
    [] table

let scan_mutate txn table action pred =
  let targets = scan_matching table pred in
  (match action with
  | None -> List.iter (fun (id, _) -> ignore (Txn.delete txn table id)) targets
  | Some assignments ->
    List.iter
      (fun (id, row) ->
        let updated = Array.copy row in
        List.iter (fun (i, e) -> updated.(i) <- Expr.eval row e) assignments;
        ignore (Txn.update txn table id updated))
      targets);
  List.length targets

let run_mutation f table =
  let mgr = Txn.create_manager () in
  let outcome =
    match Txn.with_txn mgr (fun txn -> f txn table) with
    | n -> Ok n
    | exception Errors.Db_error _ -> Error ()
  in
  (outcome, Table.fold (fun acc id row -> (id, row) :: acc) [] table)

let prop_mutation_index_targeting =
  QCheck.Test.make ~name:"index-targeted UPDATE/DELETE equal a full scan"
    ~count:500
    (QCheck.make
       ~print:(fun (rows, pred, action) ->
         Printf.sprintf "rows=[%s] where %s %s"
           (String.concat "; " (List.map Tuple.to_string rows))
           (Expr.to_string pred)
           (match action with None -> "DELETE" | Some _ -> "UPDATE"))
       QCheck.Gen.(triple mut_rows mut_pred mut_action))
    (fun (rows, pred, action) ->
      let pred = Some pred in
      let indexed =
        run_mutation
          (fun txn t ->
            match action with
            | None -> Mutation.delete_where txn t pred
            | Some a -> Mutation.update_where txn t a pred)
          (mut_table rows)
      in
      let scanned =
        run_mutation
          (fun txn t -> scan_mutate txn t action pred)
          (mut_table rows)
      in
      let same (o1, r1) (o2, r2) =
        o1 = o2
        && List.length r1 = List.length r2
        && List.for_all2 (fun (i, a) (j, b) -> i = j && Tuple.equal a b) r1 r2
      in
      same indexed scanned)

let suite =
  [
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema duplicate column" `Quick test_schema_duplicate_column;
    Alcotest.test_case "schema nullable pk" `Quick test_schema_nullable_pk_rejected;
    Alcotest.test_case "check_row" `Quick test_check_row;
    Alcotest.test_case "expr 3-valued logic" `Quick test_expr_three_valued_logic;
    Alcotest.test_case "expr eval row" `Quick test_expr_eval_row;
    Alcotest.test_case "expr resolve" `Quick test_expr_resolve;
    Alcotest.test_case "expr conjuncts/fold" `Quick test_expr_conjuncts_and_fold;
    Alcotest.test_case "expr in_tuples" `Quick test_expr_in_tuples;
    Alcotest.test_case "table insert/lookup" `Quick test_table_insert_lookup;
    Alcotest.test_case "table pk violation" `Quick test_table_pk_violation;
    Alcotest.test_case "table delete/update" `Quick test_table_delete_update;
    Alcotest.test_case "secondary index" `Quick test_secondary_index;
    Alcotest.test_case "unique index backfill conflict" `Quick
      test_unique_secondary_index_backfill_conflict;
    Alcotest.test_case "catalog" `Quick test_catalog;
    QCheck_alcotest.to_alcotest prop_insert_delete_roundtrip;
    QCheck_alcotest.to_alcotest prop_index_agrees_with_scan;
    QCheck_alcotest.to_alcotest prop_mutation_index_targeting;
  ]
