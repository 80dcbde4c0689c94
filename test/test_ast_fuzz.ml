(* Random AST fuzzing: generate random expression and SELECT ASTs, print
   them with Sql.Pretty, re-parse, and require structural equality.  The
   pretty-printer parenthesises fully, so this checks that printer and
   parser agree on every construct — a much stronger guarantee than the
   fixed-string roundtrips elsewhere in the suite. *)

open Relational

(* identifiers that can never collide with keywords *)
let ident_gen =
  QCheck.Gen.(
    map (fun i -> Printf.sprintf "col%d" i) (int_bound 4))

let table_gen =
  QCheck.Gen.(map (fun i -> Printf.sprintf "tab%d" i) (int_bound 2))

(* Values whose printed form re-parses as the same single literal token:
   non-negative ints and floats (a leading minus re-parses as negation),
   short strings, booleans, NULL.  Floats range over every finite
   non-negative value: integral ones (which must keep their point to
   re-lex as FLOAT), ones that need all 17 digits, huge and subnormal
   ones. *)
let float_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> float_of_int i) (int_bound 1000);
        map (fun i -> float_of_int i +. 0.5) (int_bound 10);
        map (fun (a, b) -> float_of_int a /. float_of_int (b + 1)) (pair small_nat small_nat);
        map
          (fun bits ->
            let f = Float.abs (Int64.float_of_bits bits) in
            if Float.is_finite f then f else 0.1 +. 0.2)
          int64;
        oneofl [ 0.1 +. 0.2; 99.12342; 1e15; 1e16; 1e20; 5e-324; Float.max_float ];
      ])

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_bound 20);
        map (fun f -> Value.Float f) float_gen;
        map (fun s -> Value.Str s)
          (oneofl [ ""; "a"; "it's"; "x y"; "100%"; "quo\"te" ]);
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
      ])

let rec expr_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun v -> Sql.Ast.E_lit v) value_gen;
        map (fun c -> Sql.Ast.E_col (None, c)) ident_gen;
        map2 (fun t c -> Sql.Ast.E_col (Some t, c)) table_gen ident_gen;
      ]
  else
    let sub = expr_gen (depth - 1) in
    frequency
      [
        3, map (fun v -> Sql.Ast.E_lit v) value_gen;
        3, map (fun c -> Sql.Ast.E_col (None, c)) ident_gen;
        2, map (fun e -> Sql.Ast.E_neg e) sub;
        2, map (fun e -> Sql.Ast.E_not e) sub;
        2, map2 (fun e b -> Sql.Ast.E_is_null (e, b)) sub bool;
        ( 4,
          map3
            (fun op a b -> Sql.Ast.E_bin (op, a, b))
            (oneofl
               Expr.
                 [
                   Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Leq; Gt; Geq; And;
                   Or; Concat;
                 ])
            sub sub );
        ( 2,
          map3
            (fun a b negated -> Sql.Ast.E_like (a, b, negated))
            sub sub bool );
        ( 2,
          map2
            (fun e vs -> Sql.Ast.E_in_values (e, vs))
            sub
            (list_size (int_range 1 3) (map (fun v -> Sql.Ast.E_lit v) value_gen)) );
        ( 2,
          map2
            (fun f args -> Sql.Ast.E_func (f, args))
            (oneofl [ "lower"; "upper"; "length"; "abs"; "coalesce" ])
            (list_size (int_range 1 2) sub) );
      ]

let select_gen =
  let open QCheck.Gen in
  let item =
    oneof
      [
        return Sql.Ast.S_star;
        map2
          (fun e a -> Sql.Ast.S_expr (e, a))
          (expr_gen 2)
          (opt ident_gen);
      ]
  in
  let from_item =
    map2
      (fun t a -> Sql.Ast.{ f_source = F_table t; f_alias = a })
      table_gen (opt ident_gen)
  in
  map3
    (fun items from (where, order, limit) ->
      {
        Sql.Ast.empty_select with
        Sql.Ast.items;
        from;
        where;
        order_by = order;
        limit;
      })
    (list_size (int_range 1 3) item)
    (list_size (int_range 0 2) from_item)
    (triple (opt (expr_gen 2))
       (list_size (int_bound 2)
          (pair (expr_gen 1) (oneofl [ Plan.Asc; Plan.Desc ])))
       (opt (int_bound 50)))

(* Aliased FROM items must not collide with keywords or each other for the
   roundtrip to be parseable; our generators only make safe names. *)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expression pretty/parse roundtrip" ~count:500
    (QCheck.make ~print:Sql.Pretty.expr_to_string (expr_gen 3))
    (fun e ->
      let printed = Sql.Pretty.expr_to_string e in
      match Sql.Parser.parse_expression printed with
      | parsed -> parsed = e
      | exception Errors.Db_error k ->
        QCheck.Test.fail_reportf "did not re-parse: %s\n%s" printed
          (Errors.kind_to_string k))

let prop_select_roundtrip =
  QCheck.Test.make ~name:"select pretty/parse roundtrip" ~count:300
    (QCheck.make
       ~print:(fun s -> Sql.Pretty.statement_to_string (Sql.Ast.Select s))
       select_gen)
    (fun s ->
      let printed = Sql.Pretty.statement_to_string (Sql.Ast.Select s) in
      match Sql.Parser.parse_one printed with
      | Sql.Ast.Select parsed -> parsed = s
      | _ -> false
      | exception Errors.Db_error k ->
        QCheck.Test.fail_reportf "did not re-parse: %s\n%s" printed
          (Errors.kind_to_string k))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_select_roundtrip;
  ]
