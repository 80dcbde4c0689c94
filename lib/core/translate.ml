(** The query compiler of Figure 2: translate a parsed entangled SELECT into
    the coordination IR ({!Equery}).

    Entangled queries are conjunctive: the WHERE clause must be a conjunction
    of
    - [x̄ IN (SELECT …)] — a database atom; the subquery must be *closed*
      (plain SQL over database relations; it is compiled with the ordinary
      planner and evaluated during matching),
    - [ē IN ANSWER R] — an answer constraint,
    - [e IN (v1, …, vn)] — a finite domain (compiled to a constant-table
      database atom),
    - scalar comparisons over variables, constants, and arithmetic.

    Free column names are logic variables — there is no FROM clause in an
    entangled query; all database access goes through IN (SELECT …) atoms,
    exactly as in the paper's Section 2.1 example. *)

open Relational

let err fmt = Format.kasprintf (fun m -> Errors.fail (Errors.Parse_error m)) fmt

let rec term_of_expr (e : Sql.Ast.expr) : Term.t =
  match e with
  | Sql.Ast.E_lit v -> Term.Const v
  | Sql.Ast.E_col (None, x) -> Term.Var x
  | Sql.Ast.E_col (Some q, x) ->
    err "qualified column %s.%s in an entangled query (variables are bare names)" q x
  | Sql.Ast.E_neg inner -> (
    match term_of_expr inner with
    | Term.Const v -> Term.Const (Value.neg v)
    | Term.Var _ -> err "negation of a variable is not a term")
  | _ ->
    err "entangled heads and IN tuples take only constants and variables, got %s"
      (Sql.Pretty.expr_to_string e)

let rec texpr_of_expr (e : Sql.Ast.expr) : Term.texpr =
  match e with
  | Sql.Ast.E_bin (Expr.Add, a, b) -> Term.Add (texpr_of_expr a, texpr_of_expr b)
  | Sql.Ast.E_bin (Expr.Sub, a, b) -> Term.Sub (texpr_of_expr a, texpr_of_expr b)
  | Sql.Ast.E_bin (Expr.Mul, a, b) -> Term.Mul (texpr_of_expr a, texpr_of_expr b)
  | e -> Term.T (term_of_expr e)

let cmp_of_binop : Expr.binop -> Term.cmp option = function
  | Expr.Eq -> Some Term.Ceq
  | Expr.Neq -> Some Term.Cneq
  | Expr.Lt -> Some Term.Clt
  | Expr.Leq -> Some Term.Cleq
  | Expr.Gt -> Some Term.Cgt
  | Expr.Geq -> Some Term.Cgeq
  | _ -> None

let rec conjuncts (e : Sql.Ast.expr) =
  match e with
  | Sql.Ast.E_bin (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(** Lower a [THEN …] clause to the IR side effect it denotes.  Effect
    expressions are terms over the query's coordination variables, grounded
    by the match's substitution inside the fulfilment transaction. *)
let side_effect_of_fulfilment (fx : Sql.Ast.fulfilment_effect) :
    Equery.side_effect =
  let pins = List.map (fun (c, e) -> c, term_of_expr e) in
  match fx with
  | Sql.Ast.Fx_insert (table, es) ->
    Equery.Sf_insert (table, Array.of_list (List.map term_of_expr es))
  | Sql.Ast.Fx_update { fx_table; fx_set; fx_where } ->
    Equery.Sf_update
      {
        table = fx_table;
        set = List.map (fun (c, e) -> c, texpr_of_expr e) fx_set;
        where_eq = pins fx_where;
      }
  | Sql.Ast.Fx_decrement { fx_table; fx_column; fx_where } ->
    Equery.Sf_decrement
      { table = fx_table; column = fx_column; where_eq = pins fx_where }

(** [of_select cat ~owner s] — compile one entangled SELECT. *)
let of_select (cat : Catalog.t) ~owner ?(label = "")
    ?(side_effects = []) (s : Sql.Ast.select) : Equery.t =
  if s.Sql.Ast.into_answer = [] then
    err "not an entangled query: missing INTO ANSWER clause";
  if s.Sql.Ast.from <> [] then
    err
      "entangled queries have no FROM clause; use IN (SELECT ...) atoms for \
       database access";
  if s.Sql.Ast.distinct then err "DISTINCT is not meaningful on an entangled query";
  if s.Sql.Ast.group_by <> [] then err "GROUP BY is not allowed in an entangled query";
  if s.Sql.Ast.order_by <> [] then err "ORDER BY is not allowed in an entangled query";
  if s.Sql.Ast.limit <> None then err "LIMIT is not allowed in an entangled query (use CHOOSE)";
  if s.Sql.Ast.left_joins <> [] then err "LEFT JOIN is not allowed in an entangled query";
  if s.Sql.Ast.having <> None then err "HAVING is not allowed in an entangled query";
  if s.Sql.Ast.setop <> None then
    err "UNION/INTERSECT/EXCEPT are not allowed in an entangled query";
  let heads =
    List.map
      (fun (exprs, rel) -> Atom.make rel (List.map term_of_expr exprs))
      s.Sql.Ast.into_answer
  in
  let db_atoms = ref [] in
  let ans_atoms = ref [] in
  let preds = ref [] in
  let eq_bindings = ref [] in
  let handle_conjunct (e : Sql.Ast.expr) =
    match e with
    | Sql.Ast.E_in_select (lhs, false, sub) ->
      if Sql.Ast.is_entangled (Sql.Ast.Select sub) then
        err "nested entangled subquery";
      let binding = Array.of_list (List.map term_of_expr lhs) in
      let plan = Sql.Compile.compile_select cat sub in
      db_atoms :=
        { Equery.binding; plan; source = Sql.Pretty.select_to_string sub }
        :: !db_atoms
    | Sql.Ast.E_in_select (_, true, _) ->
      err "NOT IN (SELECT ...) is not allowed in an entangled query"
    | Sql.Ast.E_in_answer (lhs, rel) ->
      ans_atoms := Atom.make rel (List.map term_of_expr lhs) :: !ans_atoms
    | Sql.Ast.E_in_values (lhs, values) ->
      let term = term_of_expr lhs in
      let constants =
        List.map
          (fun v ->
            match term_of_expr v with
            | Term.Const c -> c
            | Term.Var _ -> err "IN list must contain constants")
          values
      in
      let ty =
        match List.find_map Ctype.of_value constants with
        | Some t -> t
        | None -> Ctype.TText
      in
      let schema = Schema.anonymous ~name:"<domain>" [ "v", ty ] in
      let plan = Plan.values schema (List.map (fun c -> [| c |]) constants) in
      db_atoms :=
        {
          Equery.binding = [| term |];
          plan;
          source =
            "VALUES " ^ String.concat ", " (List.map Value.to_string constants);
        }
        :: !db_atoms
    | Sql.Ast.E_bin (op, a, b) -> (
      match cmp_of_binop op with
      | None ->
        err "entangled queries are conjunctive; %s is not allowed"
          (Expr.binop_to_string op)
      | Some cmp -> (
        (* Var = const pins the variable; everything else is a predicate. *)
        match cmp, a, b with
        | Term.Ceq, Sql.Ast.E_col (None, x), Sql.Ast.E_lit v
        | Term.Ceq, Sql.Ast.E_lit v, Sql.Ast.E_col (None, x) ->
          eq_bindings := (x, v) :: !eq_bindings
        | _ ->
          preds :=
            { Term.op = cmp; lhs = texpr_of_expr a; rhs = texpr_of_expr b }
            :: !preds))
    | Sql.Ast.E_not _ -> err "NOT is not allowed in an entangled query"
    | Sql.Ast.E_is_null _ -> err "IS NULL is not allowed in an entangled query"
    | e ->
      err "unsupported entangled WHERE conjunct: %s"
        (Sql.Pretty.expr_to_string e)
  in
  (match s.Sql.Ast.where with
  | None -> ()
  | Some w -> List.iter handle_conjunct (conjuncts w));
  let side_effects =
    side_effects
    @ List.map side_effect_of_fulfilment s.Sql.Ast.fulfilment
  in
  Equery.make ~label ~preds:(List.rev !preds)
    ~eq_bindings:(List.rev !eq_bindings)
    ~choose:(Option.value ~default:1 s.Sql.Ast.choose)
    ~side_effects ~owner ~heads
    ~db_atoms:(List.rev !db_atoms)
    ~ans_atoms:(List.rev !ans_atoms) ()

(** [of_sql cat ~owner sql] — parse and compile entangled SQL text.  The SQL
    text itself becomes the query's label (visible in the admin interface). *)
let of_sql cat ~owner ?side_effects sql =
  match Sql.Parser.parse_one sql with
  | Sql.Ast.Select s when s.Sql.Ast.into_answer <> [] ->
    of_select cat ~owner ~label:sql ?side_effects s
  | Sql.Ast.Select _ -> err "not an entangled query (no INTO ANSWER clause)"
  | _ -> err "not a SELECT statement"
