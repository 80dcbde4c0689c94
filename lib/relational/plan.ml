(** Physical query plans.

    Every node carries its output schema, computed by the smart constructors
    below; the executor (see {!Executor}) never re-derives types.  All
    expressions inside a plan are fully resolved ([Expr.Col] positions refer
    to the node's input schema). *)

type order = Asc | Desc

type set_kind = Union | Intersect | Except

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type t = { schema : Schema.t; op : op }

and op =
  | Values of Tuple.t list
  | Scan of { table : string }
  | Index_lookup of { table : string; positions : int array; key : Value.t array }
      (** point lookup on an index covering [positions] *)
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Nl_join of { left : t; right : t; pred : Expr.t option }
      (** nested-loop join; [pred] over the concatenated tuple *)
  | Left_join of { left : t; right : t; pred : Expr.t option }
      (** left outer join: unmatched left rows padded with NULLs *)
  | Set_op of { kind : set_kind; all : bool; left : t; right : t }
      (** UNION / INTERSECT / EXCEPT, set semantics unless [all] *)
  | Hash_join of {
      left : t;
      right : t;
      left_keys : int array;
      right_keys : int array;
      residual : Expr.t option;
    }
  | Aggregate of { group_by : Expr.t list; aggs : (agg * string) list; input : t }
  | Sort of (Expr.t * order) list * t
  | Distinct of t
  | Limit of int * t

(* ------------------------------------------------------------------ *)
(* Type inference for projection schemas (best effort, informational). *)

let rec infer_type (schema : Schema.t) (e : Expr.t) : Ctype.t =
  match e with
  | Expr.Const v -> Option.value ~default:Ctype.TText (Ctype.of_value v)
  | Expr.Col i ->
    if i >= 0 && i < Schema.arity schema then
      (Schema.column_at schema i).Schema.col_type
    else Ctype.TText
  | Expr.Named _ -> Ctype.TText
  | Expr.Unop (Expr.Neg, a) -> infer_type schema a
  | Expr.Unop ((Expr.Not | Expr.Is_null | Expr.Is_not_null), _) -> Ctype.TBool
  | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Mod), a, b) -> (
    match infer_type schema a, infer_type schema b with
    | Ctype.TInt, Ctype.TInt -> Ctype.TInt
    | _ -> Ctype.TFloat)
  | Expr.Binop (Expr.Div, _, _) -> Ctype.TFloat
  | Expr.Binop (Expr.Concat, _, _) -> Ctype.TText
  | Expr.Binop
      ( ( Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq
        | Expr.And | Expr.Or ),
        _,
        _ ) -> Ctype.TBool
  | Expr.In_list _ | Expr.In_tuples _ | Expr.Like _ -> Ctype.TBool
  | Expr.Fn ((Expr.Lower | Expr.Upper), _) -> Ctype.TText
  | Expr.Fn (Expr.Length, _) -> Ctype.TInt
  | Expr.Fn (Expr.Abs, [ a ]) -> infer_type schema a
  | Expr.Fn (Expr.Abs, _) -> Ctype.TFloat
  | Expr.Fn (Expr.Coalesce, a :: _) -> infer_type schema a
  | Expr.Fn (Expr.Coalesce, []) -> Ctype.TText

let agg_type schema = function
  | Count_star | Count _ -> Ctype.TInt
  | Sum e | Min e | Max e -> infer_type schema e
  | Avg _ -> Ctype.TFloat

(* ------------------------------------------------------------------ *)
(* Smart constructors. *)

let values schema rows = { schema; op = Values rows }

let scan (table : Table.t) ~alias =
  let schema = Schema.rename (Table.schema table) alias in
  { schema; op = Scan { table = Table.name table } }

let index_lookup (table : Table.t) ~alias ~positions ~key =
  let schema = Schema.rename (Table.schema table) alias in
  { schema; op = Index_lookup { table = Table.name table; positions; key } }

let filter pred input =
  match pred with
  | Expr.Const (Value.Bool true) -> input
  | _ -> { schema = input.schema; op = Filter (pred, input) }

let project items input =
  let cols =
    List.map (fun (e, name) -> name, infer_type input.schema e) items
  in
  { schema = Schema.anonymous cols; op = Project (items, input) }

let join_schema left right =
  let qualify (s : Schema.t) =
    Array.to_list
      (Array.map
         (fun (c : Schema.column) ->
           Schema.
             {
               c with
               col_name =
                 (if s.Schema.name = "" then c.col_name
                  else s.Schema.name ^ "." ^ c.col_name);
             })
         s.Schema.columns)
  in
  Schema.
    {
      name = "<join>";
      columns = Array.of_list (qualify left.schema @ qualify right.schema);
      primary_key = [];
    }

let nl_join ?pred left right =
  { schema = join_schema left right; op = Nl_join { left; right; pred } }

let left_join ?pred left right =
  let schema = join_schema left right in
  (* right side may be NULL-padded *)
  let n_left = Schema.arity left.schema in
  let columns =
    Array.mapi
      (fun i (c : Schema.column) ->
        if i >= n_left then Schema.{ c with nullable = true } else c)
      schema.Schema.columns
  in
  {
    schema = { schema with Schema.columns };
    op = Left_join { left; right; pred };
  }

let set_op kind ?(all = false) left right =
  if Schema.arity left.schema <> Schema.arity right.schema then
    Errors.schema_errorf "set operation over different arities (%d vs %d)"
      (Schema.arity left.schema)
      (Schema.arity right.schema);
  { schema = left.schema; op = Set_op { kind; all; left; right } }

let hash_join ?residual ~left_keys ~right_keys left right =
  if Array.length left_keys <> Array.length right_keys then
    Errors.internalf "hash join key arity mismatch";
  {
    schema = join_schema left right;
    op = Hash_join { left; right; left_keys; right_keys; residual };
  }

let aggregate ~group_by ~aggs input =
  let gcols =
    List.mapi
      (fun i e ->
        let name =
          match e with
          | Expr.Col p when p < Schema.arity input.schema ->
            (Schema.column_at input.schema p).Schema.col_name
          | _ -> Printf.sprintf "group%d" i
        in
        name, infer_type input.schema e)
      group_by
  in
  let acols = List.map (fun (a, name) -> name, agg_type input.schema a) aggs in
  {
    schema = Schema.anonymous (gcols @ acols);
    op = Aggregate { group_by; aggs; input };
  }

(** [project_as schema items input] — projection with an externally supplied
    output schema (used by the planner to restore source order after join
    reordering without losing column names). *)
let project_as schema items input = { schema; op = Project (items, input) }

let sort keys input = { schema = input.schema; op = Sort (keys, input) }
let distinct input = { schema = input.schema; op = Distinct input }

let limit n input =
  if n < 0 then Errors.internalf "negative LIMIT %d" n;
  { schema = input.schema; op = Limit (n, input) }

(* ------------------------------------------------------------------ *)
(* Table footprint. *)

(** [tables t] — the base-table names the plan reads (lowercased, sorted,
    deduplicated).  This is the key set of the coordinator's dirty-table
    retry index: a plan's result can only change when one of these tables
    does. *)
let tables plan =
  let rec walk acc t =
    match t.op with
    | Values _ -> acc
    | Scan { table } | Index_lookup { table; _ } ->
      String.lowercase_ascii table :: acc
    | Filter (_, i) | Project (_, i) | Aggregate { input = i; _ }
    | Sort (_, i) | Distinct i | Limit (_, i) -> walk acc i
    | Nl_join { left; right; _ }
    | Left_join { left; right; _ }
    | Set_op { left; right; _ }
    | Hash_join { left; right; _ } -> walk (walk acc left) right
  in
  List.sort_uniq String.compare (walk [] plan)

(** [constraints t] — one entry per base-table {i access} (Scan or
    Index_lookup) the plan contains: the table name (lowercased), the
    access's output arity, and the equality constraints [(col, const)]
    every row must satisfy to enter that access's output.

    A constraint is collected from a top-level [Col i = Const v] conjunct
    of a Filter that sits above the access through {i position-stable}
    operators only (Filter/Sort/Distinct/Limit — their output schema is
    their input schema, so column positions still name the access's
    columns).  Index_lookup keys contribute directly.  Everything else —
    inequalities, computed expressions, disjunctions, and any predicate
    above a Project/Aggregate/join (whose output positions no longer name
    the access's columns) — contributes nothing: the access is still
    listed, just with fewer (possibly zero) constraints.

    Dropping a constraint only ever {i widens}: the collected list is a
    conjunction of necessary conditions, so a consumer that skips work for
    rows violating a listed constraint is sound, and an access with no
    constraints degrades to "any row of this table".  This is the contract
    the pending store's tuple-level constraint index is built on. *)
let constraints plan =
  let eq_conjuncts pred =
    List.filter_map
      (function
        | Expr.Binop (Expr.Eq, Expr.Col i, Expr.Const v)
        | Expr.Binop (Expr.Eq, Expr.Const v, Expr.Col i) -> Some (i, v)
        | _ -> None)
      (Expr.conjuncts pred)
  in
  let rec walk acc eqs t =
    match t.op with
    | Values _ -> acc
    | Scan { table } ->
      (String.lowercase_ascii table, Schema.arity t.schema, eqs) :: acc
    | Index_lookup { table; positions; key } ->
      let eqs =
        Array.to_list (Array.mapi (fun i p -> p, key.(i)) positions) @ eqs
      in
      (String.lowercase_ascii table, Schema.arity t.schema, eqs) :: acc
    | Filter (pred, i) -> walk acc (eq_conjuncts pred @ eqs) i
    | Sort (_, i) | Distinct i | Limit (_, i) -> walk acc eqs i
    (* position-unstable: constraints collected above cannot be pushed
       through, and predicates below start from scratch *)
    | Project (_, i) | Aggregate { input = i; _ } -> walk acc [] i
    | Nl_join { left; right; _ }
    | Left_join { left; right; _ }
    | Set_op { left; right; _ }
    | Hash_join { left; right; _ } -> walk (walk acc [] left) [] right
  in
  walk [] [] plan

(* ------------------------------------------------------------------ *)
(* EXPLAIN-style pretty printing, used by the admin interface and tests. *)

let agg_to_string = function
  | Count_star -> "count(*)"
  | Count e -> "count(" ^ Expr.to_string e ^ ")"
  | Sum e -> "sum(" ^ Expr.to_string e ^ ")"
  | Avg e -> "avg(" ^ Expr.to_string e ^ ")"
  | Min e -> "min(" ^ Expr.to_string e ^ ")"
  | Max e -> "max(" ^ Expr.to_string e ^ ")"

let rec pp ppf t =
  match t.op with
  | Values rows -> Fmt.pf ppf "values[%d row(s)]" (List.length rows)
  | Scan { table } -> Fmt.pf ppf "scan %s" table
  | Index_lookup { table; positions; key } ->
    Fmt.pf ppf "index_lookup %s%a = %a" table
      Fmt.(brackets (array ~sep:(any ",") int))
      positions Tuple.pp key
  | Filter (pred, input) ->
    Fmt.pf ppf "@[<v 2>filter %a@,%a@]" Expr.pp pred pp input
  | Project (items, input) ->
    Fmt.pf ppf "@[<v 2>project %a@,%a@]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, n) -> Fmt.pf ppf "%a AS %s" Expr.pp e n))
      items pp input
  | Nl_join { left; right; pred } ->
    Fmt.pf ppf "@[<v 2>nl_join%a@,%a@,%a@]"
      Fmt.(option (fun ppf e -> Fmt.pf ppf " on %a" Expr.pp e))
      pred pp left pp right
  | Left_join { left; right; pred } ->
    Fmt.pf ppf "@[<v 2>left_join%a@,%a@,%a@]"
      Fmt.(option (fun ppf e -> Fmt.pf ppf " on %a" Expr.pp e))
      pred pp left pp right
  | Set_op { kind; all; left; right } ->
    Fmt.pf ppf "@[<v 2>%s%s@,%a@,%a@]"
      (match kind with
      | Union -> "union"
      | Intersect -> "intersect"
      | Except -> "except")
      (if all then "_all" else "")
      pp left pp right
  | Hash_join { left; right; left_keys; right_keys; residual } ->
    Fmt.pf ppf "@[<v 2>hash_join %a=%a%a@,%a@,%a@]"
      Fmt.(brackets (array ~sep:(any ",") int))
      left_keys
      Fmt.(brackets (array ~sep:(any ",") int))
      right_keys
      Fmt.(option (fun ppf e -> Fmt.pf ppf " residual %a" Expr.pp e))
      residual pp left pp right
  | Aggregate { group_by; aggs; input } ->
    Fmt.pf ppf "@[<v 2>aggregate group_by=(%a) aggs=(%a)@,%a@]"
      Fmt.(list ~sep:(any ", ") Expr.pp)
      group_by
      Fmt.(list ~sep:(any ", ") (fun ppf (a, n) -> Fmt.pf ppf "%s AS %s" (agg_to_string a) n))
      aggs pp input
  | Sort (keys, input) ->
    Fmt.pf ppf "@[<v 2>sort %a@,%a@]"
      Fmt.(
        list ~sep:(any ", ") (fun ppf (e, o) ->
            Fmt.pf ppf "%a %s" Expr.pp e (match o with Asc -> "asc" | Desc -> "desc")))
      keys pp input
  | Distinct input -> Fmt.pf ppf "@[<v 2>distinct@,%a@]" pp input
  | Limit (n, input) -> Fmt.pf ppf "@[<v 2>limit %d@,%a@]" n pp input

let explain t = Fmt.str "%a" pp t
