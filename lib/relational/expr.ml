(** Scalar expressions evaluated against a single (possibly joined) tuple.

    Column references exist in two forms: [Named] (as parsed, qualified or
    not) and [Col] (resolved position).  {!resolve} rewrites [Named] into
    [Col] given a name-resolution function; the executor only accepts fully
    resolved expressions.

    Boolean evaluation uses SQL three-valued logic: a comparison involving
    NULL is NULL, [And]/[Or] follow Kleene semantics, and a WHERE predicate
    accepts a row only when it evaluates to [Bool true]. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | And
  | Or
  | Concat

type unop = Neg | Not | Is_null | Is_not_null

(** Scalar functions.  [Coalesce] is variadic; the rest take one argument. *)
type fn = Lower | Upper | Length | Abs | Coalesce

type t =
  | Const of Value.t
  | Col of int
  | Named of string option * string  (** qualifier, column name *)
  | Unop of unop * t
  | Binop of binop * t * t
  | In_list of t * Value.t list
      (** [e IN (v1, …, vn)] with a constant list; subquery IN is compiled
          away into a semijoin before reaching the executor. *)
  | In_tuples of t list * Tuple.Set.t * bool
      (** [(e1, …, ek) [NOT] IN {tuples}] — membership of the evaluated
          tuple in a materialised set (how uncorrelated IN (SELECT …)
          subqueries reach the executor); the bool is the NOT *)
  | Fn of fn * t list  (** scalar function application *)
  | Like of t * t  (** SQL LIKE: [%] any run, [_] any one character *)

let fn_to_string = function
  | Lower -> "lower"
  | Upper -> "upper"
  | Length -> "length"
  | Abs -> "abs"
  | Coalesce -> "coalesce"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | And -> "AND"
  | Or -> "OR"
  | Concat -> "||"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Col i -> Fmt.pf ppf "#%d" i
  | Named (None, n) -> Fmt.string ppf n
  | Named (Some q, n) -> Fmt.pf ppf "%s.%s" q n
  | Unop (Neg, e) -> Fmt.pf ppf "(-%a)" pp e
  | Unop (Not, e) -> Fmt.pf ppf "(NOT %a)" pp e
  | Unop (Is_null, e) -> Fmt.pf ppf "(%a IS NULL)" pp e
  | Unop (Is_not_null, e) -> Fmt.pf ppf "(%a IS NOT NULL)" pp e
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_to_string op) pp b
  | In_list (e, vs) ->
    Fmt.pf ppf "(%a IN (%a))" pp e Fmt.(list ~sep:(any ", ") Value.pp) vs
  | In_tuples (es, set, anti) ->
    Fmt.pf ppf "((%a) %sIN {%d tuple(s)})"
      Fmt.(list ~sep:(any ", ") pp)
      es
      (if anti then "NOT " else "")
      (Tuple.Set.cardinal set)
  | Fn (f, args) ->
    Fmt.pf ppf "%s(%a)" (fn_to_string f) Fmt.(list ~sep:(any ", ") pp) args
  | Like (a, b) -> Fmt.pf ppf "(%a LIKE %a)" pp a pp b

let to_string e = Fmt.str "%a" pp e

(** [resolve lookup e] replaces every [Named] node using [lookup qualifier
    name], failing with [No_such_column] when the lookup yields [None]. *)
let rec resolve lookup = function
  | Const _ as e -> e
  | Col _ as e -> e
  | Named (q, n) -> (
    match lookup q n with
    | Some i -> Col i
    | None ->
      let shown = match q with Some q -> q ^ "." ^ n | None -> n in
      Errors.fail (Errors.No_such_column shown))
  | Unop (op, e) -> Unop (op, resolve lookup e)
  | Binop (op, a, b) -> Binop (op, resolve lookup a, resolve lookup b)
  | In_list (e, vs) -> In_list (resolve lookup e, vs)
  | In_tuples (es, set, anti) -> In_tuples (List.map (resolve lookup) es, set, anti)
  | Fn (f, args) -> Fn (f, List.map (resolve lookup) args)
  | Like (a, b) -> Like (resolve lookup a, resolve lookup b)

(** [remap f e] rewrites every resolved column position through [f] — used
    when join reordering moves columns around the concatenated tuple. *)
let rec remap f = function
  | Const _ as e -> e
  | Col i -> Col (f i)
  | Named _ as e -> e
  | Unop (op, e) -> Unop (op, remap f e)
  | Binop (op, a, b) -> Binop (op, remap f a, remap f b)
  | In_list (e, vs) -> In_list (remap f e, vs)
  | In_tuples (es, set, anti) -> In_tuples (List.map (remap f) es, set, anti)
  | Fn (g, args) -> Fn (g, List.map (remap f) args)
  | Like (a, b) -> Like (remap f a, remap f b)

(** Column positions referenced by a resolved expression. *)
let columns e =
  let rec loop acc = function
    | Const _ -> acc
    | Col i -> i :: acc
    | Named _ -> acc
    | Unop (_, e) -> loop acc e
    | Binop (_, a, b) -> loop (loop acc a) b
    | In_list (e, _) -> loop acc e
    | In_tuples (es, _, _) -> List.fold_left loop acc es
    | Fn (_, args) -> List.fold_left loop acc args
    | Like (a, b) -> loop (loop acc a) b
  in
  List.sort_uniq Stdlib.compare (loop [] e)

(* SQL LIKE pattern matching: % matches any run, _ any single character.
   Backtracking matcher; patterns are short in practice. *)
let like_match ~pattern text =
  let np = String.length pattern and nt = String.length text in
  let rec go p t =
    if p >= np then t >= nt
    else
      match pattern.[p] with
      | '%' ->
        (* greedy with backtracking *)
        let rec try_from t' = t' <= nt && (go (p + 1) t' || try_from (t' + 1)) in
        try_from t
      | '_' -> t < nt && go (p + 1) (t + 1)
      | c -> t < nt && text.[t] = c && go (p + 1) (t + 1)
  in
  go 0 0

(* Three-valued comparison: None means UNKNOWN (a NULL operand). *)
let compare3 a b =
  if Value.is_null a || Value.is_null b then None else Some (Value.compare a b)

let of_bool3 = function None -> Value.Null | Some b -> Value.Bool b

let rec eval (row : Tuple.t) = function
  | Const v -> v
  | Col i ->
    if i < 0 || i >= Array.length row then
      Errors.internalf "column #%d out of range for %d-tuple" i
        (Array.length row)
    else row.(i)
  | Named (q, n) ->
    let shown = match q with Some q -> q ^ "." ^ n | None -> n in
    Errors.internalf "unresolved column %s reached the executor" shown
  | Unop (Neg, e) -> Value.neg (eval row e)
  | Unop (Not, e) -> (
    match eval row e with
    | Value.Null -> Value.Null
    | v -> Value.Bool (not (Value.as_bool v)))
  | Unop (Is_null, e) -> Value.Bool (Value.is_null (eval row e))
  | Unop (Is_not_null, e) -> Value.Bool (not (Value.is_null (eval row e)))
  | Binop (And, a, b) -> (
    (* Kleene AND: false dominates NULL. *)
    match eval row a with
    | Value.Bool false -> Value.Bool false
    | Value.Null -> (
      match eval row b with
      | Value.Bool false -> Value.Bool false
      | _ -> Value.Null)
    | va ->
      let _ = Value.as_bool va in
      eval row b)
  | Binop (Or, a, b) -> (
    match eval row a with
    | Value.Bool true -> Value.Bool true
    | Value.Null -> (
      match eval row b with
      | Value.Bool true -> Value.Bool true
      | _ -> Value.Null)
    | va ->
      let _ = Value.as_bool va in
      eval row b)
  | Binop (op, a, b) -> (
    let va = eval row a and vb = eval row b in
    match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb
    | Mod -> Value.rem va vb
    | Concat -> Value.concat va vb
    | Eq -> of_bool3 (Option.map (fun c -> c = 0) (compare3 va vb))
    | Neq -> of_bool3 (Option.map (fun c -> c <> 0) (compare3 va vb))
    | Lt -> of_bool3 (Option.map (fun c -> c < 0) (compare3 va vb))
    | Leq -> of_bool3 (Option.map (fun c -> c <= 0) (compare3 va vb))
    | Gt -> of_bool3 (Option.map (fun c -> c > 0) (compare3 va vb))
    | Geq -> of_bool3 (Option.map (fun c -> c >= 0) (compare3 va vb))
    | And | Or -> assert false)
  | In_list (e, vs) ->
    let v = eval row e in
    if Value.is_null v then Value.Null
    else if List.exists (Value.equal v) vs then Value.Bool true
    else if List.exists Value.is_null vs then Value.Null
    else Value.Bool false
  | In_tuples (es, set, anti) ->
    let key = Array.of_list (List.map (eval row) es) in
    if Array.exists Value.is_null key then Value.Null
    else
      let present = Tuple.Set.mem key set in
      Value.Bool (if anti then not present else present)
  | Fn (Coalesce, args) ->
    let rec first = function
      | [] -> Value.Null
      | e :: rest -> (
        match eval row e with Value.Null -> first rest | v -> v)
    in
    first args
  | Fn (f, [ a ]) -> (
    match eval row a with
    | Value.Null -> Value.Null
    | v -> (
      match f with
      | Lower -> Value.Str (String.lowercase_ascii (Value.as_string v))
      | Upper -> Value.Str (String.uppercase_ascii (Value.as_string v))
      | Length -> Value.Int (String.length (Value.as_string v))
      | Abs -> (
        match v with
        | Value.Int i -> Value.Int (abs i)
        | Value.Float x -> Value.Float (Float.abs x)
        | _ -> Errors.type_errorf "abs of non-numeric %s" (Value.to_string v))
      | Coalesce -> assert false))
  | Fn (f, args) ->
    Errors.type_errorf "%s expects 1 argument, got %d" (fn_to_string f)
      (List.length args)
  | Like (a, b) -> (
    match eval row a, eval row b with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | va, vb ->
      Value.Bool (like_match ~pattern:(Value.as_string vb) (Value.as_string va)))

(** [holds row e] — SQL WHERE acceptance: true only when [e] evaluates to
    [Bool true] ([Null] rejects the row). *)
let holds row e =
  match eval row e with
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> Errors.type_errorf "predicate evaluated to non-boolean %s" (Value.to_string v)

(** Split a conjunction into its conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | Const (Value.Bool true) -> []
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: es -> List.fold_left (fun acc e -> Binop (And, acc, e)) e es

(** Constant folding where possible; leaves non-constant nodes intact. *)
let rec const_fold e =
  match e with
  | Const _ | Col _ | Named _ -> e
  | Unop (op, a) -> (
    let a = const_fold a in
    match a with
    | Const _ -> ( try Const (eval [||] (Unop (op, a))) with Errors.Db_error _ -> Unop (op, a))
    | _ -> Unop (op, a))
  | Binop (op, a, b) -> (
    let a = const_fold a and b = const_fold b in
    match a, b with
    | Const _, Const _ -> (
      try Const (eval [||] (Binop (op, a, b)))
      with Errors.Db_error _ -> Binop (op, a, b))
    | _ -> Binop (op, a, b))
  | In_list (a, vs) -> (
    let a = const_fold a in
    match a with
    | Const _ -> (
      try Const (eval [||] (In_list (a, vs)))
      with Errors.Db_error _ -> In_list (a, vs))
    | _ -> In_list (a, vs))
  | In_tuples (es, set, anti) ->
    let es = List.map const_fold es in
    if List.for_all (function Const _ -> true | _ -> false) es then
      try Const (eval [||] (In_tuples (es, set, anti)))
      with Errors.Db_error _ -> In_tuples (es, set, anti)
    else In_tuples (es, set, anti)
  | Fn (f, args) ->
    let args = List.map const_fold args in
    if List.for_all (function Const _ -> true | _ -> false) args then
      try Const (eval [||] (Fn (f, args)))
      with Errors.Db_error _ -> Fn (f, args)
    else Fn (f, args)
  | Like (a, b) -> (
    let a = const_fold a and b = const_fold b in
    match a, b with
    | Const _, Const _ -> (
      try Const (eval [||] (Like (a, b)))
      with Errors.Db_error _ -> Like (a, b))
    | _ -> Like (a, b))
