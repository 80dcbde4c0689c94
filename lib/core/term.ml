(** Terms of the entangled-query intermediate representation.

    A term is a constant (database value) or a logic variable.  Variables in
    entangled SQL are the free column names of the query (e.g. [fno] in the
    paper's example); the coordinator renames them apart per query instance
    (see {!Equery.freshen}), so distinct queries never share a variable by
    accident — they share values only through unification during matching. *)

open Relational

type t = Const of Value.t | Var of string

let equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y
  | Var x, Var y -> String.equal x y
  | Const _, Var _ | Var _, Const _ -> false

let pp ppf = function
  | Const v -> Value.pp ppf v
  | Var x -> Fmt.pf ppf "?%s" x

(** Variables of a term, prepended to [acc]. *)
let vars acc = function Const _ -> acc | Var x -> x :: acc

(** [rename f t] rewrites variable names through [f]. *)
let rename f = function Const _ as t -> t | Var x -> Var (f x)

(* ------------------------------------------------------------------ *)
(** Term-level arithmetic expressions, for scalar predicates such as the
    adjacent-seat constraint [seat = friend_seat + 1]. *)

type texpr =
  | T of t
  | Add of texpr * texpr
  | Sub of texpr * texpr
  | Mul of texpr * texpr

let rec texpr_vars acc = function
  | T t -> vars acc t
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> texpr_vars (texpr_vars acc a) b

let rec texpr_rename f = function
  | T t -> T (rename f t)
  | Add (a, b) -> Add (texpr_rename f a, texpr_rename f b)
  | Sub (a, b) -> Sub (texpr_rename f a, texpr_rename f b)
  | Mul (a, b) -> Mul (texpr_rename f a, texpr_rename f b)

let rec pp_texpr ppf = function
  | T t -> pp ppf t
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_texpr a pp_texpr b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_texpr a pp_texpr b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_texpr a pp_texpr b

(* ------------------------------------------------------------------ *)
(** Scalar comparison predicates over terms. *)

type cmp = Ceq | Cneq | Clt | Cleq | Cgt | Cgeq

type pred = { op : cmp; lhs : texpr; rhs : texpr }

let cmp_to_string = function
  | Ceq -> "="
  | Cneq -> "<>"
  | Clt -> "<"
  | Cleq -> "<="
  | Cgt -> ">"
  | Cgeq -> ">="

let pred_vars acc p = texpr_vars (texpr_vars acc p.lhs) p.rhs

let pred_rename f p =
  { p with lhs = texpr_rename f p.lhs; rhs = texpr_rename f p.rhs }

let pp_pred ppf p =
  Fmt.pf ppf "%a %s %a" pp_texpr p.lhs (cmp_to_string p.op) pp_texpr p.rhs

let eval_cmp op (c : int) =
  match op with
  | Ceq -> c = 0
  | Cneq -> c <> 0
  | Clt -> c < 0
  | Cleq -> c <= 0
  | Cgt -> c > 0
  | Cgeq -> c >= 0
