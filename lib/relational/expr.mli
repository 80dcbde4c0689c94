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
      (** [e IN (v1, …, vn)] with a constant list *)
  | In_tuples of t list * Tuple.Set.t * bool
      (** [(e1, …, ek) [NOT] IN {tuples}] — membership of the evaluated
          tuple in a materialised set (how uncorrelated IN (SELECT …)
          subqueries reach the executor); the bool is the NOT *)
  | Fn of fn * t list  (** scalar function application *)
  | Like of t * t  (** SQL LIKE: [%] any run, [_] any one character *)

val binop_to_string : binop -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val resolve : (string option -> string -> int option) -> t -> t
(** Replace every [Named] node via the lookup; raises [No_such_column] on a
    [None] result. *)

val remap : (int -> int) -> t -> t
(** Rewrite resolved column positions (join reordering). *)

val columns : t -> int list
(** Column positions referenced by a resolved expression, sorted. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE semantics: [%] matches any run, [_] any single character. *)

val eval : Tuple.t -> t -> Value.t
(** Raises on unresolved [Named] nodes and type errors. *)

val holds : Tuple.t -> t -> bool
(** SQL WHERE acceptance: true only when the expression evaluates to
    [Bool true] ([Null] rejects the row). *)

val conjuncts : t -> t list
(** Split a conjunction into its conjuncts (TRUE yields []). *)

val conjoin : t list -> t
(** Inverse of {!conjuncts}; [] becomes TRUE. *)

val const_fold : t -> t
(** Constant folding where possible; expressions that would raise are left
    intact. *)
