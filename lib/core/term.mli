(** Terms of the entangled-query intermediate representation.

    A term is a constant (database value) or a logic variable.  Variables in
    entangled SQL are the free column names of the query (e.g. [fno] in the
    paper's example); the coordinator renames them apart per query instance
    (see {!Equery.freshen}), so distinct queries never share a variable by
    accident — they share values only through unification during matching. *)

open Relational

type t = Const of Value.t | Var of string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val vars : string list -> t -> string list
(** [vars acc t] — variables of [t] prepended to [acc]. *)

val rename : (string -> string) -> t -> t
(** [rename f t] rewrites variable names through [f]. *)

(** {1 Term-level arithmetic}

    For scalar predicates such as the adjacent-seat constraint
    [seat = friend_seat + 1]. *)

type texpr =
  | T of t
  | Add of texpr * texpr
  | Sub of texpr * texpr
  | Mul of texpr * texpr

val texpr_rename : (string -> string) -> texpr -> texpr

(** {1 Scalar comparison predicates} *)

type cmp = Ceq | Cneq | Clt | Cleq | Cgt | Cgeq

type pred = { op : cmp; lhs : texpr; rhs : texpr }

val pred_vars : string list -> pred -> string list
val pred_rename : (string -> string) -> pred -> pred
val pp_pred : Format.formatter -> pred -> unit

val eval_cmp : cmp -> int -> bool
(** [eval_cmp op c] interprets a {!Relational.Value.compare} result [c]
    under comparison operator [op]. *)
