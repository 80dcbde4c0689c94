(** Relational atoms: a relation name applied to a vector of terms.  Used
    both as query heads (contributions to answer relations) and as body
    answer constraints. *)

open Relational

type t = { rel : string; args : Term.t array }

val make : string -> Term.t list -> t
val arity : t -> int

val rel_equal : string -> string -> bool
(** Case-insensitive relation-name equality (SQL convention); allocates
    nothing. *)

val same_rel : t -> t -> bool
(** Case-insensitive relation-name equality (SQL convention). *)

val vars : t -> string list

val to_tuple : t -> Tuple.t option
(** The tuple of a ground atom; [None] if any variable remains. *)

val rename : (string -> string) -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
