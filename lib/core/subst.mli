(** Substitutions and unification.

    A substitution maps variables to terms (constants or other variables).
    Chains are resolved by {!walk}; because the term language has no function
    symbols, unification needs no occurs check and always terminates. *)

open Relational

type t

val empty : t

val walk : t -> Term.t -> Term.t
(** Resolve a term to its current representative: follow variable bindings
    until a constant or an unbound variable is reached. *)

val bind : t -> string -> Term.t -> t

val unify : t -> Term.t -> Term.t -> t option
(** [unify s a b] — most general unifier extension of [s], or [None]. *)

val unify_atoms : t -> Atom.t -> Atom.t -> t option
(** Unify argument vectors of two atoms over the same relation (and same
    arity); [None] otherwise. *)

val unify_row : t -> Term.t array -> Tuple.t -> t option
(** [unify_row s terms row] — unify a term vector against ground values. *)

val apply_atom : t -> Atom.t -> Atom.t

val eval_texpr : t -> Term.texpr -> Value.t option
(** Evaluate a term-level arithmetic expression; [None] when a variable is
    unbound. *)

type verdict = True | False | Unknown

val check_pred : t -> Term.pred -> verdict
(** Check a scalar predicate under the substitution.  [Unknown] when some
    variable is still unbound (the check is retried at match completion). *)
