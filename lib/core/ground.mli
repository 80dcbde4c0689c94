(** Grounding: enumerate the substitutions that satisfy a query's database
    atoms (and keep its scalar predicates consistent) in the current
    database.

    Each database atom carries a {i closed} relational sub-plan (e.g. the
    compiled [SELECT fno FROM Flights WHERE dest='Paris']); its result rows
    are the domain the atom's term vector unifies against.  Enumeration is
    backtracking in continuation-passing style, choosing at every step the
    atom with the fewest unbound variables (most-bound-first), and pruning
    with every scalar predicate as soon as its variables are bound. *)

open Relational

val enumerate :
  Catalog.t -> Stats.t -> Equery.t -> Subst.t -> (Subst.t -> unit) -> unit
(** [enumerate cat stats q subst yield] calls [yield subst'] for every
    extension of [subst] that satisfies all of [q]'s database atoms,
    pinned equalities and (bound) predicates.  [yield] may raise to abort
    the enumeration (the matcher uses an exception to escape on success).
    Every atom's sub-plan runs on the live catalog ({!Executor.run}), so a
    retry always sees the current tables. *)

val first :
  Catalog.t -> Stats.t -> Equery.t -> Subst.t -> Subst.t option
(** The first satisfying extension, if any. *)
