(** The entangled-query intermediate representation.

    An entangled query is the compiled form of
    {v
      SELECT t̄ INTO ANSWER R [, …]
      WHERE (x̄ IN (SELECT …))* AND ((ē) IN ANSWER R')* AND φ
      CHOOSE k
    v}
    i.e. heads (answer contributions), database atoms (each a closed
    relational sub-plan plus the term vector it binds), answer constraints,
    scalar predicates, and the CHOOSE multiplicity.  Side effects are
    statements the system runs atomically when the query is answered (the
    travel application uses them to write reservations and decrement seat
    counts); they are an API-level extension — the SQL surface of the demo
    paper does not expose them. *)

open Relational

type db_atom = {
  binding : Term.t array;  (** terms bound against each result row *)
  plan : Plan.t;  (** closed sub-plan (no free variables) *)
  source : string;  (** human-readable origin, e.g. the subquery SQL *)
}

type side_effect =
  | Sf_insert of string * Term.t array
      (** INSERT INTO table VALUES (ground terms) *)
  | Sf_decrement of {
      table : string;
      column : string;
      where_eq : (string * Term.t) list;
    }  (** column := column - 1 on matching rows (seat/room capacity) *)
  | Sf_update of {
      table : string;
      set : (string * Term.texpr) list;  (** column := texpr *)
      where_eq : (string * Term.t) list;  (** column = term conjunction *)
    }

type t = {
  id : int;  (** unique instance id, assigned at submission; 0 = unsubmitted *)
  owner : string;  (** submitting user/session *)
  label : string;  (** human-readable description *)
  heads : Atom.t list;
  db_atoms : db_atom list;
  ans_atoms : Atom.t list;
  preds : Term.pred list;
  eq_bindings : (string * Value.t) list;
      (** variables pinned by [x = const] conjuncts *)
  choose : int;
  side_effects : side_effect list;
}

val make :
  ?label:string ->
  ?preds:Term.pred list ->
  ?eq_bindings:(string * Value.t) list ->
  ?choose:int ->
  ?side_effects:side_effect list ->
  owner:string ->
  heads:Atom.t list ->
  db_atoms:db_atom list ->
  ans_atoms:Atom.t list ->
  unit ->
  t

val freshen : id:int -> t -> t
(** [freshen ~id q] assigns the instance id and renames variables apart
    ([x] becomes ["q<id>:x"]), so distinct instances never collide. *)

val display_var : string -> string
(** Strip the instance prefix from a freshened variable name, for display. *)

val pp : Format.formatter -> t -> unit
