(** Answer relations.

    Answer relations are ordinary tables living in the system's catalog (so
    they participate in transactions, the WAL, and the admin interface) but
    with {i set} semantics: inserting a duplicate tuple is a no-op.  They
    must be declared before queries can refer to them — declaration fixes
    the schema that heads and constraints are validated against. *)

open Relational

type t

val create : Database.t -> t

val declare : t -> Schema.t -> Table.t
(** [declare t schema] creates the answer relation (a real table), with the
    hash indexes the matcher relies on. *)

val adopt : t -> string -> Table.t
(** [adopt t name] registers an {i existing} table (e.g. one rebuilt by WAL
    recovery) as an answer relation, creating the matcher's indexes if they
    are missing. *)

val find_opt : t -> string -> Table.t option
val find : t -> string -> Table.t
val relation_names : t -> string list

val contains : t -> string -> Tuple.t -> bool

val may_supply : t -> Atom.t -> bool
(** [may_supply t atom] — whether an existing tuple could unify with
    [atom] under the empty substitution.  Answered through an index, never
    a scan: by row count when [atom] has no constant, through [#ans_full]
    when every position is constant, through [#ans_first] when position 0
    is; any other shape answers [true]. *)

val insert : Txn.t -> t -> string -> Tuple.t -> bool
(** [insert txn t rel row] — set semantics; [true] if the tuple was new. *)

val matching : t -> Subst.t -> Atom.t -> Subst.t Seq.t
(** [matching t subst atom] — all extensions of [subst] unifying [atom] with
    an existing answer tuple.  Ground positions of the atom drive an indexed
    lookup where possible. *)

