(** In-memory heap tables.

    Rows live in a growable slot array; a row id is its slot position and
    stays stable for the row's lifetime (deleted slots are recycled).  Every
    table with a declared primary key maintains a unique hash index on it;
    further secondary indexes may be added at any time and are backfilled
    from existing rows. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t
val name : t -> string
val row_count : t -> int

val version : t -> int
(** Bumped on every mutation (WAL replay included — recovery inserts go
    through {!insert}); {!Tablestats} and the coordinator's poke snapshot
    key on it. *)

val uid : t -> int
(** Process-unique table identity, assigned at {!create}.  A [(uid,
    version)] pair never aliases across a drop-and-recreate of the same
    table name, which makes it a safe change-detection key. *)

val restore_version : t -> int -> unit
(** Fast-forward the version counter to at least the given value (never
    backwards) — checkpoint load uses this so a rebuilt table's version
    stays ahead of everything the snapshot observed. *)

(** {1 Change reporting}

    A table reports itself to one listener (its catalog's changed-table
    list) on its first version bump after each {!unlist}, so a consumer
    learns which tables moved without walking the catalog. *)

val set_on_change : t -> (t -> unit) -> unit
(** Install the listener and clear the reported flag. *)

val mark : t -> unit
(** Report the table now unless it was reported since the last {!unlist}
    (every version bump does this; the catalog also does it on DDL). *)

val unlist : t -> unit
(** Clear the reported flag: the next bump or {!mark} reports again. *)

val get : t -> int -> Tuple.t option
val get_exn : t -> int -> Tuple.t

val insert : t -> Value.t array -> int
(** Validates the row against the schema (including primary-key uniqueness)
    and returns the new row id.  A failed insert leaves no trace. *)

val delete : t -> int -> Tuple.t
(** Returns the deleted row; its slot is recycled. *)

val update : t -> int -> Value.t array -> Tuple.t
(** Replaces the row in place (indexes follow); returns the old row. *)

val iter : (int -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> int -> Tuple.t -> 'a) -> 'a -> t -> 'a
val rows : t -> Tuple.t list

val indexes : t -> Index.t list
val index_named : t -> string -> Index.t option

val create_index : ?unique:bool -> t -> string -> int array -> Index.t
(** Adds (and backfills) a secondary index; raises on duplicate names or a
    uniqueness violation in existing data. *)

val lookup_eq : t -> int array -> Value.t array -> int list
(** Row ids whose projection on the positions equals the key; uses a
    covering index when one exists, otherwise scans. *)

val lookup_pk : t -> Value.t array -> int option
(** Primary-key point lookup; [None] when the table has no primary key or
    no matching row. *)

val pp : Format.formatter -> t -> unit
