(** The catalog maps table names (case-insensitive) to live tables.  A
    Youtopia instance owns one catalog for regular relations; answer
    relations live in the same catalog (see [Core.Answers]) so they share
    transactions, the WAL, and the admin tooling. *)

type t

val create : unit -> t
val mem : t -> string -> bool
val find_opt : t -> string -> Table.t option

val find : t -> string -> Table.t
(** Raises [No_such_table]. *)

val create_table : t -> Schema.t -> Table.t
(** Raises [Duplicate_table]. *)

val add_table : t -> Table.t -> unit
(** Register an existing table (used by WAL replay). *)

val drop_table : t -> string -> unit

val adopt : t -> t -> unit
(** [adopt dst src] replaces [dst]'s tables and views with [src]'s, in
    place, so live references to [dst] observe the new state — used by a
    replica bootstrapping from a streamed snapshot. *)

val drain_changed : t -> by:int -> Table.t list option
(** Empty the changed-table list: every table whose version moved, or that
    was created, added, adopted or dropped, since the last drain (a
    dropped table is reported by its old handle; look its name up to see
    what is there now).  [by] names the consumer.  The answer is [None]
    when the previous drain was made by someone else (or by nobody), or
    the list overflowed: the caller has then missed changes and must walk
    {!iter}. *)

(** {1 Views}

    Views are stored as their defining SELECT text; the SQL layer parses
    and inlines them as derived tables on use (so a view always reflects
    the current base data). *)

val create_view : t -> string -> string -> unit
val drop_view : t -> string -> unit
val view_exists : t -> string -> bool
val find_view : t -> string -> string option
val view_names : t -> string list
val table_names : t -> string list
val iter : (Table.t -> unit) -> t -> unit
