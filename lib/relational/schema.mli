(** Table schemas: ordered, named, typed columns plus an optional primary
    key.  Schemas are immutable; tables (see {!Table}) hold one. *)

type column = {
  col_name : string;
  col_type : Ctype.t;
  nullable : bool;
}

type t = {
  name : string;
  columns : column array;
  primary_key : int list;  (** column positions; [[]] means no primary key *)
}

val column : ?nullable:bool -> string -> Ctype.t -> column
(** Columns default to [NOT NULL]. *)

val arity : t -> int

val make : ?primary_key:int list -> string -> column list -> t
(** Validates column-name uniqueness (case-insensitive) and the primary-key
    positions (in range, non-nullable). *)

val column_names : t -> string list

val find_column : t -> string -> int option
(** Case-insensitive column lookup. *)

val column_index : t -> string -> int
(** Like {!find_column} but raises [No_such_column]. *)

val column_at : t -> int -> column

val check_row : t -> Value.t array -> Value.t array
(** Validate arity, per-column type acceptance and nullability, returning
    the row with values normalised to their column types. *)

val anonymous : ?name:string -> (string * Ctype.t) list -> t
(** Schema for the output of a projection: fresh schema with all columns
    nullable (expressions may produce NULL). *)

val rename : t -> string -> t
val pp : Format.formatter -> t -> unit

