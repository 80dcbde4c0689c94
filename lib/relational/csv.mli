(** CSV import/export for tables (RFC 4180-style quoting). *)

val encode_row : string list -> string

val parse : string -> string list list
(** Split CSV text into rows of fields, honouring quoted fields (embedded
    commas, doubled quotes, embedded newlines). *)

val load : ?header:bool -> Table.t -> string -> int
(** Bulk-insert CSV rows typed by the table schema; returns the row count.
    Empty fields become NULL in nullable columns. *)

val dump : ?header:bool -> Table.t -> string

val load_file : ?header:bool -> Table.t -> string -> int
val dump_file : ?header:bool -> Table.t -> string -> unit
