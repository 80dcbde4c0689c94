(** Error handling for the relational engine.

    All engine-level failures are reported through the single exception
    {!Db_error} carrying a structured {!kind}.  Callers that want to treat
    errors as data use {!guard}. *)

type kind =
  | Type_error of string
  | Schema_error of string
  | Constraint_violation of string
  | No_such_table of string
  | No_such_column of string
  | Duplicate_table of string
  | Parse_error of string
  | Txn_error of string
  | Wal_error of string
  | Internal of string

exception Db_error of kind

val kind_to_string : kind -> string

val fail : kind -> 'a
(** [fail kind] raises {!Db_error}. *)

val type_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val schema_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val constraintf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val internalf : ('a, Format.formatter, unit, 'b) format4 -> 'a

val guard : (unit -> 'a) -> ('a, kind) result
(** [guard f] runs [f ()] and converts a {!Db_error} into [Error kind]. *)

