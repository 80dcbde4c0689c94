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

let kind_to_string = function
  | Type_error m -> "type error: " ^ m
  | Schema_error m -> "schema error: " ^ m
  | Constraint_violation m -> "constraint violation: " ^ m
  | No_such_table t -> "no such table: " ^ t
  | No_such_column c -> "no such column: " ^ c
  | Duplicate_table t -> "table already exists: " ^ t
  | Parse_error m -> "parse error: " ^ m
  | Txn_error m -> "transaction error: " ^ m
  | Wal_error m -> "WAL error: " ^ m
  | Internal m -> "internal error: " ^ m

let () =
  Printexc.register_printer (function
    | Db_error k -> Some ("Db_error (" ^ kind_to_string k ^ ")")
    | _ -> None)

(** [fail kind] raises {!Db_error}. *)
let fail kind = raise (Db_error kind)

let type_errorf fmt = Format.kasprintf (fun m -> fail (Type_error m)) fmt
let schema_errorf fmt = Format.kasprintf (fun m -> fail (Schema_error m)) fmt

let constraintf fmt =
  Format.kasprintf (fun m -> fail (Constraint_violation m)) fmt

let internalf fmt = Format.kasprintf (fun m -> fail (Internal m)) fmt

(** [guard f] runs [f ()] and converts a {!Db_error} into [Error kind]. *)
let guard f = try Ok (f ()) with Db_error k -> Error k

