(** Plain SQL statement execution against a {!Relational.Database}.

    This is the "execution engine" box of the paper's Figure 2 for ordinary
    SQL.  Entangled queries never reach this module — the system layer
    routes them to the coordination component instead; calling {!exec} on
    one is an error.

    A {!session} carries an optional interactive transaction (BEGIN /
    COMMIT / ROLLBACK); statements outside an explicit transaction are
    auto-committed. *)

open Relational

type session = { db : Database.t; mutable open_txn : Txn.t option }

val make_session : Database.t -> session

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Ok_msg of string
  | Explained of string

val result_to_string : result -> string

val exec : session -> Ast.statement -> result
val exec_sql : session -> string -> result

