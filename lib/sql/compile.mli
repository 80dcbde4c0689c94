(** Compilation of plain (non-entangled) SELECTs into physical plans, plus
    expression resolution helpers shared by UPDATE/DELETE.

    Uncorrelated [IN (SELECT …)] subqueries and derived tables are evaluated
    eagerly at compile time and folded into materialised constants; a
    correlated reference surfaces as a [No_such_column] error inside the
    subquery, which is the documented limitation.  Entangled constructs
    ([INTO ANSWER], [IN ANSWER]) are rejected here — they are translated by
    [Core.Translate] into the coordination IR instead. *)

open Relational

(** Name-resolution environment: sources in FROM order. *)
type env = { sources : (string * Schema.t * int) list }

val compile_select : Catalog.t -> Ast.select -> Plan.t
(** Full SELECT compilation: FROM (incl. derived tables), LEFT JOINs,
    WHERE, GROUP BY/HAVING, projection, ORDER BY, DISTINCT, LIMIT, and
    trailing set operations. *)

val expr_for_table : Catalog.t -> Table.t -> Ast.expr -> Expr.t
(** Resolve an expression against a single table (UPDATE/DELETE). *)

val constant_expr : Catalog.t -> Ast.expr -> Value.t
(** Evaluate a constant expression (VALUES rows). *)
