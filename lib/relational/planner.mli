(** Rule-based planner for select-project-join blocks.

    Input: an ordered list of sources (alias × table) and a WHERE expression
    resolved against the {i source-order concatenation} of their columns.
    Output: a plan whose schema is exactly that concatenation (a restoring
    projection is added if join reordering permuted columns), so expressions
    the compiler resolved against source order stay valid on top of the
    produced plan.

    Rules applied:
    - single-source conjuncts are pushed below the joins;
    - equality-with-constant conjuncts that cover an index turn the scan
      into an index point lookup;
    - column-to-column equality conjuncts across two sources drive hash
      joins; remaining cross-source conjuncts become filters once their
      sources are joined;
    - join order is greedy smallest-estimated-cardinality-first (estimates
      from {!Tablestats}) among sources connected by an equi-join
      predicate; disconnected sources fall back to nested-loop products. *)

type source

val make_source : string -> Table.t -> source

val make_derived : string -> Schema.t -> Tuple.t list -> source
(** A FROM-clause subquery, already evaluated into rows (no indexes; the
    cardinality estimate is the row count). *)

val index_probe :
  Table.t -> Expr.t list -> (Index.t * Value.t array * Expr.t list) option
(** [index_probe table conjuncts] — the first index of [table] whose every
    column a [col = const] conjunct pins (NULL constants never qualify),
    with its lookup key and the conjuncts the lookup leaves to check.  The
    planner's index point lookups and {!Mutation}'s row targeting both
    come from here. *)

val plan_joins : source list -> Expr.t -> Plan.t
(** [plan_joins sources where] — with no sources, yields a single empty row
    filtered by [where] (SELECT without FROM). *)
