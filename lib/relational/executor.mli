(** Plan execution.

    Results are materialised lists of tuples.  Row order is deterministic:
    scans produce rows in slot order, joins preserve left-major order, and
    sorts are stable. *)

val run : Catalog.t -> Plan.t -> Tuple.t list

val explain_analyze : Catalog.t -> Plan.t -> Tuple.t list * string
(** Execute and return the rows plus the plan tree annotated with each
    operator's actual output cardinality (EXPLAIN ANALYZE). *)
