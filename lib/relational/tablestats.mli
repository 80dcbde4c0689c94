(** Table and column statistics for the planner.

    Statistics are computed by one scan and cached per table, keyed on the
    table's {!Table.uid} and mutation {!Table.version}: reads are free until
    the table changes, and the first plan after a change pays one O(rows)
    refresh.
    The planner consumes {!eq_selectivity} (1 / NDV) to order joins and
    estimate filtered cardinalities. *)

type column_stats = {
  distinct : int;  (** number of distinct non-null values *)
  nulls : int;
  min_value : Value.t option;
  max_value : Value.t option;
}

type t = { rows : int; columns : column_stats array }

val collect : Table.t -> t
(** Fresh statistics (one scan per column). *)

val get : Table.t -> t
(** Cached statistics, refreshed when the table changed.  Thread-safe. *)

val eq_selectivity : t -> int -> float
(** Fraction of rows expected to satisfy [col = const]: 1 / NDV (uniform
    assumption); 1.0 for empty/unknown columns. *)

val estimate_eq_filter : Table.t -> int list -> int
(** Estimated row count after applying [col = const] filters on the given
    positions (at least 1).  A position a single-column index covers takes
    its NDV from the index's distinct-key count; only the others read the
    cached scan, so a changed table is rescanned only when some position
    has no index. *)

