(** Statement-level mutations (INSERT / UPDATE / DELETE) executed through a
    transaction; each returns the number of rows affected.  UPDATE and
    DELETE find their target rows through an index when [col = const]
    conjuncts of the predicate cover one ({!Planner.index_probe}), and
    check every candidate against the whole predicate. *)

val insert_rows : Txn.t -> Table.t -> Value.t array list -> int

val delete_where : Txn.t -> Table.t -> Expr.t option -> int
(** [None] deletes all rows; the predicate is resolved against the table
    schema. *)

val update_where : Txn.t -> Table.t -> (int * Expr.t) list -> Expr.t option -> int
(** Each [(i, e)] assignment sets column [i] to [e] evaluated on the OLD
    row, for every row satisfying the predicate. *)
