(** Statement-level mutations (INSERT / UPDATE / DELETE) executed through a
    transaction. *)

(** [insert_rows txn table rows] inserts every row, returning the count. *)
let insert_rows txn table rows =
  List.iter (fun row -> ignore (Txn.insert txn table row)) rows;
  List.length rows

(* The rows satisfying [pred] ([None]: every row), newest-id first.  When
   [col = const] conjuncts cover an index, only the rows of that lookup are
   candidates — a point UPDATE touches one row instead of scanning the
   table — and each is still checked against the whole predicate. *)
let matching table pred =
  let keep acc row_id row =
    match pred with
    | Some p when not (Expr.holds row p) -> acc
    | _ -> (row_id, row) :: acc
  in
  match
    Option.bind pred (fun p -> Planner.index_probe table (Expr.conjuncts p))
  with
  | Some (ix, key, _) ->
    (* Index.lookup lists ids ascending, the order a scan visits them *)
    List.fold_left
      (fun acc row_id ->
        match Table.get table row_id with
        | Some row -> keep acc row_id row
        | None -> acc)
      [] (Index.lookup ix key)
  | None -> Table.fold keep [] table

(** [delete_where txn table pred] deletes rows satisfying [pred] (resolved
    against the table schema); [None] deletes all rows.  Returns the count. *)
let delete_where txn table pred =
  let victims = matching table pred in
  List.iter (fun (row_id, _) -> ignore (Txn.delete txn table row_id)) victims;
  List.length victims

(** [update_where txn table assignments pred] sets column [i] to the value of
    expression [e] (evaluated on the old row) for each [(i, e)] in
    [assignments], on every row satisfying [pred].  Returns the count. *)
let update_where txn table assignments pred =
  let targets = matching table pred in
  List.iter
    (fun (row_id, row) ->
      let updated = Array.copy row in
      List.iter (fun (i, e) -> updated.(i) <- Expr.eval row e) assignments;
      ignore (Txn.update txn table row_id updated))
    targets;
  List.length targets
