(** Table and column statistics for the planner.

    Statistics are computed by one scan and cached per table, keyed on the
    table's {!Table.uid} and mutation {!Table.version}: reads are free until
    the table changes, and the first plan after a change pays one O(rows)
    refresh.
    The planner consumes {!eq_selectivity} (1 / NDV) to order joins and
    estimate filtered cardinalities.  {!estimate_eq_filter} takes a
    column's NDV from a single-column index when one covers it (its
    distinct-key count is O(1) and always current), so a table that
    changes between plans is only rescanned for columns no index
    covers. *)

type column_stats = {
  distinct : int;  (** number of distinct non-null values *)
  nulls : int;
  min_value : Value.t option;
  max_value : Value.t option;
}

type t = { rows : int; columns : column_stats array }

(* module-level value table reused per column scan *)
let collect_column (table : Table.t) pos =
  let seen = Hashtbl.create 64 in
  let nulls = ref 0 in
  let min_v = ref None and max_v = ref None in
  Table.iter
    (fun _ row ->
      let v = row.(pos) in
      if Value.is_null v then incr nulls
      else begin
        Hashtbl.replace seen v ();
        (match !min_v with
        | Some m when Value.compare v m >= 0 -> ()
        | _ -> min_v := Some v);
        match !max_v with
        | Some m when Value.compare v m <= 0 -> ()
        | _ -> max_v := Some v
      end)
    table;
  {
    distinct = Hashtbl.length seen;
    nulls = !nulls;
    min_value = !min_v;
    max_value = !max_v;
  }

(** [collect table] — fresh statistics (one scan per column). *)
let collect (table : Table.t) : t =
  let arity = Schema.arity (Table.schema table) in
  {
    rows = Table.row_count table;
    columns = Array.init arity (collect_column table);
  }

(* cache: table name -> (uid, version, stats).  The name bounds the cache;
   the uid tells apart tables that share a name (a drop and recreate, or
   two databases in one process), which can reach the same version. *)
let cache : (string, int * int * t) Hashtbl.t = Hashtbl.create 16
let cache_mu = Mutex.create ()

(** [get table] — cached statistics, refreshed when the table changed. *)
let get (table : Table.t) : t =
  let key = String.lowercase_ascii (Table.name table) in
  let uid = Table.uid table and version = Table.version table in
  Mutex.lock cache_mu;
  let result =
    match Hashtbl.find_opt cache key with
    | Some (u, v, stats) when u = uid && v = version -> stats
    | _ ->
      let stats = collect table in
      Hashtbl.replace cache key (uid, version, stats);
      stats
  in
  Mutex.unlock cache_mu;
  result

(** Fraction of rows expected to satisfy [col = const]: 1 / NDV (the
    classic uniform assumption); 1.0 for empty/unknown columns. *)
let eq_selectivity (stats : t) pos =
  if pos < 0 || pos >= Array.length stats.columns then 1.0
  else
    let c = stats.columns.(pos) in
    if c.distinct <= 0 then 1.0 else 1.0 /. float_of_int c.distinct

let null_key = [| Value.Null |]

(* NDV of column [pos] from a single-column index on it, nulls excluded as
   in [collect_column]. *)
let index_ndv (table : Table.t) pos =
  List.find_map
    (fun ix ->
      let ps = Index.positions ix in
      if Array.length ps = 1 && ps.(0) = pos then
        Some
          (Index.distinct_keys ix - if Index.mem ix null_key then 1 else 0)
      else None)
    (Table.indexes table)

(** Estimated row count after applying [col = const] filters on the given
    positions: 1 / NDV per position, from an index where one covers the
    column and from the cached scan otherwise. *)
let estimate_eq_filter (table : Table.t) positions =
  let selectivity =
    List.fold_left
      (fun acc p ->
        match index_ndv table p with
        | Some ndv when ndv > 0 -> acc /. float_of_int ndv
        | Some _ -> acc
        | None -> acc *. eq_selectivity (get table) p)
      1.0 positions
  in
  max 1 (int_of_float (float_of_int (Table.row_count table) *. selectivity))

