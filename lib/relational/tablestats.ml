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

(** Estimated row count after applying [col = const] filters on the given
    positions. *)
let estimate_eq_filter (table : Table.t) positions =
  let stats = get table in
  let selectivity =
    List.fold_left (fun acc p -> acc *. eq_selectivity stats p) 1.0 positions
  in
  max 1 (int_of_float (float_of_int stats.rows *. selectivity))

