(** Plan execution.

    Results are materialised lists of tuples.  Row order is deterministic:
    scans produce rows in slot order, joins preserve left-major order, and
    sorts are stable. *)

let agg_init = function
  | Plan.Count_star | Plan.Count _ -> Value.Int 0
  | Plan.Sum _ -> Value.Null
  | Plan.Avg _ -> Value.Null
  | Plan.Min _ | Plan.Max _ -> Value.Null

(* Avg keeps (sum, count) on the side; we fold with an assoc state list. *)
type agg_state = { mutable acc : Value.t; mutable count : int; mutable fsum : float }

let agg_step st (a : Plan.agg) row =
  match a with
  | Plan.Count_star -> st.count <- st.count + 1
  | Plan.Count e ->
    if not (Value.is_null (Expr.eval row e)) then st.count <- st.count + 1
  | Plan.Sum e -> (
    match Expr.eval row e with
    | Value.Null -> ()
    | v ->
      st.acc <- (if Value.is_null st.acc then v else Value.add st.acc v))
  | Plan.Avg e -> (
    match Expr.eval row e with
    | Value.Null -> ()
    | v ->
      st.fsum <- st.fsum +. Value.as_float v;
      st.count <- st.count + 1)
  | Plan.Min e -> (
    match Expr.eval row e with
    | Value.Null -> ()
    | v ->
      if Value.is_null st.acc || Value.compare v st.acc < 0 then st.acc <- v)
  | Plan.Max e -> (
    match Expr.eval row e with
    | Value.Null -> ()
    | v ->
      if Value.is_null st.acc || Value.compare v st.acc > 0 then st.acc <- v)

let agg_final st = function
  | Plan.Count_star | Plan.Count _ -> Value.Int st.count
  | Plan.Sum _ | Plan.Min _ | Plan.Max _ -> st.acc
  | Plan.Avg _ ->
    if st.count = 0 then Value.Null
    else Value.Float (st.fsum /. float_of_int st.count)

(* The one evaluator.  [observe] sees every node's output rows as the node
   completes (post-order); {!run} passes a no-op and {!explain_analyze}
   counts them. *)
let rec eval observe (cat : Catalog.t) (plan : Plan.t) : Tuple.t list =
  let rows = eval_op observe cat plan in
  observe plan rows;
  rows

and eval_op observe (cat : Catalog.t) (plan : Plan.t) : Tuple.t list =
  let run cat plan = eval observe cat plan in
  match plan.Plan.op with
  | Plan.Values rows -> rows
  | Plan.Scan { table } -> Table.rows (Catalog.find cat table)
  | Plan.Index_lookup { table; positions; key } ->
    let t = Catalog.find cat table in
    Table.lookup_eq t positions key |> List.map (Table.get_exn t)
  | Plan.Filter (pred, input) ->
    List.filter (fun row -> Expr.holds row pred) (run cat input)
  | Plan.Project (items, input) ->
    run cat input
    |> List.map (fun row ->
           Array.of_list (List.map (fun (e, _) -> Expr.eval row e) items))
  | Plan.Nl_join { left; right; pred } ->
    let lrows = run cat left and rrows = run cat right in
    List.concat_map
      (fun l ->
        List.filter_map
          (fun r ->
            let joined = Tuple.concat l r in
            match pred with
            | None -> Some joined
            | Some p -> if Expr.holds joined p then Some joined else None)
          rrows)
      lrows
  | Plan.Left_join { left; right; pred } ->
    let rrows = run cat right in
    let pad =
      match rrows with
      | r :: _ -> Array.make (Array.length r) Value.Null
      | [] ->
        Array.make
          (Schema.arity plan.Plan.schema
          - Schema.arity left.Plan.schema)
          Value.Null
    in
    run cat left
    |> List.concat_map (fun l ->
           let matches =
             List.filter_map
               (fun r ->
                 let joined = Tuple.concat l r in
                 match pred with
                 | None -> Some joined
                 | Some p -> if Expr.holds joined p then Some joined else None)
               rrows
           in
           if matches = [] then [ Tuple.concat l pad ] else matches)
  | Plan.Set_op { kind; all; left; right } -> (
    let lrows = run cat left and rrows = run cat right in
    let counts rows =
      let tbl = Tuple.Tbl.create 64 in
      List.iter
        (fun r ->
          Tuple.Tbl.replace tbl r
            (1 + Option.value ~default:0 (Tuple.Tbl.find_opt tbl r)))
        rows;
      tbl
    in
    let dedup rows =
      let seen = Tuple.Tbl.create 64 in
      List.filter
        (fun r ->
          if Tuple.Tbl.mem seen r then false
          else begin
            Tuple.Tbl.add seen r ();
            true
          end)
        rows
    in
    match kind, all with
    | Plan.Union, true -> lrows @ rrows
    | Plan.Union, false -> dedup (lrows @ rrows)
    | Plan.Intersect, false ->
      let rset = counts rrows in
      dedup (List.filter (fun r -> Tuple.Tbl.mem rset r) lrows)
    | Plan.Intersect, true ->
      (* multiset intersection: min of multiplicities *)
      let rset = counts rrows in
      List.filter
        (fun r ->
          match Tuple.Tbl.find_opt rset r with
          | Some n when n > 0 ->
            Tuple.Tbl.replace rset r (n - 1);
            true
          | _ -> false)
        lrows
    | Plan.Except, false ->
      let rset = counts rrows in
      dedup (List.filter (fun r -> not (Tuple.Tbl.mem rset r)) lrows)
    | Plan.Except, true ->
      (* multiset difference *)
      let rset = counts rrows in
      List.filter
        (fun r ->
          match Tuple.Tbl.find_opt rset r with
          | Some n when n > 0 ->
            Tuple.Tbl.replace rset r (n - 1);
            false
          | _ -> true)
        lrows)
  | Plan.Hash_join { left; right; left_keys; right_keys; residual } ->
    let rrows = run cat right in
    let table = Tuple.Tbl.create (max 16 (List.length rrows)) in
    List.iter
      (fun r ->
        let key = Tuple.project right_keys r in
        let prev = Option.value ~default:[] (Tuple.Tbl.find_opt table key) in
        Tuple.Tbl.replace table key (r :: prev))
      (List.rev rrows);
    run cat left
    |> List.concat_map (fun l ->
           let key = Tuple.project left_keys l in
           (* Join keys containing NULL never match (SQL semantics). *)
           if Array.exists Value.is_null key then []
           else
             Option.value ~default:[] (Tuple.Tbl.find_opt table key)
             |> List.filter_map (fun r ->
                    let joined = Tuple.concat l r in
                    match residual with
                    | None -> Some joined
                    | Some p -> if Expr.holds joined p then Some joined else None))
  | Plan.Aggregate { group_by; aggs; input } ->
    let rows = run cat input in
    let groups = Tuple.Tbl.create 64 in
    let order = ref [] in
    List.iter
      (fun row ->
        let key = Array.of_list (List.map (Expr.eval row) group_by) in
        let states =
          match Tuple.Tbl.find_opt groups key with
          | Some s -> s
          | None ->
            let s =
              List.map
                (fun (a, _) -> a, { acc = agg_init a; count = 0; fsum = 0. })
                aggs
            in
            Tuple.Tbl.add groups key s;
            order := key :: !order;
            s
        in
        List.iter (fun (a, st) -> agg_step st a row) states)
      rows;
    let emit key =
      let states = Tuple.Tbl.find groups key in
      Tuple.concat key
        (Array.of_list (List.map (fun (a, st) -> agg_final st a) states))
    in
    if group_by = [] && Tuple.Tbl.length groups = 0 then
      (* Global aggregate over an empty input still yields one row. *)
      [
        Array.of_list
          (List.map
             (fun (a, _) ->
               agg_final { acc = agg_init a; count = 0; fsum = 0. } a)
             aggs);
      ]
    else List.rev_map emit !order
  | Plan.Sort (keys, input) ->
    let rows = run cat input in
    let cmp a b =
      let rec loop = function
        | [] -> 0
        | (e, ord) :: rest -> (
          let c = Value.compare (Expr.eval a e) (Expr.eval b e) in
          let c = match ord with Plan.Asc -> c | Plan.Desc -> -c in
          match c with 0 -> loop rest | c -> c)
      in
      loop keys
    in
    List.stable_sort cmp rows
  | Plan.Distinct input ->
    let seen = Tuple.Tbl.create 64 in
    List.filter
      (fun row ->
        if Tuple.Tbl.mem seen row then false
        else begin
          Tuple.Tbl.add seen row ();
          true
        end)
      (run cat input)
  | Plan.Limit (n, input) ->
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take n (run cat input)

(** [run cat plan] — execute a plan to a materialised row list. *)
let run cat plan = eval (fun _ _ -> ()) cat plan

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE support: execute while recording per-node output
   cardinalities (keyed by physical node identity), then render the plan
   tree annotated with actual row counts. *)

let node_label (plan : Plan.t) =
  match plan.Plan.op with
  | Plan.Values rows -> Printf.sprintf "values[%d]" (List.length rows)
  | Plan.Scan { table } -> "scan " ^ table
  | Plan.Index_lookup { table; _ } -> "index_lookup " ^ table
  | Plan.Filter (pred, _) -> "filter " ^ Expr.to_string pred
  | Plan.Project (items, _) ->
    Printf.sprintf "project [%d col(s)]" (List.length items)
  | Plan.Nl_join _ -> "nl_join"
  | Plan.Left_join _ -> "left_join"
  | Plan.Set_op { kind; all; _ } ->
    (match kind with
    | Plan.Union -> "union"
    | Plan.Intersect -> "intersect"
    | Plan.Except -> "except")
    ^ (if all then "_all" else "")
  | Plan.Hash_join _ -> "hash_join"
  | Plan.Aggregate { group_by; aggs; _ } ->
    Printf.sprintf "aggregate [%d group expr(s), %d agg(s)]"
      (List.length group_by) (List.length aggs)
  | Plan.Sort _ -> "sort"
  | Plan.Distinct _ -> "distinct"
  | Plan.Limit (n, _) -> Printf.sprintf "limit %d" n

let children (plan : Plan.t) =
  match plan.Plan.op with
  | Plan.Values _ | Plan.Scan _ | Plan.Index_lookup _ -> []
  | Plan.Filter (_, i)
  | Plan.Project (_, i)
  | Plan.Sort (_, i)
  | Plan.Distinct i
  | Plan.Limit (_, i)
  | Plan.Aggregate { input = i; _ } -> [ i ]
  | Plan.Nl_join { left; right; _ }
  | Plan.Left_join { left; right; _ }
  | Plan.Set_op { left; right; _ }
  | Plan.Hash_join { left; right; _ } -> [ left; right ]

(** [explain_analyze cat plan] executes the plan and returns the rows plus
    the plan tree annotated with each operator's actual output cardinality. *)
let explain_analyze cat plan =
  let counts : (Plan.t * int) list ref = ref [] in
  let observe node rows = counts := (node, List.length rows) :: !counts in
  let rows = eval observe cat plan in
  let count_of node =
    let rec find = function
      | [] -> None
      | (n, c) :: rest -> if n == node then Some c else find rest
    in
    find !counts
  in
  let buf = Buffer.create 256 in
  let rec render indent node =
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf (node_label node);
    (match count_of node with
    | Some c -> Buffer.add_string buf (Printf.sprintf "  -> %d row(s)" c)
    | None -> ());
    Buffer.add_char buf '\n';
    List.iter (render (indent + 2)) (children node)
  in
  render 0 plan;
  rows, Buffer.contents buf
