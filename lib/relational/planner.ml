(** Rule-based planner for select-project-join blocks.

    Input: an ordered list of sources (alias × table) and a WHERE expression
    resolved against the *source-order concatenation* of their columns.
    Output: a plan whose schema is exactly that concatenation (a restoring
    projection is added if join reordering permuted columns), so expressions
    that the compiler resolved against source order stay valid on top of the
    produced plan.

    Rules applied:
    - single-source conjuncts are pushed below the joins;
    - equality-with-constant conjuncts that cover an index turn the scan
      into an index point lookup;
    - column-to-column equality conjuncts across two sources drive hash
      joins; remaining cross-source conjuncts become join residuals/filters;
    - join order is greedy smallest-estimated-cardinality-first among
      sources connected by an equi-join predicate. *)

type origin =
  | Stored of Table.t
  | Derived of Schema.t * Tuple.t list
      (** a materialised subquery result (FROM (SELECT …) alias) *)

type source = { alias : string; origin : origin }

(* A conjunct together with the set of source indices it touches. *)
type clause = { expr : Expr.t; touches : int list; mutable applied : bool }

let make_source alias table = { alias; origin = Stored table }

(** [make_derived alias schema rows] — a FROM-clause subquery, already
    evaluated. *)
let make_derived alias schema rows = { alias; origin = Derived (schema, rows) }

let source_schema src =
  match src.origin with
  | Stored table -> Table.schema table
  | Derived (schema, _) -> schema

(* ------------------------------------------------------------------ *)

let source_of_col offsets arities col =
  let n = Array.length offsets in
  let rec loop i =
    if i >= n then
      Errors.internalf "planner: column #%d beyond all sources" col
    else if col >= offsets.(i) && col < offsets.(i) + arities.(i) then i
    else loop (i + 1)
  in
  loop 0

(* [col = const] conjuncts with a non-NULL constant, as ((position,
   constant), conjunct), and the other conjuncts. *)
let split_eq_consts conjuncts =
  List.partition_map
    (fun e ->
      match e with
      | Expr.Binop (Expr.Eq, Expr.Col p, Expr.Const v)
      | Expr.Binop (Expr.Eq, Expr.Const v, Expr.Col p)
        when not (Value.is_null v) -> Left ((p, v), e)
      | _ -> Right e)
    conjuncts

(* The first index of [table] every column of which an equality pins: the
   index, its lookup key, and the conjuncts the lookup does not absorb. *)
let probe_of table eq_consts rest =
  let usable =
    List.find_opt
      (fun ix ->
        Array.for_all
          (fun p -> List.exists (fun ((q, _), _) -> q = p) eq_consts)
          (Index.positions ix))
      (Table.indexes table)
  in
  Option.map
    (fun ix ->
      let positions = Index.positions ix in
      let key =
        Array.map
          (fun p ->
            let (_, v), _ = List.find (fun ((q, _), _) -> q = p) eq_consts in
            v)
          positions
      in
      let covered p = Array.exists (fun q -> q = p) positions in
      let leftover =
        rest
        @ List.filter_map
            (fun ((p, _), e) -> if covered p then None else Some e)
            eq_consts
      in
      (ix, key, leftover))
    usable

let index_probe table conjuncts =
  let eq_consts, rest = split_eq_consts conjuncts in
  probe_of table eq_consts rest

(* Try to turn local equality-with-constant conjuncts into an index lookup.
   Returns the base plan and the conjuncts that the lookup did not absorb. *)
let rec base_plan src local_conjuncts =
  match src.origin with
  | Derived (schema, rows) ->
    (* materialised subquery: no indexes; estimate by row count *)
    let plan =
      Plan.filter (Expr.conjoin local_conjuncts)
        (Plan.values (Schema.rename schema src.alias) rows)
    in
    plan, List.length rows
  | Stored table -> base_plan_stored src table local_conjuncts

and base_plan_stored src table local_conjuncts =
  let eq_consts, rest = split_eq_consts local_conjuncts in
  match probe_of table eq_consts rest with
  | Some (ix, key, leftover) ->
    let positions = Index.positions ix in
    let plan = Plan.index_lookup table ~alias:src.alias ~positions ~key in
    let estimate =
      if Index.is_unique ix then 1
      else Tablestats.estimate_eq_filter table (Array.to_list positions)
    in
    Plan.filter (Expr.conjoin leftover) plan, estimate
  | None ->
    let plan = Plan.scan table ~alias:src.alias in
    let estimate =
      if eq_consts = [] then Table.row_count table
      else
        Tablestats.estimate_eq_filter table
          (List.map (fun ((p, _), _) -> p) eq_consts)
    in
    Plan.filter (Expr.conjoin local_conjuncts) plan, estimate

(* ------------------------------------------------------------------ *)

let plan_joins (sources : source list) (where : Expr.t) : Plan.t =
  let sources = Array.of_list sources in
  let n = Array.length sources in
  if n = 0 then
    (* SELECT without FROM: a single empty row, filtered by WHERE. *)
    Plan.filter where (Plan.values (Schema.anonymous []) [ [||] ])
  else begin
    let arities = Array.map (fun s -> Schema.arity (source_schema s)) sources in
    let offsets = Array.make n 0 in
    for i = 1 to n - 1 do
      offsets.(i) <- offsets.(i - 1) + arities.(i - 1)
    done;
    let total = offsets.(n - 1) + arities.(n - 1) in
    let clauses =
      List.map
        (fun e ->
          let touches =
            List.map (source_of_col offsets arities) (Expr.columns e)
            |> List.sort_uniq Stdlib.compare
          in
          { expr = e; touches; applied = false })
        (Expr.conjuncts where)
    in
    (* Build base plans with pushed-down local predicates. *)
    let bases =
      Array.mapi
        (fun i src ->
          let local =
            List.filter (fun c -> c.touches = [ i ]) clauses
            |> List.map (fun c ->
                   c.applied <- true;
                   Expr.remap (fun g -> g - offsets.(i)) c.expr)
          in
          base_plan src local)
        sources
    in
    (* pos_map.(g) = position of global column g in the current intermediate
       tuple, or -1 when its source is not yet joined. *)
    let pos_map = Array.make total (-1) in
    let placed = Array.make n false in
    let place i at =
      placed.(i) <- true;
      for l = 0 to arities.(i) - 1 do
        pos_map.(offsets.(i) + l) <- at + l
      done
    in
    (* Pick the cheapest starting source. *)
    let start = ref 0 in
    for i = 1 to n - 1 do
      if snd bases.(i) < snd bases.(!start) then start := i
    done;
    let current = ref (fst bases.(!start)) in
    let current_arity = ref arities.(!start) in
    place !start 0;
    (* A clause is "ready" once all its sources are placed. *)
    let ready c = List.for_all (fun i -> placed.(i)) c.touches in
    let remap_placed e = Expr.remap (fun g -> pos_map.(g)) e in
    let apply_ready_filters () =
      let pending =
        List.filter (fun c -> (not c.applied) && ready c) clauses
      in
      List.iter (fun c -> c.applied <- true) pending;
      if pending <> [] then
        current :=
          Plan.filter
            (Expr.conjoin (List.map (fun c -> remap_placed c.expr) pending))
            !current
    in
    apply_ready_filters ();
    (* Hash-joinable equality between the placed set and source [i]:
       Col a = Col b with one side placed, other side local to [i]. *)
    let hash_keys_for i =
      List.filter_map
        (fun c ->
          if c.applied then None
          else
            match c.expr with
            | Expr.Binop (Expr.Eq, Expr.Col a, Expr.Col b) ->
              let sa = source_of_col offsets arities a
              and sb = source_of_col offsets arities b in
              if placed.(sa) && sb = i then Some (c, pos_map.(a), b - offsets.(i))
              else if placed.(sb) && sa = i then Some (c, pos_map.(b), a - offsets.(i))
              else None
            | _ -> None)
        clauses
    in
    let remaining () =
      let rec loop i acc = if i < 0 then acc else loop (i - 1) (if placed.(i) then acc else i :: acc) in
      loop (n - 1) []
    in
    while remaining () <> [] do
      let candidates = remaining () in
      (* Prefer a source reachable by hash join; break ties by estimate. *)
      let scored =
        List.map
          (fun i ->
            let keys = hash_keys_for i in
            i, keys, snd bases.(i))
          candidates
      in
      let connected = List.filter (fun (_, keys, _) -> keys <> []) scored in
      let pick_min l =
        List.fold_left
          (fun best x ->
            match best with
            | None -> Some x
            | Some (_, _, be) ->
              let _, _, e = x in
              if e < be then Some x else best)
          None l
      in
      let i, keys, _ =
        match pick_min (if connected <> [] then connected else scored) with
        | Some x -> x
        | None -> assert false
      in
      let right = fst bases.(i) in
      (if keys = [] then current := Plan.nl_join !current right
       else begin
         List.iter (fun (c, _, _) -> c.applied <- true) keys;
         let left_keys = Array.of_list (List.map (fun (_, l, _) -> l) keys) in
         let right_keys = Array.of_list (List.map (fun (_, _, r) -> r) keys) in
         current := Plan.hash_join ~left_keys ~right_keys !current right
       end);
      place i !current_arity;
      current_arity := !current_arity + arities.(i);
      apply_ready_filters ()
    done;
    (* Clauses with no columns (constant predicates). *)
    let consts = List.filter (fun c -> not c.applied) clauses in
    List.iter (fun c -> c.applied <- true) consts;
    if consts <> [] then
      current :=
        Plan.filter (Expr.conjoin (List.map (fun c -> c.expr) consts)) !current;
    (* Restore source order if the greedy order permuted columns. *)
    let identity = ref true in
    Array.iteri (fun g p -> if g <> p then identity := false) pos_map;
    if !identity then !current
    else begin
      let qualified =
        Array.to_list sources
        |> List.concat_map (fun s ->
               let sch = source_schema s in
               List.map
                 (fun (c : Schema.column) ->
                   Schema.{ c with col_name = s.alias ^ "." ^ c.col_name })
                 (Array.to_list sch.Schema.columns))
      in
      let schema =
        Schema.
          {
            name = "<join>";
            columns = Array.of_list qualified;
            primary_key = [];
          }
      in
      let items =
        List.mapi
          (fun g (c : Schema.column) -> Expr.Col pos_map.(g), c.Schema.col_name)
          qualified
      in
      Plan.project_as schema items !current
    end
  end
