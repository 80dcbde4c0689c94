(** The pending-query store — the "internal tables that store the list of
    pending queries" of the paper's coordination component.

    Besides the id → query map, the store maintains a *head index*: for every
    head atom, buckets by answer-relation name plus, per argument position,
    by constant value (with a separate bucket for variable positions).  A
    candidate lookup for a partially-ground answer constraint intersects the
    per-position buckets, which prunes most of the pending set before any
    unification is attempted.

    [add] computes every bucket key of a query once and keeps them next to
    it; [remove] replays the stored keys, so neither walks a sub-plan
    twice. *)

open Relational
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* Every bucket key of one pending query, computed once by [add]. *)
type keys = {
  k_rels : string list;  (** [by_rel]: head relations *)
  k_consts : (string * int * Value.t) list;  (** [by_const] *)
  k_vars : (string * int) list;  (** [by_var] *)
  k_tables : string list;  (** [by_table] *)
  k_t_consts : (string * int * Value.t) list;  (** [t_by_const] *)
  k_t_vars : (string * int) list;  (** [t_by_var] *)
}

type entry = { query : Equery.t; keys : keys }

type t = {
  mutable queries : entry Int_map.t;
  by_rel : (string, Int_set.t ref) Hashtbl.t;
  by_const : (string * int * Value.t, Int_set.t ref) Hashtbl.t;
  by_var : (string * int, Int_set.t ref) Hashtbl.t;
  (* reverse index: base-table name (lowercased) → ids of pending queries
     whose db-atom sub-plans read that table or whose answer constraints
     watch it; drives the poke's table-level widening and doubles as the
     base bucket of the constraint index below *)
  by_table : (string, Int_set.t ref) Hashtbl.t;
  (* constraint index over table accesses, keyed on the base-table
     equality predicates [Plan.constraints] extracts (and on the constant
     positions of answer constraints, which are accesses of the answer
     relation's table): per (table, column) either a constant bucket (the
     access pins the column to that value) or a variable bucket (the
     access leaves it free).  [probe] intersects per-column buckets for a
     committed tuple, the same shape as the head index above — candidates
     are looked up, not enumerated. *)
  t_by_const : (string * int * Value.t, Int_set.t ref) Hashtbl.t;
  t_by_var : (string * int, Int_set.t ref) Hashtbl.t;
  (* smallest access arity ever indexed per table.  [probe] only intersects
     positions below this: a query indexed before a table was dropped and
     recreated with more columns has no bucket membership at the new
     positions, and intersecting there would skip it unsoundly.  Never
     raised on remove (monotone = conservative); bounded by the number of
     distinct table names, not by churn. *)
  t_arity : (string, int) Hashtbl.t;
  mutable n : int;  (** live size, maintained by add/remove *)
  mutable peak : int;
}

let create () =
  {
    queries = Int_map.empty;
    by_rel = Hashtbl.create 64;
    by_const = Hashtbl.create 256;
    by_var = Hashtbl.create 64;
    by_table = Hashtbl.create 64;
    t_by_const = Hashtbl.create 256;
    t_by_var = Hashtbl.create 64;
    t_arity = Hashtbl.create 64;
    n = 0;
    peak = 0;
  }

let size t = t.n
let peak t = t.peak
let mem t id = Int_map.mem id t.queries

let get t id =
  match Int_map.find_opt id t.queries with
  | Some e -> Some e.query
  | None -> None

let bucket tbl k =
  match Hashtbl.find_opt tbl k with
  | Some b -> b
  | None ->
    let b = ref Int_set.empty in
    Hashtbl.add tbl k b;
    b

let rel_key rel = String.lowercase_ascii rel

(** [Value.equal] coerces across Int/Float ([Int 2] = [Float 2.]), but the
    index hashtables key structurally — normalise integral floats to [Int]
    at both index and probe time so a [grp = 2.0] constraint still matches a
    committed [Int 2]. *)
let norm_value : Value.t -> Value.t = function
  | Value.Float f
    when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Value.Int (int_of_float f)
  | v -> v

let add_id tbl k id =
  let b = bucket tbl k in
  b := Int_set.add id !b

(* drops the bucket when it empties, so churny register/fulfil workloads
   don't grow the index tables without bound *)
let remove_id tbl k id =
  match Hashtbl.find_opt tbl k with
  | None -> ()
  | Some b ->
    b := Int_set.remove id !b;
    if Int_set.is_empty !b then Hashtbl.remove tbl k

(** Base tables a query's db-atom sub-plans scan, lowercased, deduplicated. *)
let tables_read (q : Equery.t) : string list =
  List.concat_map
    (fun (d : Equery.db_atom) -> Plan.tables d.Equery.plan)
    q.Equery.db_atoms
  |> List.sort_uniq String.compare

(* Answer constraints viewed as table accesses: answer relations ARE catalog
   tables (every fulfilment writes them through the transaction manager), so
   an [IN ANSWER R] template is an access of table [r] pinning each constant
   argument position.  Indexing these alongside the db-atom constraints
   makes a committed answer tuple probe straight to the queries waiting on
   it — both the poke and the cascade find them with [probe]. *)
let ans_accesses (q : Equery.t) =
  List.map
    (fun (a : Atom.t) ->
      let eqs =
        Array.to_list a.Atom.args
        |> List.mapi (fun i term -> i, term)
        |> List.filter_map (function
             | i, Term.Const v -> Some (i, v)
             | _, Term.Var _ -> None)
      in
      (rel_key a.Atom.rel, Array.length a.Atom.args, eqs))
    q.Equery.ans_atoms

(* Every bucket key of [q], and the arity of each table access (for
   [t_arity]).  Duplicate keys (two accesses of one table) are harmless:
   buckets are sets, and a second remove finds the id already gone. *)
let keys_of (q : Equery.t) =
  let rels = ref [] and consts = ref [] and vars = ref [] in
  List.iter
    (fun (h : Atom.t) ->
      let rel = rel_key h.Atom.rel in
      rels := rel :: !rels;
      Array.iteri
        (fun i arg ->
          match arg with
          | Term.Const v -> consts := (rel, i, v) :: !consts
          | Term.Var _ -> vars := (rel, i) :: !vars)
        h.Atom.args)
    q.Equery.heads;
  (* each column with an extracted [= const] lands in a constant bucket,
     every other column in the table's variable bucket *)
  let t_consts = ref [] and t_vars = ref [] in
  let access (table, arity, eqs) =
    for i = 0 to arity - 1 do
      match
        List.filter_map (fun (j, v) -> if j = i then Some v else None) eqs
      with
      | [] -> t_vars := (table, i) :: !t_vars
      | vs ->
        List.iter (fun v -> t_consts := (table, i, norm_value v) :: !t_consts) vs
    done
  in
  let accesses =
    List.concat_map
      (fun (d : Equery.db_atom) -> Plan.constraints d.Equery.plan)
      q.Equery.db_atoms
    @ ans_accesses q
  in
  List.iter access accesses;
  (* a query is a reader of the base tables its sub-plans scan AND of the
     answer relations its constraints watch (those change through ordinary
     transactions too — every fulfilment inserts answer tuples).  A query
     touching neither lands in the "" bucket, which [reader_ids] always
     includes: nothing localises its retries. *)
  let ans_tables = List.map (fun (a : Atom.t) -> rel_key a.Atom.rel) q.Equery.ans_atoms in
  let tables =
    match List.sort_uniq String.compare (tables_read q @ ans_tables) with
    | [] -> [ "" ]
    | names -> names
  in
  ( {
      k_rels = !rels;
      k_consts = !consts;
      k_vars = !vars;
      k_tables = tables;
      k_t_consts = !t_consts;
      k_t_vars = !t_vars;
    },
    List.map (fun (table, arity, _) -> table, arity) accesses )

let add t (q : Equery.t) =
  let id = q.Equery.id in
  if id = 0 then Errors.internalf "pending store: query has no assigned id";
  let keys, arities = keys_of q in
  t.queries <- Int_map.add id { query = q; keys } t.queries;
  t.n <- t.n + 1;
  t.peak <- max t.peak t.n;
  List.iter
    (fun (table, arity) ->
      match Hashtbl.find_opt t.t_arity table with
      | Some a when a <= arity -> ()
      | _ -> Hashtbl.replace t.t_arity table arity)
    arities;
  List.iter (fun k -> add_id t.by_rel k id) keys.k_rels;
  List.iter (fun k -> add_id t.by_const k id) keys.k_consts;
  List.iter (fun k -> add_id t.by_var k id) keys.k_vars;
  List.iter (fun k -> add_id t.by_table k id) keys.k_tables;
  List.iter (fun k -> add_id t.t_by_const k id) keys.k_t_consts;
  List.iter (fun k -> add_id t.t_by_var k id) keys.k_t_vars

let remove t id =
  match Int_map.find_opt id t.queries with
  | None -> ()
  | Some { keys; _ } ->
    t.queries <- Int_map.remove id t.queries;
    t.n <- t.n - 1;
    List.iter (fun k -> remove_id t.by_rel k id) keys.k_rels;
    List.iter (fun k -> remove_id t.by_const k id) keys.k_consts;
    List.iter (fun k -> remove_id t.by_var k id) keys.k_vars;
    List.iter (fun k -> remove_id t.by_table k id) keys.k_tables;
    List.iter (fun k -> remove_id t.t_by_const k id) keys.k_t_consts;
    List.iter (fun k -> remove_id t.t_by_var k id) keys.k_t_vars

(** Total number of live buckets across the id-set index tables — the churn
    test asserts this returns to baseline after an add/remove cycle.
    [t_arity] is excluded: it is per-table metadata bounded by the number of
    distinct table names, not by query churn. *)
let bucket_count t =
  Hashtbl.length t.by_rel + Hashtbl.length t.by_const + Hashtbl.length t.by_var
  + Hashtbl.length t.by_table + Hashtbl.length t.t_by_const
  + Hashtbl.length t.t_by_var

let exists f t = Int_map.exists (fun _ e -> f e.query) t.queries

let to_list t =
  Int_map.fold (fun _ e acc -> e.query :: acc) t.queries [] |> List.rev

(* Ids of pending queries whose head might unify with [atom] resolved
   under [subst]: the relation's bucket, intersected per constant position
   with that constant's bucket plus the position's variable bucket. *)
let candidate_ids t (subst : Subst.t) (atom : Atom.t) : Int_set.t =
  let rel = rel_key atom.Atom.rel in
  match Hashtbl.find_opt t.by_rel rel with
  | None -> Int_set.empty
  | Some base ->
    let ids = ref !base in
    Array.iteri
      (fun i arg ->
        match Subst.walk subst arg with
        | Term.Var _ -> ()
        | Term.Const v ->
          let with_const =
            match Hashtbl.find_opt t.by_const (rel, i, v) with
            | Some b -> !b
            | None -> Int_set.empty
          in
          let with_var =
            match Hashtbl.find_opt t.by_var (rel, i) with
            | Some b -> !b
            | None -> Int_set.empty
          in
          ids := Int_set.inter !ids (Int_set.union with_const with_var))
      atom.Atom.args;
    !ids

(** [candidates t subst atom] — pending queries whose head might unify with
    [atom] (resolved under [subst]), found by intersecting per-position
    buckets. *)
let candidates t (subst : Subst.t) (atom : Atom.t) : Equery.t list =
  Int_set.elements (candidate_ids t subst atom) |> List.filter_map (get t)

let exists_candidate t (atom : Atom.t) f =
  Int_set.exists
    (fun id -> f (Int_map.find id t.queries).query)
    (candidate_ids t Subst.empty atom)

(** [reader_ids t names] — sorted ids of pending queries reading (or
    watching) one of the named tables, case-insensitively, plus the ""
    bucket; [poke_delta] unions these with {!probe} hits before resolving
    to queries. *)
let reader_ids t (names : string list) : int list =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt t.by_table (rel_key name) with
      | Some b -> Int_set.union acc !b
      | None -> acc)
    Int_set.empty ("" :: names)
  |> Int_set.elements

(** [probe t ~table row] — sorted ids of pending queries with at least one
    db-atom access of [table] whose extracted equality constraints [row]
    satisfies: per column, the query either pins it to the row's value or
    leaves it unconstrained.  A miss means every access of [table] in that
    query pins some column to a different constant, so the row cannot enter
    any of those accesses' outputs and the query's result is unchanged.

    Cost: the starting candidate set is the constant bucket of a column
    {i every} reader pins (no variable bucket) when one exists — on
    selective workloads that is the small set of queries asking for exactly
    this value, and the remaining columns are membership checks per
    candidate, so the probe is sublinear in the table's reader count.  With
    no such column it degenerates to filtering the full reader set — never
    worse than table-level targeting.  Columns at or beyond the smallest
    indexed arity for [table] are ignored (sound over-approximation across
    drop/recreate with a wider schema). *)
let probe t ~table (row : Tuple.t) : int list =
  let table = rel_key table in
  match Hashtbl.find_opt t.by_table table with
  | None -> []
  | Some base ->
    let n_cols =
      match Hashtbl.find_opt t.t_arity table with
      | Some a -> min a (Array.length row)
      | None -> 0
    in
    let consts =
      Array.init n_cols (fun i ->
          Hashtbl.find_opt t.t_by_const (table, i, norm_value row.(i)))
    in
    let vars =
      Array.init n_cols (fun i -> Hashtbl.find_opt t.t_by_var (table, i))
    in
    (* a column with no variable bucket is pinned by every reader: its
       constant bucket for the row's value bounds the whole result *)
    let rec start i =
      if i >= n_cols then !base
      else if vars.(i) <> None then start (i + 1)
      else match consts.(i) with None -> Int_set.empty | Some b -> !b
    in
    let admits id i =
      (match consts.(i) with Some b -> Int_set.mem id !b | None -> false)
      || match vars.(i) with Some b -> Int_set.mem id !b | None -> false
    in
    let ok id =
      let rec check i = i >= n_cols || (admits id i && check (i + 1)) in
      check 0
    in
    Int_set.elements (Int_set.filter ok (start 0))

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Equery.pp) (to_list t)
