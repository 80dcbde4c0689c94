(** The pending-query store — the "internal tables that store the list of
    pending queries" of the paper's coordination component.

    Besides the id → query map, the store maintains a *head index*: for every
    head atom, buckets by answer-relation name plus, per argument position,
    by constant value (with a separate bucket for variable positions).  A
    candidate lookup for a partially-ground answer constraint intersects the
    per-position buckets, which prunes most of the pending set before any
    unification is attempted. *)

open Relational
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type t = {
  mutable queries : Equery.t Int_map.t;
  by_rel : (string, Int_set.t ref) Hashtbl.t;
  by_const : (string * int * Value.t, Int_set.t ref) Hashtbl.t;
  by_var : (string * int, Int_set.t ref) Hashtbl.t;
  (* mirror index over body answer constraints, used by the cascade to find
     queries a newly committed tuple could help *)
  c_by_rel : (string, Int_set.t ref) Hashtbl.t;
  c_by_const : (string * int * Value.t, Int_set.t ref) Hashtbl.t;
  c_by_var : (string * int, Int_set.t ref) Hashtbl.t;
  (* reverse index: base-table name (lowercased) → ids of pending queries
     whose db-atom sub-plans read that table; drives the poke's
     table-level widening and doubles as the base bucket of the
     constraint index below *)
  by_table : (string, Int_set.t ref) Hashtbl.t;
  (* constraint index over db-atom sub-plans, keyed on the base-table
     equality predicates [Plan.constraints] extracts: per (table, column)
     either a constant bucket (the access pins the column to that value) or
     a variable bucket (the access leaves it free).  [probe] intersects
     per-column buckets for a committed tuple, the same shape as the head
     index above — candidates are looked up, not enumerated. *)
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
    c_by_rel = Hashtbl.create 64;
    c_by_const = Hashtbl.create 256;
    c_by_var = Hashtbl.create 64;
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
let get t id = Int_map.find_opt id t.queries

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

(* One operation applied uniformly across all seven differently-keyed bucket
   tables: [add] inserts the id (creating the bucket), [remove] deletes the
   id and drops the bucket when it empties, so churny register/fulfil
   workloads don't grow the index tables without bound. *)
type bucket_op = { op : 'k. ('k, Int_set.t ref) Hashtbl.t -> 'k -> unit }

let add_op id = { op = (fun tbl k -> let b = bucket tbl k in b := Int_set.add id !b) }

let remove_op id =
  {
    op =
      (fun tbl k ->
        match Hashtbl.find_opt tbl k with
        | None -> ()
        | Some b ->
          b := Int_set.remove id !b;
          if Int_set.is_empty !b then Hashtbl.remove tbl k);
  }

let index_atoms atoms ~rel_tbl ~const_tbl ~var_tbl { op } =
  List.iter
    (fun (h : Atom.t) ->
      let rel = rel_key h.Atom.rel in
      op rel_tbl rel;
      Array.iteri
        (fun i arg ->
          match arg with
          | Term.Const v -> op const_tbl (rel, i, v)
          | Term.Var _ -> op var_tbl (rel, i))
        h.Atom.args)
    atoms

(** Base tables a query's db-atom sub-plans scan, lowercased, deduplicated. *)
let tables_read (q : Equery.t) : string list =
  List.concat_map
    (fun (d : Equery.db_atom) -> Plan.tables d.Equery.plan)
    q.Equery.db_atoms
  |> List.sort_uniq String.compare

(* Index one table access (table, arity, eqs) into the constraint index:
   each column with an extracted [= const] lands in a constant bucket, every
   other column in the table's variable bucket.  The walk is deterministic,
   so add and remove visit the same keys; duplicate visits (two accesses of
   one table) are harmless because buckets are sets. *)
let index_access t { op } (table, arity, eqs) =
  (match Hashtbl.find_opt t.t_arity table with
  | Some a when a <= arity -> ()
  | _ -> Hashtbl.replace t.t_arity table arity);
  for i = 0 to arity - 1 do
    match
      List.filter_map (fun (j, v) -> if j = i then Some v else None) eqs
    with
    | [] -> op t.t_by_var (table, i)
    | vs -> List.iter (fun v -> op t.t_by_const (table, i, norm_value v)) vs
  done

(* Answer constraints viewed as table accesses: answer relations ARE catalog
   tables (every fulfilment writes them through the transaction manager), so
   an [IN ANSWER R] template is an access of table [r] pinning each constant
   argument position.  Indexing these alongside the db-atom constraints
   makes a committed answer tuple probe straight to the partners waiting on
   it — cross-query partner lookup is sublinear, like db-atom lookup. *)
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

let index_constraints t (q : Equery.t) bop =
  List.iter
    (fun (d : Equery.db_atom) ->
      List.iter (index_access t bop) (Plan.constraints d.Equery.plan))
    q.Equery.db_atoms;
  List.iter (index_access t bop) (ans_accesses q)

let index_heads t (q : Equery.t) bop =
  index_atoms q.Equery.heads ~rel_tbl:t.by_rel ~const_tbl:t.by_const
    ~var_tbl:t.by_var bop;
  index_atoms q.Equery.ans_atoms ~rel_tbl:t.c_by_rel ~const_tbl:t.c_by_const
    ~var_tbl:t.c_by_var bop;
  (* a query is a reader of the base tables its sub-plans scan AND of the
     answer relations its constraints watch (those change through ordinary
     transactions too — every fulfilment inserts answer tuples).  A query
     touching neither lands in the "" bucket, which [reader_ids] always
     includes: nothing localises its retries. *)
  let ans_tables =
    List.map (fun (tbl, _, _) -> tbl) (ans_accesses q)
    |> List.sort_uniq String.compare
  in
  let names =
    match List.sort_uniq String.compare (tables_read q @ ans_tables) with
    | [] -> [ "" ]
    | names -> names
  in
  List.iter (fun name -> bop.op t.by_table name) names;
  index_constraints t q bop

let add t (q : Equery.t) =
  if q.Equery.id = 0 then
    Errors.internalf "pending store: query has no assigned id";
  t.queries <- Int_map.add q.Equery.id q t.queries;
  t.n <- t.n + 1;
  t.peak <- max t.peak t.n;
  index_heads t q (add_op q.Equery.id)

let remove t id =
  match Int_map.find_opt id t.queries with
  | None -> ()
  | Some q ->
    t.queries <- Int_map.remove id t.queries;
    t.n <- t.n - 1;
    index_heads t q (remove_op id)

(** Total number of live buckets across the id-set index tables — the churn
    test asserts this returns to baseline after an add/remove cycle.
    [t_arity] is excluded: it is per-table metadata bounded by the number of
    distinct table names, not by query churn. *)
let bucket_count t =
  Hashtbl.length t.by_rel + Hashtbl.length t.by_const + Hashtbl.length t.by_var
  + Hashtbl.length t.c_by_rel + Hashtbl.length t.c_by_const
  + Hashtbl.length t.c_by_var + Hashtbl.length t.by_table
  + Hashtbl.length t.t_by_const + Hashtbl.length t.t_by_var

let exists f t = Int_map.exists (fun _ q -> f q) t.queries
let to_list t = Int_map.fold (fun _ q acc -> q :: acc) t.queries [] |> List.rev

let lookup_indexed t ~rel_tbl ~const_tbl ~var_tbl (subst : Subst.t)
    (atom : Atom.t) : Equery.t list =
  let rel = rel_key atom.Atom.rel in
  match Hashtbl.find_opt rel_tbl rel with
  | None -> []
  | Some base ->
    let resolved = Array.map (Subst.walk subst) atom.Atom.args in
    let ids =
      Array.to_list resolved
      |> List.mapi (fun i term -> i, term)
      |> List.fold_left
           (fun acc (i, term) ->
             match term with
             | Term.Var _ -> acc
             | Term.Const v ->
               let with_const =
                 match Hashtbl.find_opt const_tbl (rel, i, v) with
                 | Some b -> !b
                 | None -> Int_set.empty
               in
               let with_var =
                 match Hashtbl.find_opt var_tbl (rel, i) with
                 | Some b -> !b
                 | None -> Int_set.empty
               in
               Int_set.inter acc (Int_set.union with_const with_var))
           !base
    in
    Int_set.elements ids
    |> List.filter_map (fun id -> Int_map.find_opt id t.queries)

(** [candidates t subst atom] — pending queries whose head might unify with
    [atom] (resolved under [subst]), found by intersecting per-position
    buckets. *)
let candidates t (subst : Subst.t) (atom : Atom.t) : Equery.t list =
  lookup_indexed t ~rel_tbl:t.by_rel ~const_tbl:t.by_const ~var_tbl:t.by_var
    subst atom

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

(** [interested t atom] — pending queries one of whose *answer constraints*
    could unify with the ground atom [atom]; the coordinator's cascade uses
    this to retry only the queries a fresh answer tuple could help. *)
let interested t (atom : Atom.t) : Equery.t list =
  lookup_indexed t ~rel_tbl:t.c_by_rel ~const_tbl:t.c_by_const
    ~var_tbl:t.c_by_var Subst.empty atom

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Equery.pp) (to_list t)
