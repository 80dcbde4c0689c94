(** Answer relations.

    Answer relations are ordinary tables living in the system's catalog (so
    they participate in transactions and are visible to the admin interface)
    but with *set* semantics: inserting a duplicate tuple is a no-op.  They
    must be declared before queries can refer to them — declaration fixes
    the schema that heads and constraints are validated against. *)

open Relational

(* One declared relation with the matcher's two indexes: the full row
   (set-semantics membership) and the first column (the common "partner
   name is ground, rest is variable" constraint shape). *)
type rel = { table : Table.t; full : Index.t; first : Index.t option }
type t = { db : Database.t; mutable rels : rel list }

let create db = { db; rels = [] }

let ensure_index table name positions =
  match Table.index_named table name with
  | Some ix -> ix
  | None -> Table.create_index table name positions

let register t table =
  let arity = Schema.arity (Table.schema table) in
  let full = ensure_index table "#ans_full" (Array.init arity Fun.id) in
  let first =
    if arity > 1 then Some (ensure_index table "#ans_first" [| 0 |]) else None
  in
  t.rels <- { table; full; first } :: t.rels;
  table

(** [declare t schema] creates the answer relation (a real table) with the
    matcher's indexes. *)
let declare t schema = register t (Database.create_table t.db schema)

(** [adopt t name] registers an *existing* table (e.g. one rebuilt by WAL
    recovery) as an answer relation, creating the matcher's indexes if they
    are missing. *)
let adopt t name = register t (Database.find_table t.db name)

(* Relation names compare case-insensitively and without allocating: this
   runs on every membership test of the match path. *)
let rec rel_opt name = function
  | [] -> None
  | r :: rest ->
    if Atom.rel_equal (Table.name r.table) name then Some r else rel_opt name rest

let find_opt t rel =
  match rel_opt rel t.rels with Some r -> Some r.table | None -> None

let find_rel t rel =
  match rel_opt rel t.rels with
  | Some r -> r
  | None -> Errors.fail (Errors.No_such_table ("answer relation " ^ rel))

let find t rel = (find_rel t rel).table

let relation_names t = List.map (fun r -> Table.name r.table) t.rels

let contains t rel (row : Tuple.t) = Index.mem (find_rel t rel).full row

(** [insert txn t rel row] — set semantics; [true] if the tuple was new. *)
let insert txn t rel row =
  if contains t rel row then false
  else begin
    ignore (Txn.insert txn (find t rel) row);
    true
  end

(** [may_supply t atom] — whether an existing tuple could unify with
    [atom] under the empty substitution, answered through an index and
    never by a scan: by row count when [atom] has no constant, [#ans_full]
    when every position is constant, [#ans_first] when position 0 is.  Any
    other shape answers [true], which is never wrong for a caller asking
    whether a supplier might exist. *)
let may_supply t (atom : Atom.t) =
  match rel_opt atom.Atom.rel t.rels with
  | None -> false
  | Some r ->
    let args = atom.Atom.args in
    if Array.length args <> Schema.arity (Table.schema r.table) then false
    else if Table.row_count r.table = 0 then false
    else
      match Atom.to_tuple atom with
      | Some row -> Index.mem r.full row
      | None -> (
        match args.(0), r.first with
        | Term.Const v, Some first ->
          List.exists
            (fun row_id ->
              Subst.unify_row Subst.empty args (Table.get_exn r.table row_id)
              <> None)
            (Index.lookup first [| v |])
        | _ -> true)

(** [matching t subst atom] — all extensions of [subst] unifying [atom] with
    an existing answer tuple.  Ground positions of the atom are used for an
    indexed/filtered lookup where possible. *)
let matching t (subst : Subst.t) (atom : Atom.t) : Subst.t Seq.t =
  match find_opt t atom.Atom.rel with
  | None -> Seq.empty
  | Some table ->
    if Atom.arity atom <> Schema.arity (Table.schema table) then Seq.empty
    else begin
      let resolved = Array.map (Subst.walk subst) atom.Atom.args in
      let ground_positions =
        Array.to_list resolved
        |> List.mapi (fun i t ->
               match t with Term.Const v -> Some (i, v) | Term.Var _ -> None)
        |> List.filter_map Fun.id
      in
      let candidate_rows =
        match ground_positions with
        | [] -> Table.rows table
        | gps ->
          let positions = Array.of_list (List.map fst gps) in
          let keyvals = Array.of_list (List.map snd gps) in
          Table.lookup_eq table positions keyvals
          |> List.map (Table.get_exn table)
      in
      List.to_seq candidate_rows
      |> Seq.filter_map (fun row -> Subst.unify_row subst resolved row)
    end

