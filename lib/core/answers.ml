(** Answer relations.

    Answer relations are ordinary tables living in the system's catalog (so
    they participate in transactions and are visible to the admin interface)
    but with *set* semantics: inserting a duplicate tuple is a no-op.  They
    must be declared before queries can refer to them — declaration fixes
    the schema that heads and constraints are validated against. *)

open Relational

type t = { db : Database.t; mutable rels : (string * Table.t) list }

let key = String.lowercase_ascii

let create db = { db; rels = [] }

(** [declare t schema] creates the answer relation (a real table), with two
    hash indexes the matcher relies on: the full row (set-semantics
    membership test) and the first column (the common "partner name is
    ground, rest is variable" constraint shape). *)
let declare t schema =
  let table = Database.create_table t.db schema in
  let arity = Schema.arity schema in
  ignore
    (Table.create_index table "#ans_full" (Array.init arity (fun i -> i)));
  if arity > 1 then ignore (Table.create_index table "#ans_first" [| 0 |]);
  t.rels <- (key schema.Schema.name, table) :: t.rels;
  table

(** [adopt t name] registers an *existing* table (e.g. one rebuilt by WAL
    recovery) as an answer relation, creating the matcher's indexes if they
    are missing. *)
let adopt t name =
  let table = Database.find_table t.db name in
  let arity = Schema.arity (Table.schema table) in
  if Table.index_named table "#ans_full" = None then
    ignore
      (Table.create_index table "#ans_full" (Array.init arity (fun i -> i)));
  if arity > 1 && Table.index_named table "#ans_first" = None then
    ignore (Table.create_index table "#ans_first" [| 0 |]);
  t.rels <- (key name, table) :: t.rels;
  table

let find_opt t rel = List.assoc_opt (key rel) t.rels

let find t rel =
  match find_opt t rel with
  | Some table -> table
  | None ->
    Errors.fail (Errors.No_such_table ("answer relation " ^ rel))

let relation_names t = List.map (fun (_, table) -> Table.name table) t.rels

let contains t rel (row : Tuple.t) =
  let table = find t rel in
  let all = Array.init (Schema.arity (Table.schema table)) (fun i -> i) in
  Table.lookup_eq table all row <> []

(** [insert txn t rel row] — set semantics; [true] if the tuple was new. *)
let insert txn t rel row =
  if contains t rel row then false
  else begin
    ignore (Txn.insert txn (find t rel) row);
    true
  end

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

