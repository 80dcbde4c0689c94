(** The catalog maps table names (case-insensitive) to live tables.  A
    Youtopia instance owns one catalog for regular relations; answer
    relations live in their own store (see [Core.Answers]) but reuse
    {!Table}. *)

type t = {
  tables : (string, Table.t) Hashtbl.t;
  views : (string, string) Hashtbl.t;
      (** view name -> defining SELECT text; parsed by the SQL layer on use *)
}

let create () = { tables = Hashtbl.create 16; views = Hashtbl.create 8 }
let key name = String.lowercase_ascii name

let mem t name = Hashtbl.mem t.tables (key name)

let view_exists t name = Hashtbl.mem t.views (key name)

(** [create_view t name sql] stores a view definition; the name must not
    clash with a table or another view. *)
let create_view t name sql =
  if mem t name then Errors.fail (Errors.Duplicate_table name);
  if view_exists t name then Errors.fail (Errors.Duplicate_table name);
  Hashtbl.add t.views (key name) sql

let drop_view t name =
  if not (view_exists t name) then Errors.fail (Errors.No_such_table name);
  Hashtbl.remove t.views (key name)

let find_view t name = Hashtbl.find_opt t.views (key name)

let view_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.views []
  |> List.sort String.compare

let find_opt t name = Hashtbl.find_opt t.tables (key name)

let find t name =
  match find_opt t name with
  | Some table -> table
  | None -> Errors.fail (Errors.No_such_table name)

(** [create_table t schema] registers a fresh empty table. *)
let create_table t schema =
  let name = schema.Schema.name in
  if mem t name || view_exists t name then
    Errors.fail (Errors.Duplicate_table name);
  let table = Table.create schema in
  Hashtbl.add t.tables (key name) table;
  table

(** [add_table t table] registers an existing table (used by WAL replay). *)
let add_table t table =
  let name = Table.name table in
  if mem t name then Errors.fail (Errors.Duplicate_table name);
  Hashtbl.add t.tables (key name) table

let drop_table t name =
  if not (mem t name) then Errors.fail (Errors.No_such_table name);
  Hashtbl.remove t.tables (key name)

(** [adopt dst src] replaces [dst]'s contents (tables and views) with
    [src]'s, in place.  A replica bootstrapping from a streamed snapshot
    uses this so every live reference to its catalog — sessions, the
    coordinator, the server's engine — observes the new state without
    rewiring. *)
let adopt dst src =
  Hashtbl.reset dst.tables;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.tables k v) src.tables;
  Hashtbl.reset dst.views;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.views k v) src.views

let table_names t =
  Hashtbl.fold (fun _ table acc -> Table.name table :: acc) t.tables []
  |> List.sort String.compare

let iter f t = Hashtbl.iter (fun _ table -> f table) t.tables

