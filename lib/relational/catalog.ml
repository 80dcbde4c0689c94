(** The catalog maps table names (case-insensitive) to live tables.  A
    Youtopia instance owns one catalog for regular relations; answer
    relations live in their own store (see [Core.Answers]) but reuse
    {!Table}. *)

type t = {
  tables : (string, Table.t) Hashtbl.t;
  views : (string, string) Hashtbl.t;
      (** view name -> defining SELECT text; parsed by the SQL layer on use *)
  mutable changed : Table.t list;
      (** tables whose version moved, or that were created, added or
          dropped, since the last {!drain_changed}; each at most once *)
  mutable n_changed : int;
  mutable drainer : int;  (** who drained last; [-1]: nobody may trust it *)
}

let create () =
  {
    tables = Hashtbl.create 16;
    views = Hashtbl.create 8;
    changed = [];
    n_changed = 0;
    drainer = -1;
  }

let key name = String.lowercase_ascii name

(* A catalog nobody drains (no coordinator) would hold every table it ever
   dropped; past this many entries the list is cleared and the next drain
   answers [None], as a first drain does. *)
let max_changed = 1024

let note t table =
  if t.n_changed >= max_changed then begin
    List.iter Table.unlist t.changed;
    t.changed <- [];
    t.n_changed <- 0;
    t.drainer <- -1
  end;
  t.changed <- table :: t.changed;
  t.n_changed <- t.n_changed + 1

let attach t table =
  Table.set_on_change table (note t);
  Table.mark table

(** [drain_changed t ~by] empties the changed-table list.  [Some tables]
    when [by] also made the previous drain and the list stayed complete
    since; [None] otherwise — the caller has not seen every change and
    must walk the whole catalog. *)
let drain_changed t ~by =
  let changed = t.changed in
  List.iter Table.unlist changed;
  t.changed <- [];
  t.n_changed <- 0;
  if t.drainer = by then Some changed
  else begin
    t.drainer <- by;
    None
  end

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
  attach t table;
  table

(** [add_table t table] registers an existing table (used by WAL replay). *)
let add_table t table =
  let name = Table.name table in
  if mem t name then Errors.fail (Errors.Duplicate_table name);
  Hashtbl.add t.tables (key name) table;
  attach t table

let drop_table t name =
  match find_opt t name with
  | None -> Errors.fail (Errors.No_such_table name)
  | Some table ->
    Hashtbl.remove t.tables (key name);
    Table.mark table

(** [adopt dst src] replaces [dst]'s contents (tables and views) with
    [src]'s, in place.  A replica bootstrapping from a streamed snapshot
    uses this so every live reference to its catalog — sessions, the
    coordinator, the server's engine — observes the new state without
    rewiring. *)
let adopt dst src =
  Hashtbl.iter (fun _ table -> Table.mark table) dst.tables;
  Hashtbl.reset dst.tables;
  Hashtbl.iter
    (fun k table ->
      Hashtbl.replace dst.tables k table;
      attach dst table)
    src.tables;
  Hashtbl.reset dst.views;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.views k v) src.views

let table_names t =
  Hashtbl.fold (fun _ table acc -> Table.name table :: acc) t.tables []
  |> List.sort String.compare

let iter f t = Hashtbl.iter (fun _ table -> f table) t.tables

