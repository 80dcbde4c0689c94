(** Table schemas: ordered, named, typed columns plus an optional primary
    key.  Schemas are immutable; tables (see {!Table}) hold one. *)

type column = {
  col_name : string;
  col_type : Ctype.t;
  nullable : bool;
}

type t = {
  name : string;
  columns : column array;
  primary_key : int list;  (** column positions; [] means no primary key *)
}

let column ?(nullable = false) col_name col_type = { col_name; col_type; nullable }

let arity t = Array.length t.columns

(** [make name cols ~primary_key] validates column-name uniqueness and the
    primary-key positions. *)
let make ?(primary_key = []) name columns =
  let columns = Array.of_list columns in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      let key = String.lowercase_ascii c.col_name in
      if Hashtbl.mem seen key then
        Errors.schema_errorf "duplicate column %s in table %s" c.col_name name;
      Hashtbl.add seen key ())
    columns;
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length columns then
        Errors.schema_errorf "primary key position %d out of range in table %s"
          i name;
      if columns.(i).nullable then
        Errors.schema_errorf "primary key column %s of %s may not be nullable"
          columns.(i).col_name name)
    primary_key;
  { name; columns; primary_key }

let column_names t = Array.to_list (Array.map (fun c -> c.col_name) t.columns)

(** Case-insensitive column lookup; [None] when absent. *)
let find_column t name =
  let lname = String.lowercase_ascii name in
  let rec loop i =
    if i >= Array.length t.columns then None
    else if String.lowercase_ascii t.columns.(i).col_name = lname then Some i
    else loop (i + 1)
  in
  loop 0

let column_index t name =
  match find_column t name with
  | Some i -> i
  | None -> Errors.fail (Errors.No_such_column (t.name ^ "." ^ name))

let column_at t i =
  if i < 0 || i >= Array.length t.columns then
    Errors.schema_errorf "column position %d out of range for %s" i t.name;
  t.columns.(i)

(** [check_row t row] validates arity, per-column type acceptance and
    nullability, returning the row with values normalised to their column
    types. *)
let check_row t (row : Value.t array) =
  if Array.length row <> arity t then
    Errors.schema_errorf "table %s expects %d values, got %d" t.name (arity t)
      (Array.length row);
  Array.mapi
    (fun i v ->
      let c = t.columns.(i) in
      if Value.is_null v && not c.nullable then
        Errors.constraintf "column %s.%s is not nullable" t.name c.col_name;
      Ctype.normalize c.col_type v)
    row

(** Schema for the output of a projection: fresh anonymous schema with all
    columns nullable (expressions may produce NULL). *)
let anonymous ?(name = "<result>") cols =
  let columns =
    List.map (fun (n, ty) -> { col_name = n; col_type = ty; nullable = true }) cols
  in
  { name; columns = Array.of_list columns; primary_key = [] }

let rename t name = { t with name }

let pp ppf t =
  let pp_col ppf c =
    Fmt.pf ppf "%s %a%s" c.col_name Ctype.pp c.col_type
      (if c.nullable then "" else " NOT NULL")
  in
  Fmt.pf ppf "@[<hv 2>%s(%a)%a@]" t.name
    Fmt.(array ~sep:(any ",@ ") pp_col)
    t.columns
    (fun ppf -> function
      | [] -> ()
      | pk ->
        Fmt.pf ppf "@ PRIMARY KEY (%a)"
          Fmt.(list ~sep:(any ", ") string)
          (List.map (fun i -> t.columns.(i).col_name) pk))
    t.primary_key

