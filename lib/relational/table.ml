(** In-memory heap tables.

    Rows live in a growable slot array; a row id is its slot position and
    stays stable for the row's lifetime (deleted slots are recycled).  Every
    table with a declared primary key maintains a unique hash index on it;
    further secondary indexes may be added at any time and are backfilled
    from existing rows. *)

type t = {
  schema : Schema.t;
  uid : int;  (** process-unique identity; distinguishes recreated tables *)
  mutable slots : Tuple.t option array;
  mutable high : int;  (** slots\[high..\] were never used *)
  mutable free : int list;
  mutable live : int;
  mutable indexes : Index.t list;
  mutable version : int;  (** bumped on every mutation; used by Tablestats *)
  mutable listed : bool;  (** reported to [on_change] since the last [unlist] *)
  mutable on_change : t -> unit;  (** its catalog's changed-table list *)
}

let pk_index_name = "#pk"

(* Monotone uid source: a (uid, version) pair can never alias across a
   drop-and-recreate of the same table name. *)
let next_uid = ref 0

let create schema =
  incr next_uid;
  let t =
    {
      schema;
      uid = !next_uid;
      slots = Array.make 16 None;
      high = 0;
      free = [];
      live = 0;
      indexes = [];
      version = 0;
      listed = false;
      on_change = ignore;
    }
  in
  (match schema.Schema.primary_key with
  | [] -> ()
  | pk ->
    t.indexes <-
      [ Index.create ~unique:true pk_index_name (Array.of_list pk) ]);
  t

let mark t =
  if not t.listed then begin
    t.listed <- true;
    t.on_change t
  end

let unlist t = t.listed <- false

let set_on_change t f =
  t.on_change <- f;
  t.listed <- false

let bump t =
  t.version <- t.version + 1;
  mark t

let schema t = t.schema
let name t = t.schema.Schema.name
let row_count t = t.live
let version t = t.version
let uid t = t.uid

(** [restore_version t v] fast-forwards the version counter to at least
    [v] — used when a checkpoint load rebuilds a table whose recorded
    version is ahead of the raw insert count, so post-load mutations keep
    the monotone (uid, version) contract.  Never moves backwards. *)
let restore_version t v =
  if v > t.version then begin
    t.version <- v;
    mark t
  end

let get t row_id =
  if row_id < 0 || row_id >= t.high then None else t.slots.(row_id)

let get_exn t row_id =
  match get t row_id with
  | Some row -> row
  | None -> Errors.internalf "table %s has no row %d" (name t) row_id

let ensure_capacity t =
  if t.high >= Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 bigger 0 t.high;
    t.slots <- bigger
  end

(** [insert t row] validates the row against the schema (including primary
    key uniqueness) and returns the new row id. *)
let insert t row =
  let row = Schema.check_row t.schema row in
  let row_id =
    match t.free with
    | id :: rest ->
      t.free <- rest;
      id
    | [] ->
      ensure_capacity t;
      let id = t.high in
      t.high <- t.high + 1;
      id
  in
  (* Index maintenance first so a uniqueness violation leaves the slot
     unoccupied. *)
  (try List.iter (fun ix -> Index.insert ix ~row_id row) t.indexes
   with e ->
     List.iter
       (fun ix -> try Index.remove ix ~row_id row with _ -> ())
       t.indexes;
     t.free <- row_id :: t.free;
     raise e);
  t.slots.(row_id) <- Some row;
  t.live <- t.live + 1;
  bump t;
  row_id

let delete t row_id =
  match get t row_id with
  | None -> Errors.internalf "delete: table %s has no row %d" (name t) row_id
  | Some row ->
    List.iter (fun ix -> Index.remove ix ~row_id row) t.indexes;
    t.slots.(row_id) <- None;
    t.free <- row_id :: t.free;
    t.live <- t.live - 1;
    bump t;
    row

let update t row_id row =
  let row = Schema.check_row t.schema row in
  match get t row_id with
  | None -> Errors.internalf "update: table %s has no row %d" (name t) row_id
  | Some old ->
    List.iter (fun ix -> Index.remove ix ~row_id old) t.indexes;
    (try List.iter (fun ix -> Index.insert ix ~row_id row) t.indexes
     with e ->
       (* Restore the old index entries to keep the table consistent. *)
       List.iter (fun ix -> try Index.remove ix ~row_id row with _ -> ()) t.indexes;
       List.iter (fun ix -> Index.insert ix ~row_id old) t.indexes;
       raise e);
    t.slots.(row_id) <- Some row;
    bump t;
    old

let iter f t =
  for id = 0 to t.high - 1 do
    match t.slots.(id) with None -> () | Some row -> f id row
  done

let fold f init t =
  let acc = ref init in
  iter (fun id row -> acc := f !acc id row) t;
  !acc

let rows t = fold (fun acc _ row -> row :: acc) [] t |> List.rev

let indexes t = t.indexes

(** [find_index t positions] returns an index covering exactly [positions]
    (in order), if any. *)
let find_index t positions =
  List.find_opt (fun ix -> Index.positions ix = positions) t.indexes

let index_named t name =
  List.find_opt (fun ix -> Index.name ix = name) t.indexes

(** [create_index t name positions] adds (and backfills) a secondary index.
    Raises on duplicate index names. *)
let create_index ?(unique = false) t index_name positions =
  if index_named t index_name <> None then
    Errors.schema_errorf "index %s already exists on %s" index_name (name t);
  Array.iter
    (fun p ->
      if p < 0 || p >= Schema.arity t.schema then
        Errors.schema_errorf "index %s: column position %d out of range"
          index_name p)
    positions;
  let ix = Index.create ~unique index_name positions in
  iter (fun row_id row -> Index.insert ix ~row_id row) t;
  t.indexes <- t.indexes @ [ ix ];
  ix

(** Row ids whose projection on [positions] equals [key]; uses a covering
    index when one exists, otherwise scans. *)
let lookup_eq t positions key =
  match find_index t positions with
  | Some ix -> Index.lookup ix key
  | None ->
    fold
      (fun acc row_id row ->
        if Tuple.equal (Tuple.project positions row) key then row_id :: acc
        else acc)
      [] t
    |> List.rev

(** Primary-key point lookup; [None] when the table has no primary key or no
    matching row. *)
let lookup_pk t key =
  match index_named t pk_index_name with
  | None -> None
  | Some ix -> (
    match Index.lookup ix key with
    | [ row_id ] -> Some row_id
    | [] -> None
    | _ -> Errors.internalf "primary key index of %s is not unique" (name t))

let pp ppf t =
  Fmt.pf ppf "@[<v 2>%a  -- %d row(s)@,%a@]" Schema.pp t.schema t.live
    Fmt.(list ~sep:cut Tuple.pp)
    (rows t)
