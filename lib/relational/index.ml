(** Secondary indexes over tables.

    An index maps the projection of a row onto a fixed set of column
    positions to the set of row ids holding that key, in a hash table
    (point lookups, the common case for the coordination engine's grounding
    step).  Indexes are maintained by {!Table} on every mutation. *)

module Int_set = Set.Make (Int)

type t = {
  name : string;
  positions : int array;
  unique : bool;
  hash : Int_set.t ref Tuple.Tbl.t;
}

let create ?(unique = false) name positions =
  if Array.length positions = 0 then
    Errors.schema_errorf "index %s must cover at least one column" name;
  { name; positions; unique; hash = Tuple.Tbl.create 64 }

let name t = t.name
let positions t = t.positions
let is_unique t = t.unique

let key_of_row t row = Tuple.project t.positions row

(** Row ids holding exactly [key]; empty list when absent. *)
let lookup t key =
  match Tuple.Tbl.find_opt t.hash key with
  | None -> []
  | Some set -> Int_set.elements !set

let mem t key = Tuple.Tbl.mem t.hash key

(** Number of distinct keys: exactly the NDV of the indexed positions. *)
let distinct_keys t = Tuple.Tbl.length t.hash

let insert t ~row_id row =
  let key = key_of_row t row in
  match Tuple.Tbl.find_opt t.hash key with
  | Some _ when t.unique ->
    Errors.constraintf "unique index %s violated by key %s" t.name
      (Tuple.to_string key)
  | Some set -> set := Int_set.add row_id !set
  | None -> Tuple.Tbl.add t.hash key (ref (Int_set.singleton row_id))

let remove t ~row_id row =
  let key = key_of_row t row in
  match Tuple.Tbl.find_opt t.hash key with
  | None -> ()
  | Some set ->
    set := Int_set.remove row_id !set;
    if Int_set.is_empty !set then Tuple.Tbl.remove t.hash key
