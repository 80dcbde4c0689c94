(** Tuples are immutable-by-convention value arrays.  The executor never
    mutates a tuple in place; updates create new arrays. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      match Value.compare a.(i) b.(i) with 0 -> loop (i + 1) | c -> c
  in
  loop 0

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

(** [project positions t] extracts the sub-tuple at [positions]. *)
let project positions (t : t) = Array.map (fun i -> t.(i)) positions

(** [concat a b] is the joined tuple [a ++ b]. *)
let concat (a : t) (b : t) : t = Array.append a b

let add_to_buffer buf (t : t) =
  Buffer.add_char buf '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      Value.add_to_buffer buf v)
    t;
  Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 64 in
  add_to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(** Key module for hashtables keyed by tuples. *)
module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Hashed)

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
