(** Tuples are immutable-by-convention value arrays.  The executor never
    mutates a tuple in place; updates create new arrays. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic; shorter tuples sort first. *)

val project : int array -> t -> t
(** [project positions t] extracts the sub-tuple at [positions]. *)

val concat : t -> t -> t

val to_string : t -> string
(** [(v1, v2, …)], each value as {!Value.to_string} renders it. *)

val add_to_buffer : Buffer.t -> t -> unit
val pp : Format.formatter -> t -> unit

(** Containers keyed by tuples. *)

module Hashed : Hashtbl.HashedType with type t = t
module Tbl : Hashtbl.S with type key = t
module Ordered : Set.OrderedType with type t = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
