(** Secondary indexes over tables.

    An index maps the projection of a row onto a fixed set of column
    positions to the set of row ids holding that key, in a hash table
    (point lookups).  Indexes are maintained by {!Table} on every
    mutation. *)

type t

val create : ?unique:bool -> string -> int array -> t
val name : t -> string
val positions : t -> int array
val is_unique : t -> bool

val lookup : t -> Tuple.t -> int list
(** Row ids holding exactly the key; empty list when absent. *)

val mem : t -> Tuple.t -> bool
(** Whether some row holds exactly the key; allocates nothing. *)

val distinct_keys : t -> int
(** Number of distinct keys held, in O(1): the NDV of the indexed
    positions, always current. *)

val insert : t -> row_id:int -> Tuple.t -> unit
(** Raises [Constraint_violation] on a unique-index duplicate. *)

val remove : t -> row_id:int -> Tuple.t -> unit
