(** Simulated social graph — the substitute for the demo's Facebook friend
    import (see DESIGN.md, substitutions).  Deterministic given a seed, so
    examples and benchmarks are reproducible. *)

type t

val create : unit -> t
val users : t -> string list

val befriend : t -> string -> string -> unit
(** Symmetric; registers both users; self-friendship is a no-op. *)

val friends_of : t -> string -> string list
val are_friends : t -> string -> string -> bool

val clique : t -> string list -> unit
(** Make every pair friends (group travel). *)

val ring : t -> string list -> unit
(** Befriend consecutive members, closing the cycle. *)

val generate : seed:int -> n_users:int -> avg_friends:int -> t
(** Random graph with users named [user0 … userN-1]. *)
