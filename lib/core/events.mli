(** Notifications emitted when entangled queries are answered — the system's
    substitute for the demo's Facebook messages. *)

open Relational

type notification = {
  query_id : int;
  owner : string;
  label : string;
  answers : (string * Tuple.t) list;
      (** this query's own contributions: answer relation, ground tuple *)
  group : int list;  (** ids of every query answered in the same match *)
}

val notification_to_string : notification -> string
