(** Schema and synthetic data for the travel web site.

    Substitutes for the authors' demo dataset (flights, hotels, seats) with
    a deterministic generator; the schema is what the demo scenarios need:
    flight/hotel search with date and price constraints, per-flight seat
    maps for the adjacent-seat request, and capacity columns so that
    bookings contend. *)

open Relational

val cities : string array
(** Destinations; flights round-robin over them so every city is served. *)

(** {1 Schemas} *)

val make_system :
  ?config:Core.Coordinator.config ->
  ?wal_path:string ->
  ?durability:Wal.durability ->
  seed:int ->
  n_flights:int ->
  n_hotels:int ->
  ?seats_per_flight:int ->
  unit ->
  Youtopia.System.t
(** A ready travel system: [setup] + [populate].  With [wal_path] the
    schema and seed data are logged ([populate] runs as one transaction),
    so the system can be rebuilt by {!recover_system}. *)

val recover_system :
  ?config:Core.Coordinator.config ->
  ?durability:Wal.durability ->
  wal_path:string ->
  unit ->
  Youtopia.System.t
(** Rebuild a travel system from its WAL and checkpoints: recovery plus
    answer-relation re-adoption and secondary-index re-creation (indexes
    are not logged).  Pending entangled queries are not durable — owners
    re-submit after a crash. *)
