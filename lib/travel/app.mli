(** The travel web site's middle tier (application #1 of the demo).

    Translates UI-level requests ("book a flight with these friends",
    "…and a hotel too", "adjacent seats") into entangled SQL, submits them
    through the owner's session, and reads back notifications — exactly the
    role of the application logic in the paper's three-tier architecture.
    Facebook is replaced by {!Social}; Facebook messages by session
    mailboxes. *)

open Relational

type t

val create :
  ?config:Core.Coordinator.config ->
  ?social:Social.t ->
  seed:int ->
  n_flights:int ->
  n_hotels:int ->
  unit ->
  t

val system : t -> Youtopia.System.t
val social : t -> Social.t

val session : t -> string -> Youtopia.Session.t
(** The user's session, created on first use. *)

val inbox : t -> string -> Core.Events.notification list
(** Notifications waiting for the user (the "Facebook messages"). *)

(** {1 Browse path (plain SQL)} *)

val search_flights :
  t -> string -> dest:string -> ?day:int -> ?max_price:float -> unit ->
  Tuple.t list
(** Rows of (fno, dest, day, price, seats), cheapest first. *)

val search_hotels :
  t -> string -> city:string -> ?max_price:float -> unit -> Tuple.t list

val friends_flight_bookings : t -> string -> (string * int) list
(** Figure 4's view: which flights have the user's friends already booked? *)

val book_flight_direct : t -> string -> fno:int -> bool
(** Capacity-checked direct booking in one transaction; pokes the
    coordinator afterwards (a consumed seat can unblock pending groups). *)

(** {1 Coordinated requests (entangled queries)}

    Each returns the coordinator outcome; on fulfilment, booking rows are
    written and capacity consumed atomically with the whole group. *)

val coordinate_flight :
  t -> string -> friends:string list -> dest:string -> ?day:int ->
  ?max_price:float -> unit -> Core.Coordinator.outcome
(** Same flight as every friend; requires seats ≥ group size. *)

val coordinate_flight_hotel :
  t -> string -> friends:string list -> dest:string -> ?day:int ->
  ?max_flight_price:float -> ?max_hotel_price:float -> unit ->
  Core.Coordinator.outcome
(** One entangled query with two heads: flight and hotel both coordinate
    with every friend. *)

val coordinate_hotel :
  t -> string -> friends:string list -> city:string -> ?max_price:float ->
  unit -> Core.Coordinator.outcome
(** Hotel-only coordination (used by the ad-hoc scenarios). *)

val coordinate_adjacent_seat :
  t -> string -> friend:string -> dest:string -> ?day:int -> unit ->
  Core.Coordinator.outcome
(** Seat right next to the friend's: same flight, [seat = fseat + 1]. *)

val coordinate_any_seat :
  t -> string -> friend:string -> dest:string -> ?day:int -> unit ->
  Core.Coordinator.outcome
(** The partner side of an adjacent-seat request: any free seat, entangled
    with the initiator's choice. *)

(** {1 Deployment analysis} *)

val templates : t -> (string * Core.Equery.t) list
(** This middle tier's query shapes, each with its name, for deploy-time
    analysis with {!Core.Safety.analyse}. *)

val account_view : t -> string -> string
(** Pending requests plus confirmed bookings — the demo's "account view". *)
