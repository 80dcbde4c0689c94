(** A writer-preferring read-write lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Once a writer is waiting, new readers queue behind it, so a
    steady read load cannot starve mutations.  The server serialises
    engine access with one of these: read-only plain SQL runs in the read
    section, everything that can mutate (DML, DDL, entangled submissions,
    cancels) in the write section. *)

type t

val create : unit -> t

val read_lock : t -> bool
(** Acquire shared.  [true] if the caller had to wait (a writer was active
    or queued). *)

val read_unlock : t -> unit

val write_lock : t -> bool
(** Acquire exclusive.  [true] if the caller had to wait. *)

val write_unlock : t -> unit

val with_read : ?on_wait:(unit -> unit) -> t -> (unit -> 'a) -> 'a
(** Run in the read section; [on_wait] fires once if acquisition queued
    (the server counts contention with it). *)

val with_write : ?on_wait:(unit -> unit) -> t -> (unit -> 'a) -> 'a
(** Run in the write section; [on_wait] as above. *)
