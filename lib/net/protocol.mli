(** The server's protocol core: handshake, dispatch, the open write batch
    and its executor, admin probes, the push listener, backpressure and
    close decisions, the idle and stall verdicts, the replica bootstrap
    and, on a replica, the upstream link — everything above bytes.

    The core performs no socket IO, reads no clock but the [clock] it is
    given and starts no thread, so tests drive it byte by byte with a fake
    clock.  {!Server} drives it in production: one [poll(2)] loop
    that feeds it what sockets read ({!input}, {!input_eof}), writes what
    it yields ({!pop_output}), asks it what to poll for ({!wants_read},
    {!has_output}, {!status}), and calls {!end_of_iteration} then {!tick}
    once per iteration.  On a replica it also opens the upstream link
    whenever {!dial_due} says so.  The API is pull-style: no list of
    actions and no closure is allocated per frame.

    Per connection, outbound frames wait in two queues.  A replica's
    WELCOME and bootstrap stream (WAL catch-up batches or checkpoint
    snapshot chunks, in order) leave first; they are the server's own
    doing, so they do not count toward [max_outq].  Every other frame —
    responses, pushes, live replication batches queued behind a bootstrap
    — counts: a peer that lets [max_outq] of them pile up is dropped as a
    slow consumer.

    The upstream link is one more connection, whose peer is the primary:
    its inbound frames feed {!Replication.Replica}, its outbound frames are
    the RHELLO and the RACKs that module yields, and it is exempt from the
    idle verdict.  So everything — engine, connections, replica — belongs to
    the thread driving the core, and nothing takes a lock. *)

val log_src : Logs.src

module Config : sig
  type config = {
    host : string;
    port : int;
    backlog : int;
    max_frame : int;
    read_timeout : float;
    max_outq : int;
    banner : string;
    max_batch : int;
    durability : Relational.Wal.durability option;
    replica_of : (string * int) option;
    replica_id : string;
    max_in_flight : int;
    max_conns : int;
  }
  (** Documented where it is re-exported, as {!Server.config}. *)

  val default_config : config
end

type t
type conn

type status =
  | Open
  | Flush_then_close  (** write what is queued, then close *)
  | Dead  (** close now; nothing queued will be sent *)

val create :
  ?config:Config.config -> clock:(unit -> float) -> Youtopia.System.t -> t
(** A core serving [sys].  Without a [replica_of] and with a WAL attached,
    it creates the replication hub that ships committed batches to
    replicas; with a [replica_of] it creates the upstream session, whose
    first dial is due at once.  It applies [config.durability] to the
    database.  [clock] returns seconds.  Only differences between its
    readings matter, except to the replica's lag gauge, which compares
    them with the primary's wall-clock send stamps. *)

val stats : t -> Server_stats.t

val connect : t -> conn
(** A new connection awaiting its HELLO. *)

val dial_due : t -> bool
(** Replica mode: no upstream link is open and the redial backoff
    ({!Backoff.default}, reset by a completed handshake) has elapsed on
    the core's clock.  Always [false] on a primary. *)

val connect_upstream : t -> conn
(** A new upstream link to the primary, its RHELLO (carrying the applied
    LSN) already queued.  {!Server} connects the socket and carries the
    link like any connection; {!close} ends the session and schedules the
    redial.  Raises [Invalid_argument] on a primary. *)

val has_upstream : t -> bool
(** An upstream link is open (it does not count toward [max_conns]). *)

val conn_id : conn -> int

val input : t -> conn -> Bytes.t -> int -> int -> unit
(** [input t c buf off len]: bytes the peer sent.  Every complete frame
    dispatches at once; write SUBMITs join the open batch.  Never raises
    for any bytes: a malformed frame queues an ERROR and turns the
    connection [Flush_then_close].  Failpoints [server.decoder],
    [wire.recv] and [wire.recv.drop] fire per complete frame. *)

val input_eof : t -> conn -> unit
(** The peer half-closed: flush what is queued, then close. *)

val end_of_iteration : t -> unit
(** Execute the open batch, if any: one WAL group flush and one
    coordinator poke for all of it (failpoints [server.batch] and
    [server.batch.fanout]), then queue the responses and ship committed
    batches to replicas.  A failed shipment is logged and counted in
    [errors]; its batches ship with the next one. *)

val pop_output : t -> conn -> (bool * string) option
(** The next [(raw, payload)] frame for the wire, bootstrap frames first.
    A frame over [max_frame] turns the connection [Dead] instead. *)

val has_output : conn -> bool
(** Frames are queued for {!pop_output}. *)

val wants_read : t -> conn -> bool
(** The connection is [Open] and has fewer than [max_in_flight] frames
    queued beyond its bootstrap (backpressure). *)

val status : conn -> status

val take_fresh_output : t -> bool
(** Whether a frame was queued since the last call. *)

val close : t -> conn -> string -> unit
(** [close t c why]: the event loop is done with the connection, for the
    reason [why] (an EOF, a socket error, the server stopping).  Its writes
    in the open batch run first, then its session or replica sink is
    detached.  On the upstream link the replica's session ends for [why],
    unless a cause the core saw first ended it: the primary's EOF, a
    protocol error, a frame the session rejected.  Idempotent. *)

val tick_ms : t -> int
(** The longest the event loop should wait before its next {!tick} or
    {!dial_due} check, in milliseconds: the sweep period, or less when the
    upstream redial falls due sooner.  It moves with the clock, so the loop
    reads it every iteration. *)

val tick : t -> unit
(** Timers.  The bootstrap stall verdict drops, as a slow consumer, a
    replica whose bootstrap has yielded no frame to {!pop_output} for
    30 s.  The idle verdict, swept every quarter of [read_timeout]
    (clamped to 10–250 ms), sends an ERROR to connections idle past
    [read_timeout] and closes them, sparing replica links (either
    direction) and clients
    whose user owns a parked pending query. *)
