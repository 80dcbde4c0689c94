(** TCP server exposing one shared {!Youtopia.System.t}.

    The server is a thin event loop around the IO-free {!Protocol} core.  One
    event loop on one thread owns the listening socket and every
    connection — on a replica, its upstream link to the primary too —
    multiplexing them as non-blocking sockets with one [poll(2)] wait per
    iteration ({!Netpoll}) — the server's only wait site.  The loop keeps
    the listen fd, accept, the upstream dial (a non-blocking [connect]),
    the poll arrays, [read]/[write] with partial-write staging, the exit
    drain and {!start}/{!stop}; every protocol decision is the core's.

    What the core decides: the handshake (HELLO/RHELLO version
    negotiation); dispatch, with program order per connection; the open
    write batch — the write SUBMITs decoded in one poll iteration, at most
    [max_batch], executed with per-request error isolation, one WAL group flush
    ({!Relational.Wal.with_batch}) and one coordinator poke; admin probes;
    pushes, handed from the coordinator's fulfilment path onto the owning
    connection's outbound queue via {!Youtopia.Session.set_listener};
    backpressure (a connection with [max_in_flight] responses queued loses
    read interest); the slow-consumer drop at [max_outq]; the idle
    verdict, which spares replica links and clients whose user owns a
    parked pending query; and the replica bootstrap, whose frames drain
    through the same loop — a replica that stops reading is dropped after
    30 s without progress, and never holds up other clients; and on a
    replica, the upstream session — applying the primary's stream in LSN
    order and redialling a lost link with backoff.

    Only the loop's thread touches the engine, so engine work takes no
    lock.  Connections negotiated at protocol ≥ 2 receive bulky payloads
    (replication chunks, large result sets) as raw-bytes frames. *)

val log_src : Logs.src

type config = Protocol.Config.config = {
  host : string;
  port : int;
      (** 0 picks an ephemeral port; read it back with {!port}.  Must lie
          in 0–65535 *)
  backlog : int;
  max_frame : int;  (** frames beyond this are rejected, both directions *)
  read_timeout : float;
      (** seconds a connection may sit idle before teardown; 0 = forever.
          Connections whose user owns a parked pending query are exempt *)
  max_outq : int;
      (** frames a connection may have queued outbound before it is
          dropped as a slow consumer (a peer that stops reading) *)
  banner : string;  (** sent back in the WELCOME frame *)
  max_batch : int;
      (** most write requests one batch executes (default 32); 1 runs
          every write alone, the per-request baseline *)
  durability : Relational.Wal.durability option;
      (** applied to the system's WAL at {!start}; [None] leaves the
          database's current mode untouched *)
  replica_of : (string * int) option;
      (** run as a read replica of this primary: read-only SELECTs and
          admin probes are served locally, anything that could mutate is
          rejected with a redirect error naming the primary
          ({!Wire.readonly_redirect}), and the event loop keeps an
          upstream link that bootstraps from a streamed snapshot then
          tails the primary's WAL.  Exempt from [read_timeout] and
          [max_conns] *)
  replica_id : string;  (** name announced in the replica handshake *)
  max_in_flight : int;
      (** responses one connection may have queued unflushed before the
          loop drops its read interest (backpressure) *)
  max_conns : int;
      (** refuse accepts beyond this many live connections; 0 = unlimited *)
}

val default_config : config
(** 127.0.0.1:7077, 1 MiB frames, no read timeout, 1024-frame outbound
    queues; batches of at most 32 writes, durability untouched; not a
    replica.  64 unflushed responses per connection,
    unlimited connections. *)

type t

val start : ?config:config -> Youtopia.System.t -> t
(** Resolve [replica_of], bind, listen, create the protocol core (clocked
    by [Unix.gettimeofday]), and spawn the event-loop thread, which dials
    the primary in replica mode.  Raises [Invalid_argument] if [port] lies
    outside 0–65535 or the [replica_of] port outside 1–65535, [Failure] if
    the [replica_of] host does not resolve, and [Unix.Unix_error] if the
    address is unavailable. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val stats : t -> Server_stats.t

val stop : t -> unit
(** Graceful shutdown: stop accepting, close every connection after its
    outbound queue drains (a replica's upstream link included), and join
    the loop thread.  Idempotent. *)
