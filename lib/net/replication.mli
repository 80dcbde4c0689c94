(** Checkpoint + WAL-shipping replication: the primary-side hub and the
    replica-side upstream session.

    The primary's {!Hub} collects committed WAL batches (via
    {!Relational.Wal.set_on_append}, so DDL auto-commits ship too) and
    fans them out to replica sinks; the server notes them as they commit
    and calls {!Hub.flush} after queueing the batch's responses.  A
    {!Replica} is the IO-free upstream session: it announces the last LSN
    it applied, bootstraps from a streamed checkpoint snapshot (or a
    WAL-file suffix when the primary still has it), then tails live
    batches — applying strictly in LSN sequence and acknowledging each
    batch — and schedules the redial of a lost link with {!Backoff}.

    Neither side depends on {!Server} or holds a socket, thread or lock:
    the hub sends through a callback and the server's event loop carries
    the replica's frames. *)

open Relational

val log_src : Logs.src

val now_us : unit -> int
(** Wall-clock µs since the epoch — the [sent_at_us] stamp on [WREC]
    frames. *)

val decode_batch : string -> Wal.record list

val frames_of_batch :
  lsn:int -> sent_at_us:int -> Wal.record list -> Wire.response list
(** Chunked [WREC] frames for one committed batch, in send order. *)

val frames_of_snapshot : lsn:int -> string list -> Wire.response list
(** Chunked [SNAP] frames for {!Relational.Checkpoint.to_lines} output. *)

val catchup_batches :
  wal_path:string -> after_lsn:int -> (int * Wal.record list) list
(** Committed batches recorded in the WAL file past [after_lsn], oldest
    first.  Tolerates a concurrently appending writer (a torn tail is an
    incomplete batch and is dropped — the live stream covers it). *)

module Hub : sig
  type t
  type sink

  type stats = {
    replicas : int;
    batches_shipped : int;
    records_shipped : int;
    last_shipped_lsn : int;
    min_acked_lsn : int;  (** 0 when no replica is connected *)
  }

  val create : unit -> t

  val attach : t -> Wal.t -> unit
  (** Hook the hub into a WAL so every committed batch is noted for
      shipping. *)

  val register : t -> replica_id:string -> send:(Wire.response -> unit) -> sink
  (** Add a replica sink.  [send] must be non-blocking (the server's
      per-connection enqueue); if it raises, the sink is marked dead. *)

  val unregister : t -> sink -> unit
  val ack : sink -> lsn:int -> unit

  val flush : t -> unit
  (** Drain pending batches to every live sink in commit order.  The
      [repl.hub.flush] failpoint fires first: when it raises, every noted
      batch stays queued for the next flush. *)

  val stats : t -> stats

  val replicas : t -> (string * int * int) list
  (** Live sinks as [(replica_id, sent_lsn, acked_lsn)]. *)
end

module Replica : sig
  type t

  val create :
    replica_id:string -> now:float -> Catalog.t -> Server_stats.t -> t
  (** A replica of nothing yet (applied LSN 0) announcing itself as
      [replica_id], whose first dial is due at [now].  Snapshots and
      batches are applied to the catalog; the [repl_*] gauges of the stats
      move with the session. *)

  val next_dial : t -> float option
  (** When the next dial falls due, on the clock of {!create}'s [now]:
      [None] while a session is open. *)

  val connect : t -> Wire.request
  (** Open a session: reassembly starts empty, and the result is the
      [RHELLO] carrying the applied LSN, to send first.  Every session
      after the first counts as a reconnect. *)

  val receive : t -> now:float -> Wire.response -> Wire.request list
  (** One frame from the primary, at wall-clock [now] (the lag gauge
      compares it with the primary's send stamps); the result is the
      [RACK]s to send, one per batch applied, in LSN order.  Batches apply
      strictly in sequence: a duplicate at or below the applied LSN drops, a gap
      waits.  The [repl.replica.apply] failpoint fires before each apply.
      Raises — leaving the applied LSN where it was — when the primary
      rejects the handshake or errors, on a frame the handshake does not
      expect, or when an apply fails: the session is over, and the caller
      ends it with {!lost}. *)

  val lost : t -> now:float -> string -> unit
  (** The session ended, for the given reason.  The next dial falls due
      after [Backoff.jittered Backoff.default] of the session's attempt: attempt 1 after a
      session that completed its handshake, one more after each that did
      not.  A no-op when no session is open. *)
end
