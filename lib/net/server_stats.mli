(** Server-side counters: connections, frames, bytes, submissions, pushes,
    submit handling latency (histogrammed), and the write-batching pipeline
    (batch sizes, WAL flush/fsync amortisation).  Thread-safe. *)

type t

type snapshot = {
  connections_total : int;
  connections_active : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  submits : int;
  pushes : int;
  errors : int;
  submit_latency_mean : float;  (** seconds; 0 if no submits *)
  submit_latency_max : float;
  submit_latency_p50 : float;
      (** seconds — upper bound of the log-histogram bucket holding the
          median (overflow bucket reports the observed max) *)
  submit_latency_p99 : float;  (** seconds, same estimate at p99 *)
  submit_latency_hist : int array;
      (** log buckets ≤50/100/200/500/1k/2k/5k/10k/20k/50k/100k µs + overflow *)
  batches : int;  (** write batches executed *)
  batched_requests : int;  (** write requests executed inside batches *)
  batch_size_mean : float;  (** 0 if no batches *)
  batch_size_max : int;
  batch_size_hist : int array;
      (** buckets ≤1/2/4/8/16/32/64/128 requests + overflow *)
  wal_flushes : int;  (** WAL flushes attributed to drained batches *)
  wal_fsyncs : int;  (** WAL fsyncs attributed to drained batches *)
  replicas_active : int;  (** replica sinks currently connected (primary) *)
  replicas_total : int;
  repl_batches_shipped : int;
  repl_records_shipped : int;
  repl_last_shipped_lsn : int;
  repl_acked_lsn : int;  (** min acked LSN across live replicas *)
  repl_upstream_connected : bool;  (** replica: upstream link is up *)
  repl_applied_lsn : int;  (** replica: last batch applied *)
  repl_seen_lsn : int;  (** replica: highest primary LSN observed *)
  repl_lag_lsn : int;  (** replica: last observed apply lag in batches *)
  repl_lag_ms : float;  (** replica: last observed commit-to-apply ms *)
  repl_snapshots_loaded : int;
  repl_reconnects : int;
  readonly_rejections : int;
      (** writes this read-only replica redirected to the primary *)
  loop_iterations : int;  (** poll wait cycles of the event loop *)
  loop_fds_max : int;  (** most fds the loop has multiplexed *)
  raw_frames_out : int;  (** frames sent on the raw-bytes path *)
  idle_timeouts : int;  (** connections torn down by the idle sweep *)
  conns_refused : int;  (** accepts refused at [max_conns] *)
}

val create : unit -> t

val on_connect : t -> unit
val on_disconnect : t -> unit
val on_frame_in : t -> bytes:int -> unit
val on_frame_out : t -> bytes:int -> unit
val on_submit : t -> latency:float -> unit
val on_push : t -> unit
val on_error : t -> unit

val on_batch : t -> size:int -> flushes:int -> fsyncs:int -> unit
(** One drained write batch of [size] requests; [flushes]/[fsyncs] are the
    WAL io deltas the batch caused (one flush + at most one fsync when the
    pipeline amortises correctly). *)

val on_replica_connect : t -> unit
val on_replica_disconnect : t -> unit

val set_repl_shipping :
  t -> batches:int -> records:int -> last_lsn:int -> acked_lsn:int -> unit
(** Primary: mirror the hub's shipping gauges after a flush. *)

val set_repl_upstream : t -> bool -> unit

val on_repl_apply :
  t -> lsn:int -> seen:int -> lag_lsn:int -> lag_ms:float -> unit
(** Replica: one batch applied at [lsn], [lag_lsn] batches / [lag_ms]
    milliseconds behind the primary. *)

val on_repl_snapshot : t -> lsn:int -> unit
val on_repl_reconnect : t -> unit
val on_readonly_rejected : t -> unit

val on_loop_iteration : t -> fds:int -> unit
(** One wait cycle of the loop multiplexing [fds] fds (including the
    listen fd). *)

val on_raw_frame_out : t -> unit
val on_idle_timeout : t -> unit
val on_conn_refused : t -> unit

val snapshot : t -> snapshot

val render : t -> string
(** One [key=value] per line — the payload of the [ADMIN|…|server] probe.
    Includes the batching pipeline counters ([batches], [batch_size_mean],
    [batch_size_hist], [wal_flushes], [wal_fsyncs]) and the submit latency
    percentiles/histogram. *)
