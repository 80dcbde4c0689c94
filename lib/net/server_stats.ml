(** Server-side counters: connections, frames, bytes, submissions, pushes,
    server-side submit handling latency, and the write-batching pipeline
    (batch sizes, WAL flush/fsync amortisation, latency histogram), and
    the replication gauges.  The event loop's thread is the only writer;
    one mutex guards the counters because any thread may read them. *)

(* Submit-latency histogram: log-spaced upper bounds in µs; one extra
   overflow bucket at the end.  p50/p99 are estimated as the upper bound of
   the bucket where the cumulative count crosses the percentile (the
   overflow bucket reports the observed max). *)
let latency_bounds_us =
  [| 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.; 20_000.; 50_000.; 100_000. |]

let latency_buckets = Array.length latency_bounds_us + 1

(* Batch-size histogram: power-of-two upper bounds; overflow bucket last. *)
let batch_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128 |]
let batch_buckets = Array.length batch_bounds + 1

let bucket_of_latency_us us =
  let rec find i =
    if i >= Array.length latency_bounds_us then Array.length latency_bounds_us
    else if us <= latency_bounds_us.(i) then i
    else find (i + 1)
  in
  find 0

let bucket_of_batch n =
  let rec find i =
    if i >= Array.length batch_bounds then Array.length batch_bounds
    else if n <= batch_bounds.(i) then i
    else find (i + 1)
  in
  find 0

type t = {
  mu : Mutex.t;
  mutable connections_total : int;
  mutable connections_active : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable submits : int;
  mutable pushes : int;
  mutable errors : int;
  mutable submit_latency_total : float;
  mutable submit_latency_max : float;
  submit_latency_hist : int array;  (** [latency_buckets] log buckets *)
  (* write-batching pipeline *)
  mutable batches : int;  (** write batches executed *)
  mutable batched_requests : int;  (** write requests inside those batches *)
  mutable batch_size_max : int;
  batch_size_hist : int array;  (** [batch_buckets] buckets *)
  mutable wal_flushes : int;  (** WAL channel flushes across batches *)
  mutable wal_fsyncs : int;  (** WAL fsyncs across batches *)
  (* replication: primary side *)
  mutable replicas_active : int;
  mutable replicas_total : int;
  mutable repl_batches_shipped : int;
  mutable repl_records_shipped : int;
  mutable repl_last_shipped_lsn : int;
  mutable repl_acked_lsn : int;  (** min acked across live replicas *)
  (* replication: replica side *)
  mutable repl_upstream_connected : bool;
  mutable repl_applied_lsn : int;
  mutable repl_seen_lsn : int;
  mutable repl_lag_lsn : int;  (** last observed apply lag in batches *)
  mutable repl_lag_ms : float;  (** last observed commit-to-apply ms *)
  mutable repl_snapshots_loaded : int;
  mutable repl_reconnects : int;
  mutable readonly_rejections : int;
      (** writes a read-only replica redirected to the primary *)
  (* event-loop core *)
  mutable loop_iterations : int;  (** poll wait cycles *)
  mutable loop_fds_max : int;  (** most fds the loop has multiplexed *)
  mutable raw_frames_out : int;  (** frames sent on the raw-bytes path *)
  mutable idle_timeouts : int;  (** connections torn down by idle sweep *)
  mutable conns_refused : int;  (** accepts refused at [max_conns] *)
}

(** Immutable copy for rendering/reporting. *)
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
  submit_latency_p50 : float;  (** seconds, histogram upper-bound estimate *)
  submit_latency_p99 : float;  (** seconds, histogram upper-bound estimate *)
  submit_latency_hist : int array;
  batches : int;  (** write batches executed *)
  batched_requests : int;  (** write requests executed inside batches *)
  batch_size_mean : float;  (** 0 if no batches *)
  batch_size_max : int;
  batch_size_hist : int array;
  wal_flushes : int;  (** WAL flushes attributed to batches *)
  wal_fsyncs : int;  (** WAL fsyncs attributed to batches *)
  replicas_active : int;
  replicas_total : int;
  repl_batches_shipped : int;
  repl_records_shipped : int;
  repl_last_shipped_lsn : int;
  repl_acked_lsn : int;
  repl_upstream_connected : bool;
  repl_applied_lsn : int;
  repl_seen_lsn : int;
  repl_lag_lsn : int;
  repl_lag_ms : float;
  repl_snapshots_loaded : int;
  repl_reconnects : int;
  readonly_rejections : int;
  loop_iterations : int;
  loop_fds_max : int;
  raw_frames_out : int;
  idle_timeouts : int;
  conns_refused : int;
}

let create () =
  {
    mu = Mutex.create ();
    connections_total = 0;
    connections_active = 0;
    frames_in = 0;
    frames_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    submits = 0;
    pushes = 0;
    errors = 0;
    submit_latency_total = 0.;
    submit_latency_max = 0.;
    submit_latency_hist = Array.make latency_buckets 0;
    batches = 0;
    batched_requests = 0;
    batch_size_max = 0;
    batch_size_hist = Array.make batch_buckets 0;
    wal_flushes = 0;
    wal_fsyncs = 0;
    replicas_active = 0;
    replicas_total = 0;
    repl_batches_shipped = 0;
    repl_records_shipped = 0;
    repl_last_shipped_lsn = 0;
    repl_acked_lsn = 0;
    repl_upstream_connected = false;
    repl_applied_lsn = 0;
    repl_seen_lsn = 0;
    repl_lag_lsn = 0;
    repl_lag_ms = 0.;
    repl_snapshots_loaded = 0;
    repl_reconnects = 0;
    readonly_rejections = 0;
    loop_iterations = 0;
    loop_fds_max = 0;
    raw_frames_out = 0;
    idle_timeouts = 0;
    conns_refused = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let on_connect t =
  locked t (fun () ->
      t.connections_total <- t.connections_total + 1;
      t.connections_active <- t.connections_active + 1)

let on_disconnect t =
  locked t (fun () -> t.connections_active <- t.connections_active - 1)

let on_frame_in t ~bytes =
  locked t (fun () ->
      t.frames_in <- t.frames_in + 1;
      t.bytes_in <- t.bytes_in + bytes)

let on_frame_out t ~bytes =
  locked t (fun () ->
      t.frames_out <- t.frames_out + 1;
      t.bytes_out <- t.bytes_out + bytes)

let on_submit t ~latency =
  locked t (fun () ->
      t.submits <- t.submits + 1;
      t.submit_latency_total <- t.submit_latency_total +. latency;
      t.submit_latency_max <- Float.max t.submit_latency_max latency;
      let b = bucket_of_latency_us (latency *. 1e6) in
      t.submit_latency_hist.(b) <- t.submit_latency_hist.(b) + 1)

let on_push t = locked t (fun () -> t.pushes <- t.pushes + 1)
let on_error t = locked t (fun () -> t.errors <- t.errors + 1)

(** One drained write batch of [size] requests; [flushes]/[fsyncs] are the
    WAL io deltas the batch caused (one flush + at most one fsync when the
    pipeline amortises correctly). *)
let on_batch t ~size ~flushes ~fsyncs =
  locked t (fun () ->
      t.batches <- t.batches + 1;
      t.batched_requests <- t.batched_requests + size;
      t.batch_size_max <- max t.batch_size_max size;
      let b = bucket_of_batch size in
      t.batch_size_hist.(b) <- t.batch_size_hist.(b) + 1;
      t.wal_flushes <- t.wal_flushes + flushes;
      t.wal_fsyncs <- t.wal_fsyncs + fsyncs)

(* -- replication -- *)

let on_replica_connect t =
  locked t (fun () ->
      t.replicas_total <- t.replicas_total + 1;
      t.replicas_active <- t.replicas_active + 1)

let on_replica_disconnect t =
  locked t (fun () -> t.replicas_active <- max 0 (t.replicas_active - 1))

(** Primary: mirror the hub's shipping gauges after a flush. *)
let set_repl_shipping t ~batches ~records ~last_lsn ~acked_lsn =
  locked t (fun () ->
      t.repl_batches_shipped <- batches;
      t.repl_records_shipped <- records;
      t.repl_last_shipped_lsn <- last_lsn;
      t.repl_acked_lsn <- acked_lsn)

let set_repl_upstream t connected =
  locked t (fun () -> t.repl_upstream_connected <- connected)

(** Replica: one batch applied at [lsn], currently [lag_lsn] batches and
    [lag_ms] milliseconds behind the primary's send time. *)
let on_repl_apply t ~lsn ~seen ~lag_lsn ~lag_ms =
  locked t (fun () ->
      t.repl_applied_lsn <- lsn;
      t.repl_seen_lsn <- max t.repl_seen_lsn seen;
      t.repl_lag_lsn <- lag_lsn;
      t.repl_lag_ms <- lag_ms)

let on_repl_snapshot t ~lsn =
  locked t (fun () ->
      t.repl_snapshots_loaded <- t.repl_snapshots_loaded + 1;
      t.repl_applied_lsn <- lsn;
      t.repl_seen_lsn <- max t.repl_seen_lsn lsn)

let on_repl_reconnect t =
  locked t (fun () -> t.repl_reconnects <- t.repl_reconnects + 1)

let on_readonly_rejected t =
  locked t (fun () -> t.readonly_rejections <- t.readonly_rejections + 1)

(* -- event-loop core -- *)

(** One wait cycle of the loop multiplexing [fds] fds (including the
    listen fd). *)
let on_loop_iteration t ~fds =
  locked t (fun () ->
      t.loop_iterations <- t.loop_iterations + 1;
      t.loop_fds_max <- max t.loop_fds_max fds)

let on_raw_frame_out t =
  locked t (fun () -> t.raw_frames_out <- t.raw_frames_out + 1)

let on_idle_timeout t =
  locked t (fun () -> t.idle_timeouts <- t.idle_timeouts + 1)

let on_conn_refused t =
  locked t (fun () -> t.conns_refused <- t.conns_refused + 1)

(* percentile from the log histogram: upper bound of the bucket where the
   cumulative count crosses p; the overflow bucket reports [max_s] *)
let hist_percentile hist ~total ~max_s p =
  if total = 0 then 0.
  else begin
    let target = int_of_float (ceil (p *. float_of_int total)) in
    let target = max 1 target in
    let rec walk i cum =
      if i >= Array.length hist then max_s
      else
        let cum = cum + hist.(i) in
        if cum >= target then
          if i < Array.length latency_bounds_us then latency_bounds_us.(i) /. 1e6
          else max_s
        else walk (i + 1) cum
    in
    walk 0 0
  end

let snapshot t : snapshot =
  locked t (fun () ->
      {
        connections_total = t.connections_total;
        connections_active = t.connections_active;
        frames_in = t.frames_in;
        frames_out = t.frames_out;
        bytes_in = t.bytes_in;
        bytes_out = t.bytes_out;
        submits = t.submits;
        pushes = t.pushes;
        errors = t.errors;
        submit_latency_mean =
          (if t.submits = 0 then 0.
           else t.submit_latency_total /. float_of_int t.submits);
        submit_latency_max = t.submit_latency_max;
        submit_latency_p50 =
          hist_percentile t.submit_latency_hist ~total:t.submits
            ~max_s:t.submit_latency_max 0.50;
        submit_latency_p99 =
          hist_percentile t.submit_latency_hist ~total:t.submits
            ~max_s:t.submit_latency_max 0.99;
        submit_latency_hist = Array.copy t.submit_latency_hist;
        batches = t.batches;
        batched_requests = t.batched_requests;
        batch_size_mean =
          (if t.batches = 0 then 0.
           else float_of_int t.batched_requests /. float_of_int t.batches);
        batch_size_max = t.batch_size_max;
        batch_size_hist = Array.copy t.batch_size_hist;
        wal_flushes = t.wal_flushes;
        wal_fsyncs = t.wal_fsyncs;
        replicas_active = t.replicas_active;
        replicas_total = t.replicas_total;
        repl_batches_shipped = t.repl_batches_shipped;
        repl_records_shipped = t.repl_records_shipped;
        repl_last_shipped_lsn = t.repl_last_shipped_lsn;
        repl_acked_lsn = t.repl_acked_lsn;
        repl_upstream_connected = t.repl_upstream_connected;
        repl_applied_lsn = t.repl_applied_lsn;
        repl_seen_lsn = t.repl_seen_lsn;
        repl_lag_lsn = t.repl_lag_lsn;
        repl_lag_ms = t.repl_lag_ms;
        repl_snapshots_loaded = t.repl_snapshots_loaded;
        repl_reconnects = t.repl_reconnects;
        readonly_rejections = t.readonly_rejections;
        loop_iterations = t.loop_iterations;
        loop_fds_max = t.loop_fds_max;
        raw_frames_out = t.raw_frames_out;
        idle_timeouts = t.idle_timeouts;
        conns_refused = t.conns_refused;
      })

(* "≤bound:count" pairs for the non-empty buckets, e.g. "le8:3,le16:12" *)
let hist_to_string ~bounds hist =
  let parts = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let label =
          if i < Array.length bounds then Printf.sprintf "le%s" bounds.(i)
          else "inf"
        in
        parts := Printf.sprintf "%s:%d" label c :: !parts
      end)
    hist;
  String.concat "," (List.rev !parts)

let latency_bound_labels =
  Array.map (fun b -> Printf.sprintf "%.0f" b) latency_bounds_us

let batch_bound_labels = Array.map string_of_int batch_bounds

(** One key=value per line — the payload of the [ADMIN|…|server] probe. *)
let render t =
  let s = snapshot t in
  String.concat "\n"
    [
      Printf.sprintf "connections_total=%d" s.connections_total;
      Printf.sprintf "connections_active=%d" s.connections_active;
      Printf.sprintf "frames_in=%d" s.frames_in;
      Printf.sprintf "frames_out=%d" s.frames_out;
      Printf.sprintf "bytes_in=%d" s.bytes_in;
      Printf.sprintf "bytes_out=%d" s.bytes_out;
      Printf.sprintf "submits=%d" s.submits;
      Printf.sprintf "pushes=%d" s.pushes;
      Printf.sprintf "errors=%d" s.errors;
      Printf.sprintf "submit_latency_mean_us=%.1f" (s.submit_latency_mean *. 1e6);
      Printf.sprintf "submit_latency_max_us=%.1f" (s.submit_latency_max *. 1e6);
      Printf.sprintf "submit_latency_p50_us=%.1f" (s.submit_latency_p50 *. 1e6);
      Printf.sprintf "submit_latency_p99_us=%.1f" (s.submit_latency_p99 *. 1e6);
      Printf.sprintf "submit_latency_hist_us=%s"
        (hist_to_string ~bounds:latency_bound_labels s.submit_latency_hist);
      Printf.sprintf "batches=%d" s.batches;
      Printf.sprintf "batched_requests=%d" s.batched_requests;
      Printf.sprintf "batch_size_mean=%.2f" s.batch_size_mean;
      Printf.sprintf "batch_size_max=%d" s.batch_size_max;
      Printf.sprintf "batch_size_hist=%s"
        (hist_to_string ~bounds:batch_bound_labels s.batch_size_hist);
      Printf.sprintf "wal_flushes=%d" s.wal_flushes;
      Printf.sprintf "wal_fsyncs=%d" s.wal_fsyncs;
      Printf.sprintf "replicas_active=%d" s.replicas_active;
      Printf.sprintf "replicas_total=%d" s.replicas_total;
      Printf.sprintf "repl_batches_shipped=%d" s.repl_batches_shipped;
      Printf.sprintf "repl_records_shipped=%d" s.repl_records_shipped;
      Printf.sprintf "repl_last_shipped_lsn=%d" s.repl_last_shipped_lsn;
      Printf.sprintf "repl_acked_lsn=%d" s.repl_acked_lsn;
      Printf.sprintf "repl_upstream_connected=%b" s.repl_upstream_connected;
      Printf.sprintf "repl_applied_lsn=%d" s.repl_applied_lsn;
      Printf.sprintf "repl_seen_lsn=%d" s.repl_seen_lsn;
      Printf.sprintf "repl_lag_lsn=%d" s.repl_lag_lsn;
      Printf.sprintf "repl_lag_ms=%.3f" s.repl_lag_ms;
      Printf.sprintf "repl_snapshots_loaded=%d" s.repl_snapshots_loaded;
      Printf.sprintf "repl_reconnects=%d" s.repl_reconnects;
      Printf.sprintf "readonly_rejections=%d" s.readonly_rejections;
      Printf.sprintf "loop_iterations=%d" s.loop_iterations;
      Printf.sprintf "loop_fds_max=%d" s.loop_fds_max;
      Printf.sprintf "raw_frames_out=%d" s.raw_frames_out;
      Printf.sprintf "idle_timeouts=%d" s.idle_timeouts;
      Printf.sprintf "conns_refused=%d" s.conns_refused;
    ]
