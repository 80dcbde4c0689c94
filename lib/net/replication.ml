(** Checkpoint + WAL-shipping replication.

    The primary keeps a {!Hub}: every committed WAL batch (hooked off
    {!Relational.Wal.set_on_append}, so DDL auto-commits are included) is
    enqueued under the engine lock and fanned out to connected replica
    sinks by {!Hub.flush} — which the server calls after releasing the
    lock, mirroring how client responses are fanned out.  A replica runs
    {!Replica.start}: a background thread that dials the primary with
    {!Backoff}, sends [RHELLO] carrying the last LSN it applied, and then
    consumes the primary's stream — snapshot chunks
    ({!Relational.Checkpoint} lines) when it is too far behind, WAL-record
    frames otherwise — acknowledging each applied batch with [RACK].

    Neither side depends on {!Server}: the hub sends through a callback
    (the server's non-blocking per-connection enqueue) and the replica
    applies through callbacks (the replica server wraps them in its engine
    write lock), so the module is testable over bare sockets.

    Delivery discipline: LSNs are dense (every commit-terminated batch
    increments by one), so the replica buffers completed batches and
    applies strictly in sequence — [applied + 1] or nothing.  Duplicates
    (the catch-up stream overlaps the live stream by design) and
    reorderings are absorbed by the buffer; a gap simply waits, and if the
    connection dies first the reconnect handshake re-ships the suffix. *)

open Relational

let log_src = Logs.Src.create "youtopia.repl" ~doc:"Youtopia replication"

module Log = (val Logs.src_log log_src : Logs.LOG)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* ---------------- chunking ---------------- *)

(** Split [text] into [(last, piece)] chunks of at most
    {!Wire.repl_chunk_bytes}; always yields at least one chunk. *)
let chunks text =
  let n = String.length text in
  let budget = Wire.repl_chunk_bytes in
  if n = 0 then [ (true, "") ]
  else begin
    let out = ref [] in
    let off = ref 0 in
    while !off < n do
      let len = min budget (n - !off) in
      out := (!off + len >= n, String.sub text !off len) :: !out;
      off := !off + len
    done;
    List.rev !out
  end

let encode_batch records =
  String.concat "\n" (List.map Wal.encode_record records)

let decode_batch text =
  List.map Wal.decode_record (String.split_on_char '\n' text)

(** Wire frames for one committed batch, in send order. *)
let frames_of_batch ~lsn ~sent_at_us records =
  List.map
    (fun (last, piece) ->
      Wire.Wal_recs { lsn; sent_at_us; last; records = piece })
    (chunks (encode_batch records))

(** Wire frames for a checkpoint snapshot, in send order. *)
let frames_of_snapshot ~lsn lines =
  List.mapi
    (fun seq (last, piece) -> Wire.Snapshot_chunk { lsn; seq; last; data = piece })
    (chunks (String.concat "\n" lines))

(** Committed batches recorded in the WAL file past [after_lsn], as
    [(lsn, records)] oldest first.  Tolerates a concurrently appending
    writer: a torn tail parses as an incomplete batch and is dropped —
    the live stream covers it.  Used for replica catch-up. *)
let catchup_batches ~wal_path ~after_lsn =
  let base, records =
    match Wal.read_records wal_path with
    | Wal.Lsn_base n :: rest -> (n, rest)
    | records -> (0, records)
  in
  let out = ref [] in
  let lsn = ref base in
  let batch = ref [] in
  List.iter
    (fun r ->
      batch := r :: !batch;
      match r with
      | Wal.Commit _ ->
        incr lsn;
        if !lsn > after_lsn then out := (!lsn, List.rev !batch) :: !out;
        batch := []
      | _ -> ())
    records;
  List.rev !out

(* ---------------- primary: the hub ---------------- *)

module Hub = struct
  type sink = {
    sink_id : string;
    send : Wire.response -> unit;
        (** non-blocking enqueue; exceptions mark the sink dead *)
    mutable sent_lsn : int;
    mutable acked_lsn : int;
    mutable alive : bool;
  }

  type stats = {
    replicas : int;
    batches_shipped : int;
    records_shipped : int;
    last_shipped_lsn : int;
    min_acked_lsn : int;  (** 0 when no replica is connected *)
  }

  type t = {
    mu : Mutex.t;
    pending : (int * Wal.record list) Queue.t;
    mutable sinks : sink list;
    mutable batches_shipped : int;
    mutable records_shipped : int;
    mutable last_shipped_lsn : int;
  }

  let create () =
    {
      mu = Mutex.create ();
      pending = Queue.create ();
      sinks = [];
      batches_shipped = 0;
      records_shipped = 0;
      last_shipped_lsn = 0;
    }

  let with_mu t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (** Record a committed batch for shipping.  Called from the WAL's
      on-append hook — under the WAL lock, inside the committer's engine
      lock — so it only enqueues; {!flush} does the sending. *)
  let note t ~lsn records =
    with_mu t (fun () -> Queue.push (lsn, records) t.pending)

  (** Hook the hub into a WAL so every committed batch is noted. *)
  let attach t wal = Wal.set_on_append wal (Some (fun ~lsn recs -> note t ~lsn recs))

  let register t ~replica_id ~send =
    let sink =
      { sink_id = replica_id; send; sent_lsn = 0; acked_lsn = 0; alive = true }
    in
    with_mu t (fun () -> t.sinks <- sink :: t.sinks);
    sink

  let unregister t sink =
    sink.alive <- false;
    with_mu t (fun () -> t.sinks <- List.filter (fun s -> s != sink) t.sinks)

  let ack sink ~lsn = if lsn > sink.acked_lsn then sink.acked_lsn <- lsn

  (** Drain pending batches to every live sink, in commit order.  Runs
      under the hub lock for the whole drain so chunks of different
      batches never interleave on a connection; sends are non-blocking
      enqueues, so holding it is cheap.  Call after releasing the engine
      lock. *)
  let flush t =
    Fault.point "repl.hub.flush";
    with_mu t (fun () ->
        while not (Queue.is_empty t.pending) do
          let lsn, records = Queue.pop t.pending in
          (* [repl.hub.drop] loses this batch on the shipping path (never
             from the log): replicas must detect the LSN gap and recover
             via reconnect catch-up *)
          if Fault.skip "repl.hub.drop" then ()
          else if t.sinks <> [] then begin
            let frames = frames_of_batch ~lsn ~sent_at_us:(now_us ()) records in
            List.iter
              (fun sink ->
                if sink.alive then begin
                  try
                    List.iter sink.send frames;
                    if lsn > sink.sent_lsn then sink.sent_lsn <- lsn
                  with e ->
                    sink.alive <- false;
                    Log.warn (fun m ->
                        m "dropping replica sink %s: %s" sink.sink_id
                          (Printexc.to_string e))
                end)
              t.sinks;
            t.batches_shipped <- t.batches_shipped + 1;
            t.records_shipped <- t.records_shipped + List.length records;
            if lsn > t.last_shipped_lsn then t.last_shipped_lsn <- lsn
          end
        done)

  let stats t =
    with_mu t (fun () ->
        let live = List.filter (fun s -> s.alive) t.sinks in
        {
          replicas = List.length live;
          batches_shipped = t.batches_shipped;
          records_shipped = t.records_shipped;
          last_shipped_lsn = t.last_shipped_lsn;
          min_acked_lsn =
            (match live with
            | [] -> 0
            | _ -> List.fold_left (fun m s -> min m s.acked_lsn) max_int live);
        })

  let replicas t =
    with_mu t (fun () ->
        List.filter_map
          (fun s ->
            if s.alive then Some (s.sink_id, s.sent_lsn, s.acked_lsn) else None)
          t.sinks)
end

(* ---------------- replica: the upstream loop ---------------- *)

module Replica = struct
  type event =
    | Connected
    | Disconnected of string
    | Snapshot_loaded of { lsn : int }
    | Batch_applied of { lsn : int; lag_lsn : int; lag_ms : float }

  type callbacks = {
    load_snapshot : lsn:int -> Catalog.t -> unit;
        (** swap the replica's state to the snapshot; runs on the replica
            thread — wrap in the engine write lock *)
    apply_batch : lsn:int -> Wal.record list -> unit;
        (** apply one committed batch; same locking discipline *)
    notify : event -> unit;  (** stats / logging; must not raise *)
  }

  type counters = {
    mutable reconnects : int;
    mutable snapshots_loaded : int;
    mutable batches_applied : int;
    mutable last_lag_ms : float;
  }

  type t = {
    host : string;
    port : int;
    replica_id : string;
    policy : Backoff.policy;
    max_frame : int;
    cb : callbacks;
    mu : Mutex.t;
    mutable applied_lsn : int;
    mutable seen_lsn : int;
    mutable connected : bool;
    mutable stopping : bool;
    mutable session_ok : bool;
        (** the current/last session completed its handshake — resets the
            reconnect backoff *)
    mutable fd : Unix.file_descr option;
    counters : counters;
    mutable thread : Thread.t option;
  }

  let with_mu t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let applied_lsn t = t.applied_lsn
  let seen_lsn t = t.seen_lsn
  let connected t = t.connected

  let stats t =
    with_mu t (fun () ->
        ( t.counters.reconnects,
          t.counters.snapshots_loaded,
          t.counters.batches_applied,
          t.counters.last_lag_ms ))

  let dial t =
    let addr =
      match Unix.getaddrinfo t.host (string_of_int t.port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
      | ai :: _ -> ai.Unix.ai_addr
      | [] -> failwith (Printf.sprintf "cannot resolve %s:%d" t.host t.port)
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with e ->
       Unix.close fd;
       raise e);
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd

  (** One connection lifetime: handshake, then consume the stream until it
      breaks or [stop] shuts the socket down.  Completed batches are
      buffered and applied strictly in LSN sequence; while a snapshot is
      being streamed nothing is applied — the snapshot resets [applied]
      (possibly backwards, when the primary restarted with an older log)
      and the buffer drains on top of it. *)
  let session t =
    let fd = dial t in
    t.fd <- Some fd;
    let max_frame = t.max_frame in
    let send req = Wire.write_frame ~max_frame fd (Wire.encode_request req) in
    Fun.protect
      ~finally:(fun () ->
        t.fd <- None;
        t.connected <- false;
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        send
          (Wire.Replica_hello
             {
               version = Wire.protocol_version;
               replica_id = t.replica_id;
               last_lsn = t.applied_lsn;
             });
        (match Wire.decode_response_kind (Wire.read_frame_kind ~max_frame fd) with
        | Wire.Welcome _ -> ()
        | Wire.Error { message; _ } -> failwith ("primary rejected replica: " ^ message)
        | _ -> failwith "unexpected handshake response");
        t.connected <- true;
        t.session_ok <- true;
        t.cb.notify Connected;
        (* per-session reassembly state *)
        let snap : (int * Buffer.t) option ref = ref None in
        let partial : (int, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
        let completed : (int, Wal.record list * int) Hashtbl.t =
          Hashtbl.create 8
        in
        let drain () =
          if !snap = None then begin
            let continue = ref true in
            while !continue do
              match Hashtbl.find_opt completed (t.applied_lsn + 1) with
              | None -> continue := false
              | Some (records, sent_at_us) ->
                let lsn = t.applied_lsn + 1 in
                Hashtbl.remove completed lsn;
                (* a raising [apply_batch] aborts the session before
                   [applied_lsn] advances; the reconnect re-requests from
                   this batch *)
                t.cb.apply_batch ~lsn records;
                t.applied_lsn <- lsn;
                let lag_lsn = max 0 (t.seen_lsn - lsn) in
                let lag_ms = float_of_int (now_us () - sent_at_us) /. 1e3 in
                with_mu t (fun () ->
                    t.counters.batches_applied <-
                      t.counters.batches_applied + 1;
                    t.counters.last_lag_ms <- lag_ms);
                t.cb.notify (Batch_applied { lsn; lag_lsn; lag_ms });
                send (Wire.Repl_ack { lsn })
            done;
            (* stale duplicates (catch-up overlapping the live stream) *)
            Hashtbl.iter
              (fun lsn _ -> if lsn <= t.applied_lsn then Hashtbl.remove completed lsn)
              (Hashtbl.copy completed)
          end
        in
        let rec loop () =
          (match Wire.decode_response_kind (Wire.read_frame_kind ~max_frame fd) with
          | Wire.Snapshot_chunk { lsn; seq = _; last; data } ->
            let buf =
              match !snap with
              | Some (l, buf) when l = lsn -> buf
              | _ ->
                let buf = Buffer.create 4096 in
                snap := Some (lsn, buf);
                buf
            in
            Buffer.add_string buf data;
            if last then begin
              let lines = String.split_on_char '\n' (Buffer.contents buf) in
              let snap_lsn, catalog = Checkpoint.of_lines lines in
              snap := None;
              t.cb.load_snapshot ~lsn:snap_lsn catalog;
              t.applied_lsn <- snap_lsn;
              if snap_lsn > t.seen_lsn then t.seen_lsn <- snap_lsn;
              with_mu t (fun () ->
                  t.counters.snapshots_loaded <- t.counters.snapshots_loaded + 1);
              t.cb.notify (Snapshot_loaded { lsn = snap_lsn });
              drain ()
            end
          | Wire.Wal_recs { lsn; sent_at_us; last; records } ->
            if lsn > t.seen_lsn then t.seen_lsn <- lsn;
            let buf =
              match Hashtbl.find_opt partial lsn with
              | Some buf -> buf
              | None ->
                let buf = Buffer.create 256 in
                Hashtbl.replace partial lsn buf;
                buf
            in
            Buffer.add_string buf records;
            if last then begin
              let text = Buffer.contents buf in
              Hashtbl.remove partial lsn;
              Hashtbl.replace completed lsn (decode_batch text, sent_at_us);
              drain ()
            end
          | Wire.Error { message; _ } -> failwith ("primary error: " ^ message)
          | Wire.Welcome _ | Wire.Result _ | Wire.Pong _ | Wire.Stats _
          | Wire.Push _ ->
            ());
          loop ()
        in
        loop ())

  let run t =
    let attempt = ref 0 in
    while not t.stopping do
      (try
         session t (* returns only by exception *)
       with e ->
         if not t.stopping then begin
           with_mu t (fun () ->
               t.counters.reconnects <- t.counters.reconnects + 1);
           t.cb.notify (Disconnected (Printexc.to_string e));
           Log.info (fun m ->
               m "replica %s: upstream %s:%d lost (%s); reconnecting"
                 t.replica_id t.host t.port (Printexc.to_string e))
         end);
      if not t.stopping then begin
        incr attempt;
        if t.session_ok then attempt := 1;
        t.session_ok <- false;
        let delay =
          Backoff.jittered t.policy ~attempt:(min !attempt t.policy.attempts)
        in
        if delay > 0. then Thread.delay delay
      end
    done

  let start ~host ~port ?(replica_id = "replica") ?(policy = Backoff.default)
      ?(max_frame = Wire.default_max_frame) cb =
    let t =
      {
        host;
        port;
        replica_id;
        policy;
        max_frame;
        cb;
        mu = Mutex.create ();
        applied_lsn = 0;
        seen_lsn = 0;
        connected = false;
        stopping = false;
        session_ok = false;
        fd = None;
        counters =
          {
            reconnects = 0;
            snapshots_loaded = 0;
            batches_applied = 0;
            last_lag_ms = 0.;
          };
        thread = None;
      }
    in
    t.thread <- Some (Thread.create run t);
    t

  let stop t =
    t.stopping <- true;
    (match t.fd with
    | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    match t.thread with None -> () | Some th -> Thread.join th
end
