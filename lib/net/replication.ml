(** Checkpoint + WAL-shipping replication.

    The primary keeps a {!Hub}: every committed WAL batch (hooked off
    {!Relational.Wal.set_on_append}, so DDL auto-commits are included) is
    enqueued as it commits and fanned out to connected replica sinks by
    {!Hub.flush}, which the server calls after the batch's responses are
    queued.  A replica keeps a {!Replica}: the IO-free state of its
    upstream session.  It yields the [RHELLO] carrying the last LSN it
    applied, consumes the primary's stream — snapshot chunks
    ({!Relational.Checkpoint} lines) when it is too far behind, WAL-record
    frames otherwise — yields a [RACK] per applied batch, and decides when
    a lost link is redialled ({!Backoff}).

    Neither side holds a socket, a thread or a lock: the hub sends through
    a callback (the server's non-blocking per-connection enqueue) and the
    server's event loop carries the replica's frames, so both are driven
    by one thread.

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
    pending : (int * Wal.record list) Queue.t;
    mutable sinks : sink list;
    mutable batches_shipped : int;
    mutable records_shipped : int;
    mutable last_shipped_lsn : int;
  }

  let create () =
    {
      pending = Queue.create ();
      sinks = [];
      batches_shipped = 0;
      records_shipped = 0;
      last_shipped_lsn = 0;
    }

  (** Record a committed batch for shipping.  Called from the WAL's
      on-append hook, in the middle of a commit, so it only enqueues;
      {!flush} does the sending. *)
  let note t ~lsn records = Queue.push (lsn, records) t.pending

  (** Hook the hub into a WAL so every committed batch is noted. *)
  let attach t wal = Wal.set_on_append wal (Some (fun ~lsn recs -> note t ~lsn recs))

  let register t ~replica_id ~send =
    let sink =
      { sink_id = replica_id; send; sent_lsn = 0; acked_lsn = 0; alive = true }
    in
    t.sinks <- sink :: t.sinks;
    sink

  let unregister t sink =
    sink.alive <- false;
    t.sinks <- List.filter (fun s -> s != sink) t.sinks

  let ack sink ~lsn = if lsn > sink.acked_lsn then sink.acked_lsn <- lsn

  (** Drain pending batches to every live sink, in commit order: every
      chunk of one batch is queued before the next batch starts, so chunks
      of different batches never interleave on a connection.  Sends are
      non-blocking enqueues.  [repl.hub.flush] fires before anything is
      taken off the queue. *)
  let flush t =
    Fault.point "repl.hub.flush";
    while not (Queue.is_empty t.pending) do
      let lsn, records = Queue.pop t.pending in
      (* [repl.hub.drop] loses this batch on the shipping path (never from
         the log): replicas must detect the LSN gap and recover via
         reconnect catch-up *)
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
    done

  let stats t =
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
    }

  let replicas t =
    List.filter_map
      (fun s -> if s.alive then Some (s.sink_id, s.sent_lsn, s.acked_lsn) else None)
      t.sinks
end

(* ---------------- replica: the upstream session ---------------- *)

module Replica = struct
  type t = {
    replica_id : string;
    catalog : Catalog.t;
    stats : Server_stats.t;
    mutable applied_lsn : int;
    mutable seen_lsn : int;
    mutable live : bool;  (** a session is open: dialled and not yet lost *)
    mutable welcomed : bool;  (** the open session completed its handshake *)
    mutable attempt : int;
        (** sessions lost since the last one that completed a handshake
            (1 right after such a one); 0 before the first loss *)
    mutable next_dial : float;
    (* per-session reassembly *)
    mutable snap : (int * Buffer.t) option;
    partial : (int, Buffer.t) Hashtbl.t;
    completed : (int, Wal.record list * int) Hashtbl.t;
  }

  let create ~replica_id ~now catalog stats =
    {
      replica_id;
      catalog;
      stats;
      applied_lsn = 0;
      seen_lsn = 0;
      live = false;
      welcomed = false;
      attempt = 0;
      next_dial = now;
      snap = None;
      partial = Hashtbl.create 8;
      completed = Hashtbl.create 8;
    }

  let next_dial t = if t.live then None else Some t.next_dial

  let connect t =
    if t.attempt > 0 then Server_stats.on_repl_reconnect t.stats;
    t.live <- true;
    t.welcomed <- false;
    t.snap <- None;
    Hashtbl.reset t.partial;
    Hashtbl.reset t.completed;
    Wire.Replica_hello
      {
        version = Wire.protocol_version;
        replica_id = t.replica_id;
        last_lsn = t.applied_lsn;
      }

  let lost t ~now why =
    if t.live then begin
      t.live <- false;
      t.attempt <- (if t.welcomed then 1 else t.attempt + 1);
      let p = Backoff.default in
      let delay = Backoff.jittered p ~attempt:(min t.attempt p.attempts) in
      t.next_dial <- now +. delay;
      Server_stats.set_repl_upstream t.stats false;
      Log.info (fun m ->
          m "replica %s: upstream lost (%s); redialling in %.0f ms" t.replica_id
            why (delay *. 1e3))
    end

  (** Apply completed batches strictly in LSN sequence, one RACK each.
      Nothing applies while a snapshot is streaming: the snapshot resets
      [applied_lsn] (possibly backwards, when the primary restarted with an
      older log) and the buffer drains on top of it. *)
  let drain t ~now =
    let acks = ref [] in
    if t.snap = None then begin
      let rec next () =
        let lsn = t.applied_lsn + 1 in
        match Hashtbl.find_opt t.completed lsn with
        | None -> ()
        | Some (records, sent_at_us) ->
          Hashtbl.remove t.completed lsn;
          (* raising here ends the session before [applied_lsn] advances;
             the next RHELLO re-requests this batch *)
          Fault.point "repl.replica.apply";
          ignore (Wal.apply_batches t.catalog records);
          t.applied_lsn <- lsn;
          Server_stats.on_repl_apply t.stats ~lsn ~seen:t.seen_lsn
            ~lag_lsn:(max 0 (t.seen_lsn - lsn))
            ~lag_ms:((now *. 1e3) -. (float_of_int sent_at_us /. 1e3));
          acks := Wire.Repl_ack { lsn } :: !acks;
          next ()
      in
      next ();
      (* stale duplicates (catch-up overlapping the live stream) *)
      Hashtbl.filter_map_inplace
        (fun lsn batch -> if lsn <= t.applied_lsn then None else Some batch)
        t.completed
    end;
    List.rev !acks

  let receive t ~now (response : Wire.response) =
    match response with
    | Wire.Welcome _ when not t.welcomed ->
      t.welcomed <- true;
      Server_stats.set_repl_upstream t.stats true;
      []
    | Wire.Error { message; _ } when not t.welcomed ->
      failwith ("primary rejected replica: " ^ message)
    | _ when not t.welcomed -> failwith "unexpected handshake response"
    | Wire.Snapshot_chunk { lsn; seq = _; last; data } ->
      let buf =
        match t.snap with
        | Some (l, buf) when l = lsn -> buf
        | _ ->
          let buf = Buffer.create 4096 in
          t.snap <- Some (lsn, buf);
          buf
      in
      Buffer.add_string buf data;
      if not last then []
      else begin
        let lines = String.split_on_char '\n' (Buffer.contents buf) in
        let snap_lsn, snapshot = Checkpoint.of_lines lines in
        t.snap <- None;
        Catalog.adopt t.catalog snapshot;
        t.applied_lsn <- snap_lsn;
        if snap_lsn > t.seen_lsn then t.seen_lsn <- snap_lsn;
        Server_stats.on_repl_snapshot t.stats ~lsn:snap_lsn;
        drain t ~now
      end
    | Wire.Wal_recs { lsn; sent_at_us; last; records } ->
      if lsn > t.seen_lsn then t.seen_lsn <- lsn;
      let buf =
        match Hashtbl.find_opt t.partial lsn with
        | Some buf -> buf
        | None ->
          let buf = Buffer.create 256 in
          Hashtbl.replace t.partial lsn buf;
          buf
      in
      Buffer.add_string buf records;
      if not last then []
      else begin
        Hashtbl.remove t.partial lsn;
        Hashtbl.replace t.completed lsn
          (decode_batch (Buffer.contents buf), sent_at_us);
        drain t ~now
      end
    | Wire.Error { message; _ } -> failwith ("primary error: " ^ message)
    | Wire.Welcome _ | Wire.Result _ | Wire.Pong _ | Wire.Stats _ | Wire.Push _
      ->
      []
end
