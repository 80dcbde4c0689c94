(** TCP server exposing one shared {!Youtopia.System.t}.

    One event loop on one thread owns the listening socket and every
    connection.  It multiplexes them, all {e non-blocking}, with one
    [poll(2)] call per iteration ({!Netpoll}); the listening socket is in
    the same poll set, so accepting is just another readiness event.
    Reads go through the incremental {!Wire.Decoder} so a partial frame
    never blocks the loop; complete frames dispatch inline.  The write
    SUBMITs decoded during one poll iteration collect into the open batch,
    which the loop itself executes at the end of the iteration.  Outbound
    frames queue per connection (bounded by [max_outq] — a slow consumer
    is dropped, never buffered without limit) and are flushed by the loop.
    Nothing but the loop touches a connection, so connection state takes
    no lock and needs no cross-thread wakeup.  Backpressure: a connection
    with [max_in_flight] responses queued unflushed loses [POLLIN]
    interest until they drain.  Idle enforcement is loop-side
    ([read_timeout] deadlines swept by the loop) and {e exempts}
    connections whose user owns a parked pending query — a long
    coordination wait must not race the idle timer — as well as replica
    links.

    Engine work runs under one mutex, the engine lock, which the loop
    shares only with a replica's upstream thread.  Writes go through
    the {b batch executor} (one lock acquisition, one WAL group flush, one
    coordinator poke per batch; responses fan out after release).  SQL is
    parsed {i outside} the lock.  Program order holds per connection: any
    other frame from a connection with a write in the open batch runs the
    batch first.  Pushes are handed off from the coordinator's fulfilment
    path straight onto the owning connection's outbound queue via
    {!Youtopia.Session.set_listener}.

    Connections negotiated at protocol ≥ 2 receive bulky payloads
    (replication chunks, large results) as raw-bytes frames
    ({!Wire.encode_response_raw}). *)

let log_src = Logs.Src.create "youtopia.net" ~doc:"Youtopia network server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  backlog : int;
  max_frame : int;
  read_timeout : float;  (** seconds a connection may sit idle; 0 = forever *)
  max_outq : int;
      (** frames a connection may have queued outbound before it is
          dropped as a slow consumer *)
  banner : string;
  max_batch : int;
      (** most write requests one batch executes; 1 is the per-request
          baseline *)
  durability : Relational.Wal.durability option;
      (** applied to the system's WAL at {!start}; [None] leaves the
          database's current mode untouched *)
  replica_of : (string * int) option;
      (** run as a read replica of this primary: writes are rejected with
          a redirect naming it, and an upstream loop bootstraps from a
          streamed snapshot then tails the primary's WAL *)
  replica_id : string;  (** name announced in the replica handshake *)
  max_in_flight : int;
      (** responses one connection may have queued unflushed before the
          loop drops its read interest (backpressure) *)
  max_conns : int;  (** refuse accepts beyond this many live conns; 0 = ∞ *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7077;
    backlog = 64;
    max_frame = Wire.default_max_frame;
    read_timeout = 0.;
    max_outq = 1024;
    banner = "youtopia";
    max_batch = 32;
    durability = None;
    replica_of = None;
    replica_id = "replica";
    max_in_flight = 64;
    max_conns = 0;
  }

(** What the handshake made of a connection: an ordinary client session,
    or a replica's upstream link. *)
type peer =
  | Client_peer of Youtopia.Session.t
  | Replica_peer of Replication.Hub.sink

type conn = {
  conn_id : int;
  fd : Unix.file_descr;
  outq : (bool * string) Queue.t;  (** (raw, payload) awaiting the wire *)
  mutable closing : bool;
  mutable raw : bool;  (** negotiated protocol ≥ 2: bulky frames go raw *)
  mutable batched : int;  (** this connection's writes in the open batch *)
  dec : Wire.Decoder.t;
  mutable peer : peer option;
  mutable last_activity : float;
  mutable close_after_flush : bool;  (** drain [outq], then tear down *)
  (* partial-write state: the staged frame being written *)
  mutable wbuf : Bytes.t;
  mutable woff : int;
  mutable wlen : int;
}

(** One write request in an open batch: everything the executor needs to
    run it and send the response. *)
type write_req = {
  wr_conn : conn;
  wr_session : Youtopia.Session.t;
  wr_id : int;
  wr_stmts : Sql.Ast.statement list;  (** parsed outside the engine lock *)
  wr_t0 : float;  (** arrival time, for end-to-end submit latency *)
}

(** The write requests the loop has decoded but not yet executed, newest
    first. *)
type batch = { mutable reqs : write_req list; mutable size : int }

(** The connections, the open batch, the poll arrays and the flags belong
    to the loop thread alone; {!stop} writes only [running]. *)
type t = {
  sys : Youtopia.System.t;
  config : config;
  stats : Server_stats.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  engine_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  batch : batch;
  mutable next_conn_id : int;
  mutable running : bool;
  mutable late_out : bool;
      (** output was queued since this iteration's interest build began:
          the next poll must not block *)
  mutable accept_paused_until : float;
      (** the listen fd stays out of the interest set until then, after an
          accept error such as [EMFILE] *)
  (* reusable poll arrays, resized as the fd population grows; slot 0 is
     the listen fd *)
  mutable fds : Unix.file_descr array;
  mutable events : int array;
  mutable revents : int array;
  mutable slots : conn option array;
  mutable thread : Thread.t option;
  (* replication *)
  hub : Replication.Hub.t option;
      (** primary side: committed batches fan out to replica sinks;
          [None] without a WAL or in replica mode *)
  mutable replica : Replication.Replica.t option;
      (** replica side: the upstream loop tailing the primary *)
}

let port t = t.bound_port
let stats t = t.stats
let system t = t.sys
let is_replica t = t.config.replica_of <> None

(** Ship batches noted under the engine lock to connected replicas; called
    after the lock is released, next to the response fan-out. *)
let hub_flush t =
  match t.hub with
  | None -> ()
  | Some hub ->
    Replication.Hub.flush hub;
    let s = Replication.Hub.stats hub in
    Server_stats.set_repl_shipping t.stats
      ~batches:s.Replication.Hub.batches_shipped
      ~records:s.Replication.Hub.records_shipped
      ~last_lsn:s.Replication.Hub.last_shipped_lsn
      ~acked_lsn:s.Replication.Hub.min_acked_lsn

(* ---------------- engine access ---------------- *)

(* One engine section: [f] runs holding the engine lock.  The lock is
   tried first, so [note] learns whether this acquisition had to wait.
   Sections never nest — a re-lock from the holding thread raises. *)
let engine_section t ~note f =
  let waited = not (Mutex.try_lock t.engine_lock) in
  if waited then Mutex.lock t.engine_lock;
  note t.stats ~waited;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.engine_lock) f

(** Anything that can mutate: DML, DDL, entangled submissions, cancels,
    checkpoints, replica apply. *)
let with_engine t f = engine_section t ~note:Server_stats.on_engine_write f

(** Read-only scripts and admin probes: the same lock, counted apart. *)
let with_engine_read t f = engine_section t ~note:Server_stats.on_engine_read f

(** A statement that cannot mutate — shared with the client's replica
    routing so both sides agree (see {!Sql.Ast.read_only}). *)
let read_only_stmt : Sql.Ast.statement -> bool = Sql.Ast.read_only

(* ---------------- outbound queue ---------------- *)

(** Enqueue one (raw, payload) frame for the loop to flush, bounded by
    [config.max_outq]: a peer that stops reading while frames keep
    arriving is dropped rather than buffered without limit.  The fd
    shutdown surfaces as an error readiness bit to the loop, so normal
    teardown runs.  The loop flushes every connection before its next
    poll; [late_out] keeps that poll from blocking in case this
    connection's interest was already built without the output. *)
let enqueue t conn item =
  if conn.closing then ()
  else if Queue.length conn.outq >= t.config.max_outq then begin
    conn.closing <- true;
    Queue.clear conn.outq;
    Server_stats.on_error t.stats;
    Log.warn (fun f ->
        f "conn %d: slow consumer, %d frames queued; dropping" conn.conn_id
          t.config.max_outq);
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end
  else begin
    Queue.push item conn.outq;
    t.late_out <- true
  end

(** Encode and enqueue: bulky responses go raw when the connection
    negotiated protocol ≥ 2, the escaped text codec otherwise. *)
let send t conn response =
  match if conn.raw then Wire.encode_response_raw response else None with
  | Some payload ->
    Server_stats.on_raw_frame_out t.stats;
    enqueue t conn (true, payload)
  | None -> enqueue t conn (false, Wire.encode_response response)

(* A failpoint on a loop seam: [Error] condemns the one connection under
   the seam (the loop itself must survive), [Delay] stalls the loop,
   [Kill] crashes the process. *)
let loop_point name =
  try
    Fault.point name;
    true
  with Fault.Injected _ -> false

(** Flush the connection's staged frame + queue as far as the socket
    allows.  Staging applies the same [wire.send] / [wire.send.drop]
    failpoint semantics as {!Wire.write_frame}. *)
let event_flush t conn =
  if not (loop_point "server.loop.writable") then `Dead
  else begin
    let rec step () =
      if conn.woff < conn.wlen then begin
        match Unix.write conn.fd conn.wbuf conn.woff (conn.wlen - conn.woff) with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          `Blocked
        | exception Unix.Unix_error _ -> `Dead
        | 0 -> `Dead
        | k ->
          conn.woff <- conn.woff + k;
          if conn.woff >= conn.wlen then begin
            Server_stats.on_frame_out t.stats ~bytes:conn.wlen;
            conn.woff <- 0;
            conn.wlen <- 0
          end;
          step ()
      end
      else begin
        match Queue.take_opt conn.outq with
        | None -> `Flushed
        | Some (raw, payload) ->
          if String.length payload > t.config.max_frame then begin
            Server_stats.on_error t.stats;
            Log.err (fun f ->
                f "conn %d: outbound frame of %d bytes exceeds limit %d"
                  conn.conn_id (String.length payload) t.config.max_frame);
            `Dead
          end
          else begin
            match
              try `Skip (Fault.skip "wire.send.drop")
              with Fault.Injected _ -> `Dead
            with
            | `Dead -> `Dead
            | `Skip true -> step () (* frame silently swallowed *)
            | `Skip false -> (
              let frame = Wire.frame_bytes ~raw payload in
              match
                try `Cut (Fault.cut "wire.send" ~len:(Bytes.length frame))
                with Fault.Injected _ -> `Dead
              with
              | `Dead -> `Dead
              | `Cut (Some k) ->
                (* the wire gets only the first [k] bytes, then the
                   connection dies holding a truncated frame *)
                (try ignore (Unix.write conn.fd frame 0 k)
                 with Unix.Unix_error _ -> ());
                `Dead
              | `Cut None ->
                conn.wbuf <- frame;
                conn.woff <- 0;
                conn.wlen <- Bytes.length frame;
                step ())
          end
      end
    in
    match step () with `Dead -> `Dead | `Blocked | `Flushed -> `Ok
  end

(* ---------------- request handling ---------------- *)

let rec body_of_outcome (o : Core.Coordinator.outcome) : Wire.result_body =
  match o with
  | Core.Coordinator.Rejected m -> Wire.Rejected m
  | Core.Coordinator.Answered n -> Wire.Answered n
  | Core.Coordinator.Registered id -> Wire.Registered id
  | Core.Coordinator.Multi os -> Wire.Multi (List.map body_of_outcome os)

let body_of_response : Youtopia.System.response -> Wire.result_body = function
  | Youtopia.System.Sql r -> Wire.Sql_result (Sql.Run.result_to_string r)
  | Youtopia.System.Coordination o -> body_of_outcome o
  | Youtopia.System.Pending_listing s -> Wire.Listing s

(** Statements that mutate table data and can therefore unblock a pending
    coordination: after running any of these the server pokes the
    coordinator (once per batch on the batching path) so parked entangled
    queries see the new rows and pushes go out. *)
let dml_stmt : Sql.Ast.statement -> bool = function
  | Sql.Ast.Insert _ | Sql.Ast.Update _ | Sql.Ast.Delete _
  | Sql.Ast.Create_table_as _ ->
    true
  | _ -> false

(* A fulfilled entangled statement is DML too: the joint fulfilment runs
   its THEN effects against base tables inside the fulfilment transaction
   (e.g. the lock sweeper re-incrementing [Locks.free]), and the
   answer-driven cascade does not follow those — only a poke hands the
   mutated rows to parked waiters. *)
let rec outcome_fulfilled = function
  | Core.Coordinator.Answered _ -> true
  | Core.Coordinator.Multi os -> List.exists outcome_fulfilled os
  | Core.Coordinator.Rejected _ | Core.Coordinator.Registered _ -> false

let response_fulfilled : Youtopia.System.response -> bool = function
  | Youtopia.System.Coordination o -> outcome_fulfilled o
  | Youtopia.System.Sql _ | Youtopia.System.Pending_listing _ -> false

let result_of_responses id = function
  | [ r ] -> Wire.Result { id; body = body_of_response r }
  | rs -> Wire.Result { id; body = Wire.Multi (List.map body_of_response rs) }

(* Execute one write script under the (already held) exclusive section.
   Returns the response and how many DML statements ran — per-request
   error isolation: a failing script yields its own Error response and
   must not poison its batchmates. *)
let exec_write_script t session ~id stmts =
  match
    Relational.Errors.guard (fun () ->
        List.map (Youtopia.System.exec t.sys session) stmts)
  with
  | Ok rs ->
    let dml =
      List.length (List.filter dml_stmt stmts)
      + List.length (List.filter response_fulfilled rs)
    in
    (result_of_responses id rs, dml)
  | Error kind ->
    Server_stats.on_error t.stats;
    (Wire.Error { id; message = Relational.Errors.kind_to_string kind }, 0)
  | exception exn ->
    Server_stats.on_error t.stats;
    (Wire.Error { id; message = Printexc.to_string exn }, 0)

(* ---------------- batch executor ---------------- *)

(* WAL flush/fsync deltas across a batch, attributed in Server_stats *)
let wal_io_snapshot t =
  Relational.Database.wal_io (Youtopia.System.database t.sys)

let wal_io_delta before after =
  match before, after with
  | Some (a : Relational.Wal.io_stats), Some (b : Relational.Wal.io_stats) ->
    (b.Relational.Wal.flushes - a.Relational.Wal.flushes,
     b.Relational.Wal.fsyncs - a.Relational.Wal.fsyncs)
  | _ -> (0, 0)

(** Execute one batch: the engine write lock is taken {b once}, every
    request runs with per-request error isolation inside a single WAL
    batch scope (one flush, one fsync at scope end), dirty tables
    accumulate across the whole batch and a single {!Coordinator.poke}
    covers them all.  Responses are queued {i after} the lock is released.
    If the scope-end durability sync fails, no response has been sent yet
    — every batch member reports the failure instead of a false ack. *)
let execute_batch t batch =
  let db = Youtopia.System.database t.sys in
  let io0 = wal_io_snapshot t in
  let fail_all what exn =
    Server_stats.on_error t.stats;
    Log.err (fun f -> f "%s: %s" what (Printexc.to_string exn));
    let message = what ^ ": " ^ Printexc.to_string exn in
    List.map (fun wr -> (wr, Wire.Error { id = wr.wr_id; message })) batch
  in
  let results =
    match
      with_engine t (fun () ->
          (* inside the engine lock, before any statement runs: a [kill]
             here dies holding a possibly-unflushed WAL batch scope *)
          Fault.point "server.batch";
          Relational.Database.with_wal_batch db (fun () ->
              let dml = ref 0 in
              let results =
                List.map
                  (fun wr ->
                    let response, n =
                      exec_write_script t wr.wr_session ~id:wr.wr_id
                        wr.wr_stmts
                    in
                    dml := !dml + n;
                    (wr, response))
                  batch
              in
              if !dml > 0 then
                ignore (Youtopia.System.poke_batch t.sys ~statements:!dml);
              results))
    with
    | results -> results
    | exception exn ->
      (* the batch's WAL sync (or the poke) failed after the statements
         ran: acks would lie about durability, so everyone gets the error *)
      fail_all "batch durability failure" exn
  in
  let flushes, fsyncs = wal_io_delta io0 (wal_io_snapshot t) in
  Server_stats.on_batch t.stats ~size:(List.length batch) ~flushes ~fsyncs;
  (* after the lock release: the batch is durable but not yet acked — a
     [kill] here is the classic committed-but-unacknowledged crash *)
  let results =
    match Fault.point "server.batch.fanout" with
    | () -> results
    | exception exn -> fail_all "batch committed, but its fan-out failed" exn
  in
  let now = Unix.gettimeofday () in
  List.iter
    (fun (wr, response) ->
      (* count before send: once the response is queued the loop can
         flush it, and a client observing its answer must also observe
         the submit counted *)
      Server_stats.on_submit t.stats ~latency:(now -. wr.wr_t0);
      send t wr.wr_conn response)
    results;
  (* replicas ride the same fan-out discipline as client responses *)
  hub_flush t

(** Execute and empty the open batch (no-op when empty). *)
let run_batch t =
  let b = t.batch in
  if b.size > 0 then begin
    let reqs = List.rev b.reqs in
    b.reqs <- [];
    b.size <- 0;
    List.iter (fun wr -> wr.wr_conn.batched <- 0) reqs;
    execute_batch t reqs
  end

(** Program order: before anything else from [conn] is answered, its
    writes in the open batch run. *)
let settle t conn = if conn.batched > 0 then run_batch t

(** Submit dispatch.  Parsing happens on the loop thread, outside any
    lock.  Read-only scripts run inline under the engine lock, after the
    connection's own batched writes.  Writes join the open batch; a full
    batch runs at once, otherwise the loop runs it at the end of its
    iteration. *)
let handle_submit t conn session ~id ~sql =
  let t0 = Unix.gettimeofday () in
  match Relational.Errors.guard (fun () -> Sql.Parser.parse_script sql) with
  | Error kind ->
    settle t conn;
    Server_stats.on_error t.stats;
    Server_stats.on_submit t.stats ~latency:(Unix.gettimeofday () -. t0);
    send t conn
      (Wire.Error { id; message = Relational.Errors.kind_to_string kind })
  | Ok stmts ->
    if (not (List.for_all read_only_stmt stmts)) && is_replica t then begin
      (* read replica: anything that could mutate goes to the primary *)
      let host, port = Option.get t.config.replica_of in
      Server_stats.on_readonly_rejected t.stats;
      Server_stats.on_submit t.stats ~latency:(Unix.gettimeofday () -. t0);
      send t conn
        (Wire.Error { id; message = Wire.readonly_redirect ~host ~port })
    end
    else if List.for_all read_only_stmt stmts then begin
      settle t conn;
      let response =
        match
          with_engine_read t (fun () ->
              List.map (Youtopia.System.exec t.sys session) stmts)
        with
        | rs -> result_of_responses id rs
        | exception Relational.Errors.Db_error kind ->
          Server_stats.on_error t.stats;
          Wire.Error { id; message = Relational.Errors.kind_to_string kind }
        | exception exn ->
          Server_stats.on_error t.stats;
          Wire.Error { id; message = Printexc.to_string exn }
      in
      Server_stats.on_submit t.stats ~latency:(Unix.gettimeofday () -. t0);
      send t conn response
    end
    else begin
      let b = t.batch in
      b.reqs <-
        { wr_conn = conn; wr_session = session; wr_id = id; wr_stmts = stmts;
          wr_t0 = t0 }
        :: b.reqs;
      b.size <- b.size + 1;
      conn.batched <- conn.batched + 1;
      if b.size >= t.config.max_batch then run_batch t
    end

let handle_cancel t ~id ~query_id =
  if is_replica t then begin
    (* cancels mutate the pending store, which lives on the primary *)
    let host, port = Option.get t.config.replica_of in
    Server_stats.on_readonly_rejected t.stats;
    Server_stats.on_error t.stats;
    Wire.Error { id; message = Wire.readonly_redirect ~host ~port }
  end
  else
    match
    with_engine t (fun () ->
        Core.Coordinator.cancel (Youtopia.System.coordinator t.sys) query_id)
  with
  | true -> Wire.Result { id; body = Wire.Listing (Printf.sprintf "cancelled Q%d" query_id) }
  | false ->
    Server_stats.on_error t.stats;
    Wire.Error { id; message = Printf.sprintf "Q%d is not pending" query_id }

let handle_admin t ~id ~what =
  (* admin probes only read engine state: counted as engine reads *)
  match what with
  | "server" ->
    (* coordination poke counters ride along: plain int reads, no lock *)
    let coord_kv =
      Core.Stats.to_kv
        (Core.Coordinator.stats (Youtopia.System.coordinator t.sys))
    in
    Wire.Stats { id; body = Server_stats.render t.stats ^ "\n" ^ coord_kv }
  | "stats" -> Wire.Stats { id; body = with_engine_read t (fun () -> Youtopia.Admin.dump_stats t.sys) }
  | "pending" -> Wire.Stats { id; body = with_engine_read t (fun () -> Youtopia.Admin.dump_pending t.sys) }
  | "answers" -> Wire.Stats { id; body = with_engine_read t (fun () -> Youtopia.Admin.dump_answers t.sys) }
  | "tables" -> Wire.Stats { id; body = with_engine_read t (fun () -> Youtopia.Admin.dump_tables t.sys) }
  | "report" -> Wire.Stats { id; body = with_engine_read t (fun () -> Youtopia.Admin.report t.sys) }
  | "checkpoint" -> (
    (* exclusive: the snapshot must be a consistent cut, and two
       concurrent checkpoints would race on the temp file *)
    match
      Relational.Errors.guard (fun () ->
          with_engine t (fun () -> Youtopia.System.checkpoint t.sys))
    with
    | Ok (lsn, path) ->
      Wire.Stats { id; body = Printf.sprintf "checkpoint lsn=%d path=%s" lsn path }
    | Error kind ->
      Server_stats.on_error t.stats;
      Wire.Error { id; message = Relational.Errors.kind_to_string kind })
  | "replicas" ->
    let body =
      match t.hub with
      | None -> "replicas=0"
      | Some hub ->
        let rows = Replication.Hub.replicas hub in
        String.concat "\n"
          (Printf.sprintf "replicas=%d" (List.length rows)
          :: List.map
               (fun (rid, sent, acked) ->
                 Printf.sprintf "replica=%s sent_lsn=%d acked_lsn=%d" rid sent
                   acked)
               rows)
    in
    Wire.Stats { id; body }
  | other
    when other = "failpoint"
         || (String.length other > 10 && String.sub other 0 10 = "failpoint ")
    -> (
    (* fault-injection control takes no engine lock: the failpoint table
       is not engine state, and on a replica the upstream thread may sit
       wedged in a delay failpoint inside the engine section — this probe
       must still reach it to disarm it *)
    let ok body = Wire.Stats { id; body } in
    let err message =
      Server_stats.on_error t.stats;
      Wire.Error { id; message }
    in
    let args =
      String.split_on_char ' ' other
      |> List.filter (fun s -> s <> "")
      |> List.tl
    in
    match args with
    | [] | [ "list" ] ->
      let lines = Fault.list () in
      ok
        (String.concat "\n"
           (Printf.sprintf "failpoints=%d" (List.length lines) :: lines))
    | "arm" :: point :: spec_parts when spec_parts <> [] -> (
      (* the spec is everything after the point name (an error(...)
         message may contain spaces; runs of spaces collapse to one) *)
      let spec = String.concat " " spec_parts in
      match Fault.arm_spec point spec with
      | Ok () -> ok (Printf.sprintf "armed %s=%s" point spec)
      | Result.Error e -> err ("failpoint arm: " ^ e))
    | [ "disarm"; point ] ->
      Fault.disarm point;
      ok ("disarmed " ^ point)
    | [ "clear" ] ->
      Fault.disarm_all ();
      ok "cleared"
    | [ "seed"; n ] -> (
      match int_of_string_opt n with
      | Some seed ->
        Fault.set_seed seed;
        ok (Printf.sprintf "seed=%d" seed)
      | None -> err ("failpoint seed: not an integer: " ^ n))
    | _ ->
      err
        "failpoint usage: failpoint [list] | failpoint arm <point> <spec> \
         | failpoint disarm <point> | failpoint clear | failpoint seed <n>")
  | other ->
    Server_stats.on_error t.stats;
    Wire.Error { id; message = "unknown admin probe: " ^ other }

(* ---------------- handshake and dispatch ---------------- *)

exception Goodbye

(** Send one frame of a replica's bootstrap burst, keeping the outbound
    queue below a high-water mark so the burst never trips {!enqueue}'s
    slow-consumer overflow — that drop would disconnect the replica, which
    would reconnect with the same LSN and re-trip it forever, so a
    snapshot or catch-up larger than [max_outq] frames could never sync.
    The burst is the server's own doing, not evidence of a slow consumer:
    the handshake dispatches inline on the loop thread, so flush directly,
    waiting for writability when the socket blocks.  A replica that
    genuinely stops reading still gets dropped: no queue progress for
    [stall_limit] seconds is the slow-consumer verdict. *)
let bootstrap_send t conn response =
  let high_water = max 1 (t.config.max_outq / 2) in
  let stall_limit = 30. in
  let drop_stalled () =
    Server_stats.on_error t.stats;
    Log.warn (fun f ->
        f "conn %d: replica not draining its bootstrap for %.0fs; dropping"
          conn.conn_id stall_limit);
    conn.closing <- true;
    Queue.clear conn.outq;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    raise Wire.Closed
  in
  let rec drain ~stalled last =
    if conn.closing then raise Wire.Closed
    else if last >= high_water then begin
      match event_flush t conn with
      | `Dead ->
        conn.closing <- true;
        raise Wire.Closed
      | `Ok ->
        let n = Queue.length conn.outq in
        if n >= high_water then
          if n < last then drain ~stalled:0. n
          else if stalled >= stall_limit then drop_stalled ()
          else begin
            (try
               ignore
                 (Netpoll.wait ~fds:[| conn.fd |] ~events:[| Netpoll.writable |]
                    ~revents:[| 0 |] ~nfds:1 ~timeout_ms:500)
             with Failure _ -> ());
            drain ~stalled:(stalled +. 0.5) n
          end
    end
  in
  drain ~stalled:0. (Queue.length conn.outq);
  send t conn response

(** Send a replica its bootstrap stream.  The sink is already registered,
    so every batch committed from here on reaches it live; the replica's
    strict LSN sequencing absorbs the deliberate overlap between the
    bootstrap data and the live stream.

    Two bootstrap shapes: when the WAL file still holds the suffix past
    the replica's last applied LSN, ship those batches straight from the
    file (no lock needed — a torn tail is an incomplete batch the live
    stream covers).  Otherwise — fresh replica against a truncated log, or
    a replica ahead of a restarted primary — stream a full checkpoint
    snapshot cut under the engine lock, which excludes writers. *)
let bootstrap_replica t conn ~last_lsn =
  let db = Youtopia.System.database t.sys in
  match db.Relational.Database.wal with
  | None -> raise (Wire.Protocol_error "primary has no WAL; cannot replicate")
  | Some wal ->
    Relational.Wal.sync wal;
    let base = Relational.Wal.base_lsn wal in
    let last = Relational.Wal.last_lsn wal in
    if last_lsn >= base && last_lsn <= last then begin
      let batches =
        Replication.catchup_batches ~wal_path:(Relational.Wal.path wal)
          ~after_lsn:last_lsn
      in
      let sent_at_us = Replication.now_us () in
      List.iter
        (fun (lsn, records) ->
          List.iter (bootstrap_send t conn)
            (Replication.frames_of_batch ~lsn ~sent_at_us records))
        batches;
      Log.info (fun f ->
          f "conn %d: replica catch-up from lsn %d: %d batch(es) shipped"
            conn.conn_id last_lsn (List.length batches))
    end
    else begin
      let lsn, lines =
        with_engine_read t (fun () ->
            Relational.Wal.sync wal;
            let lsn = Relational.Wal.last_lsn wal in
            ( lsn,
              Relational.Checkpoint.to_lines ~lsn (Youtopia.System.catalog t.sys)
            ))
      in
      List.iter (bootstrap_send t conn) (Replication.frames_of_snapshot ~lsn lines);
      Log.info (fun f ->
          f "conn %d: replica bootstrap snapshot at lsn %d (replica was at %d)"
            conn.conn_id lsn last_lsn)
    end

(** Handshake: the first frame must be a HELLO (client) or RHELLO (replica
    upstream link) carrying a version in the window {!Wire.negotiate}
    accepts; the reply is WELCOME echoing the negotiated version (or
    ERROR, then the connection drops).  A peer at version ≥ 2 gets bulky
    payloads as raw-bytes frames from here on. *)
let handshake_of_request t conn req =
  let version_error version =
    raise
      (Wire.Protocol_error
         (Printf.sprintf "unsupported protocol version %d (server speaks %d)"
            version Wire.protocol_version))
  in
  match req with
  | Wire.Hello { version; user } -> (
    match Wire.negotiate version with
    | None -> version_error version
    | Some v ->
      conn.raw <- v >= 2;
      let session = Youtopia.System.session t.sys user in
      Youtopia.Session.set_listener session
        (Some
           (fun n ->
             Server_stats.on_push t.stats;
             send t conn (Wire.Push n)));
      send t conn (Wire.Welcome { version = v; banner = t.config.banner });
      Client_peer session)
  | Wire.Replica_hello { version; replica_id; last_lsn } -> (
    match Wire.negotiate version with
    | None -> version_error version
    | Some v -> (
      conn.raw <- v >= 2;
      match t.hub with
      | None ->
        raise
          (Wire.Protocol_error
             "this server does not ship WAL (no WAL attached, or replica mode)")
      | Some hub ->
        (* register before cutting the bootstrap so no batch falls between
           the snapshot/suffix and the live stream *)
        let sink =
          Replication.Hub.register hub ~replica_id
            ~send:(fun r -> send t conn r)
        in
        Server_stats.on_replica_connect t.stats;
        (match
           send t conn (Wire.Welcome { version = v; banner = t.config.banner });
           bootstrap_replica t conn ~last_lsn
         with
        | () -> ()
        | exception e ->
          Replication.Hub.unregister hub sink;
          Server_stats.on_replica_disconnect t.stats;
          raise e);
        Replica_peer sink))
  | _ -> raise (Wire.Protocol_error "expected HELLO as the first frame")

(** Dispatch one decoded (text) frame on a connection, handshaking it
    first if no peer is established yet; write SUBMITs join the open
    batch.  Raises {!Goodbye} on BYE, {!Wire.Protocol_error} on anything
    malformed. *)
let dispatch_frame t conn payload =
  let req = Wire.decode_request payload in
  match conn.peer with
  | None -> conn.peer <- Some (handshake_of_request t conn req)
  | Some (Client_peer s) -> (
    match req with
    | Wire.Hello _ | Wire.Replica_hello _ ->
      raise (Wire.Protocol_error "duplicate HELLO")
    | Wire.Repl_ack _ ->
      raise (Wire.Protocol_error "RACK on a client connection")
    | Wire.Submit { id; sql } -> handle_submit t conn s ~id ~sql
    | Wire.Cancel { id; query_id } ->
      settle t conn;
      send t conn (handle_cancel t ~id ~query_id)
    | Wire.Admin { id; what } ->
      settle t conn;
      send t conn (handle_admin t ~id ~what)
    | Wire.Ping { id; payload } ->
      settle t conn;
      send t conn (Wire.Pong { id; payload })
    | Wire.Bye -> raise Goodbye)
  | Some (Replica_peer sink) -> (
    (* a replica link only ever sends acknowledgements *)
    match req with
    | Wire.Repl_ack { lsn } -> Replication.Hub.ack sink ~lsn
    | Wire.Bye -> raise Goodbye
    | _ -> raise (Wire.Protocol_error "unexpected frame on a replica link"))

(** A connection exempt from idle teardown: replica links (server-push,
    legitimately quiet inbound), and clients whose user owns a parked
    pending query — the whole point of coordination is that such a client
    may wait arbitrarily long for a partner. *)
let idle_exempt t conn =
  match conn.peer with
  | Some (Replica_peer _) -> true
  | Some (Client_peer s) -> (
    let user = Youtopia.Session.user s in
    try
      with_engine_read t (fun () ->
          Core.Pending.exists
            (fun q -> q.Core.Equery.owner = user)
            (Core.Coordinator.pending (Youtopia.System.coordinator t.sys)))
    with _ -> false)
  | None -> false

(** Detach whatever the handshake attached: client session + push
    listener, or replica sink. *)
let detach_peer t conn =
  match conn.peer with
  | Some (Client_peer s) ->
    conn.peer <- None;
    Youtopia.Session.set_listener s None;
    Youtopia.System.close_session t.sys s
  | Some (Replica_peer sink) ->
    conn.peer <- None;
    (match t.hub with
    | Some hub -> Replication.Hub.unregister hub sink
    | None -> ());
    Server_stats.on_replica_disconnect t.stats
  | None -> ()

let make_conn t fd =
  let conn_id = t.next_conn_id in
  t.next_conn_id <- conn_id + 1;
  let conn =
    {
      conn_id;
      fd;
      outq = Queue.create ();
      closing = false;
      raw = false;
      batched = 0;
      dec = Wire.Decoder.create ~max_frame:t.config.max_frame ();
      peer = None;
      last_activity = Unix.gettimeofday ();
      close_after_flush = false;
      wbuf = Bytes.create 0;
      woff = 0;
      wlen = 0;
    }
  in
  Hashtbl.replace t.conns conn_id conn;
  Server_stats.on_connect t.stats;
  conn

(* ---------------- event loop ---------------- *)

(** Connection teardown.  Writes the connection already sent still run
    first. *)
let teardown_conn t conn =
  settle t conn;
  Hashtbl.remove t.conns conn.conn_id;
  detach_peer t conn;
  conn.closing <- true;
  Queue.clear conn.outq;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Server_stats.on_disconnect t.stats;
  Log.debug (fun f -> f "conn %d: closed" conn.conn_id)

(** Drain every complete frame the decoder holds, dispatching inline; write
    SUBMITs join the open batch.  Errors condemn the connection but let
    queued output (the error response included) flush first. *)
let drain_decoder t conn =
  let proto_error m =
    settle t conn;
    Server_stats.on_error t.stats;
    Log.debug (fun f -> f "conn %d: protocol error: %s" conn.conn_id m);
    send t conn (Wire.Error { id = 0; message = m });
    conn.close_after_flush <- true;
    `Ok
  in
  let rec go () =
    if conn.close_after_flush || conn.closing then `Ok
    else begin
      match
        try `F (Wire.Decoder.next conn.dec)
        with Wire.Protocol_error m -> `Err m
      with
      | `Err m -> proto_error m
      | `F None -> `Ok
      | `F (Some (kind, payload)) -> (
        Server_stats.on_frame_in t.stats ~bytes:(String.length payload + 4);
        if not (loop_point "server.decoder") then `Dead
        else if
          (* mirror Wire.read_frame's failpoints per complete frame *)
          not (loop_point "wire.recv")
        then `Dead
        else begin
          match
            try `Skip (Fault.skip "wire.recv.drop")
            with Fault.Injected _ -> `Dead
          with
          | `Dead -> `Dead
          | `Skip true -> go () (* frame silently dropped *)
          | `Skip false ->
            if kind = Wire.Raw then
              proto_error
                "unexpected raw frame (connection did not negotiate them)"
            else begin
              match dispatch_frame t conn payload with
              | () -> go ()
              | exception Goodbye ->
                conn.close_after_flush <- true;
                `Ok
              | exception Wire.Protocol_error m -> proto_error m
              | exception Wire.Closed -> `Dead
              | exception Unix.Unix_error _ -> `Dead
              | exception exn ->
                settle t conn;
                Server_stats.on_error t.stats;
                Log.debug (fun f ->
                    f "conn %d: dispatch failed: %s" conn.conn_id
                      (Printexc.to_string exn));
                send t conn
                  (Wire.Error { id = 0; message = Printexc.to_string exn });
                conn.close_after_flush <- true;
                `Ok
            end
        end)
    end
  in
  go ()

(** One readable event: pull whatever the socket has into the decoder and
    dispatch the complete frames.  EOF switches the connection to
    drain-then-close so queued responses still reach a half-closed peer. *)
let event_read t conn scratch =
  if not (loop_point "server.loop.readable") then `Dead
  else begin
    match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Ok
    | exception Unix.Unix_error _ -> `Dead
    | 0 ->
      conn.close_after_flush <- true;
      `Ok
    | n ->
      conn.last_activity <- Unix.gettimeofday ();
      Wire.Decoder.feed conn.dec scratch 0 n;
      drain_decoder t conn
  end

let ensure_capacity t n =
  if Array.length t.fds < n then begin
    let cap = ref (Array.length t.fds) in
    while !cap < n do
      cap := !cap * 2
    done;
    t.fds <- Array.make !cap t.listen_fd;
    t.events <- Array.make !cap 0;
    t.revents <- Array.make !cap 0;
    t.slots <- Array.make !cap None
  end

(** Take one accepted socket in, unless the [server.accept] failpoint or
    [max_conns] refuses it.  It enters the poll set at the next interest
    build. *)
let admit t fd =
  let refuse () = try Unix.close fd with Unix.Unix_error _ -> () in
  if not (loop_point "server.accept") then begin
    Server_stats.on_error t.stats;
    refuse ()
  end
  else if t.config.max_conns > 0 && Hashtbl.length t.conns >= t.config.max_conns
  then begin
    Server_stats.on_conn_refused t.stats;
    Log.warn (fun f ->
        f "refusing connection: %d live (max_conns=%d)" (Hashtbl.length t.conns)
          t.config.max_conns);
    refuse ()
  end
  else
    match
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd
    with
    | () ->
      let conn = make_conn t fd in
      Log.debug (fun f -> f "conn %d: accepted" conn.conn_id)
    | exception Unix.Unix_error _ ->
      Server_stats.on_error t.stats;
      refuse ()

(** Most connections one readable listen fd yields per iteration, so a
    connection storm cannot starve the connections already open. *)
let accept_burst = 64

(** The listen fd is readable: accept until [EAGAIN].  Under fd
    exhaustion ([EMFILE]/[ENFILE]) the listen fd stays readable, so an
    accept error takes it out of the interest set for a 50 ms back-off
    rather than spinning on it. *)
let accept_ready t =
  let rec go k =
    if k > 0 then
      match Unix.accept t.listen_fd with
      | fd, _addr ->
        admit t fd;
        go (k - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
        go (k - 1)
      | exception Unix.Unix_error (err, _, _) ->
        Server_stats.on_error t.stats;
        Log.err (fun f -> f "accept: %s; retrying" (Unix.error_message err));
        t.accept_paused_until <- Unix.gettimeofday () +. 0.05
  in
  go accept_burst

(** The loop thread: compute per-connection interest (read unless
    backpressured or draining-to-close, write when output is pending) next
    to the listen fd's, wait, service each ready connection, accept what
    the listen fd holds, and finally execute the writes the iteration
    decoded as one batch.  On exit (server stop) remaining output is
    flushed best-effort over briefly-blocking sockets so in-flight
    responses reach their clients. *)
let loop_run t =
  let scratch = Bytes.create 65536 in
  let sweep_period =
    if t.config.read_timeout > 0. then
      Float.min 0.25 (Float.max 0.01 (t.config.read_timeout /. 4.))
    else 0.
  in
  (* the tick paces the idle sweep; without one the wait still ends
     every 250 ms *)
  let timeout_ms =
    if sweep_period > 0. then max 10 (int_of_float (sweep_period *. 1000.))
    else 250
  in
  let last_sweep = ref (Unix.gettimeofday ()) in
  while t.running do
    match
      (* interest build; connections already condemned tear down here *)
      ensure_capacity t (Hashtbl.length t.conns + 1);
      let accepting = Unix.gettimeofday () >= t.accept_paused_until in
      (* the listen fd stays in the set even while paused: a hang-up from
         {!stop} must still wake the wait *)
      t.fds.(0) <- t.listen_fd;
      t.events.(0) <- (if accepting then Netpoll.readable else 0);
      let n = ref 1 in
      let doomed = ref [] in
      t.late_out <- false;
      Hashtbl.iter
        (fun _ c ->
          let pending_out = c.wlen > c.woff || Queue.length c.outq > 0 in
          let closing = c.closing in
          (* opportunistic flush: a socket is writable almost always, so
             pushing freshly-queued output here — instead of registering
             POLLOUT and paying a whole poll round-trip first — halves
             the response path.  EAGAIN falls back to POLLOUT below. *)
          let dead = ref false in
          let pending_out =
            if pending_out && not closing then begin
              (match event_flush t c with
              | `Dead -> dead := true
              | `Ok -> ());
              c.wlen > c.woff || Queue.length c.outq > 0
            end
            else pending_out
          in
          if closing || !dead then doomed := c :: !doomed
          else if c.close_after_flush && not pending_out then
            doomed := c :: !doomed
          else begin
            let ev = ref 0 in
            if
              (not c.close_after_flush)
              && Queue.length c.outq < t.config.max_in_flight
            then ev := Netpoll.readable;
            if pending_out then ev := !ev lor Netpoll.writable;
            t.fds.(!n) <- c.fd;
            t.events.(!n) <- !ev;
            t.slots.(!n) <- Some c;
            incr n
          end)
        t.conns;
      List.iter (teardown_conn t) !doomed;
      Server_stats.on_loop_iteration t.stats ~fds:!n;
      (match
         Netpoll.wait ~fds:t.fds ~events:t.events ~revents:t.revents ~nfds:!n
           ~timeout_ms:
             (if t.late_out then 0
              else if accepting then timeout_ms
              else min timeout_ms 50)
       with
      | _ -> ()
      | exception Failure m ->
        Array.fill t.revents 0 !n 0;
        Log.err (fun f -> f "loop: %s" m);
        Thread.delay 0.01);
      for i = 1 to !n - 1 do
        (match t.slots.(i) with
        | None -> ()
        | Some c ->
          let re = t.revents.(i) in
          if re <> 0 && not c.closing then begin
            let dead = ref false in
            if re land Netpoll.error <> 0 then dead := true
            else begin
              if
                re land Netpoll.writable <> 0
                && t.events.(i) land Netpoll.writable <> 0
              then begin
                match event_flush t c with
                | `Dead -> dead := true
                | `Ok -> ()
              end;
              if
                (not !dead)
                && re land Netpoll.readable <> 0
                && t.events.(i) land Netpoll.readable <> 0
              then begin
                match event_read t c scratch with
                | `Dead -> dead := true
                | `Ok -> ()
              end
            end;
            if !dead then teardown_conn t c
          end);
        t.slots.(i) <- None
      done;
      if accepting && t.running && t.revents.(0) <> 0 then accept_ready t;
      (* run to completion: the writes this iteration decoded execute now,
         on this thread, and their responses flush at the next interest
         build *)
      run_batch t;
      (* loop-side idle sweep, replacing per-fd SO_RCVTIMEO *)
      if sweep_period > 0. then begin
        let now = Unix.gettimeofday () in
        if now -. !last_sweep >= sweep_period then begin
          last_sweep := now;
          let timed_out =
            Hashtbl.fold
              (fun _ c acc ->
                if
                  (not c.closing)
                  && (not c.close_after_flush)
                  && now -. c.last_activity > t.config.read_timeout
                then c :: acc
                else acc)
              t.conns []
          in
          List.iter
            (fun c ->
              (* the exemption check takes the engine lock, so it
                 only runs for connections already past their deadline *)
              if not (idle_exempt t c) then begin
                Server_stats.on_idle_timeout t.stats;
                Log.debug (fun f -> f "conn %d: read timeout" c.conn_id);
                send t c
                  (Wire.Error { id = 0; message = "read timeout; closing" });
                c.close_after_flush <- true
              end)
            timed_out
        end
      end
    with
    | () -> ()
    | exception exn ->
      (* the loop must never die: it owns every connection *)
      Server_stats.on_error t.stats;
      Log.err (fun f ->
          f "loop: iteration failed: %s" (Printexc.to_string exn));
      Thread.delay 0.01
  done;
  (* exit: flush remaining output over briefly-blocking sockets (responses
     and pushes still queued), then tear every connection down *)
  Hashtbl.iter
    (fun _ c ->
      try
        Unix.clear_nonblock c.fd;
        Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO 0.5;
        if c.woff < c.wlen then
          ignore (Unix.write c.fd c.wbuf c.woff (c.wlen - c.woff));
        Queue.iter
          (fun (raw, payload) ->
            Wire.write_frame ~max_frame:t.config.max_frame ~raw c.fd payload)
          c.outq
      with _ -> ())
    t.conns;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (teardown_conn t) cs;
  Log.info (fun f -> f "stopped; %d connection(s) drained" (List.length cs))

(* ---------------- lifecycle ---------------- *)

let start ?(config = default_config) sys =
  Wire.check_port ~what:"Server.start: port" ~min:0 config.port;
  Option.iter
    (fun (_, p) -> Wire.check_port ~what:"Server.start: replica_of" ~min:1 p)
    config.replica_of;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (match Unix.bind listen_fd addr with
  | () -> ()
  | exception e ->
    Unix.close listen_fd;
    raise e);
  Unix.listen listen_fd config.backlog;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let hub =
    match
      (config.replica_of, (Youtopia.System.database sys).Relational.Database.wal)
    with
    | None, Some wal ->
      let hub = Replication.Hub.create () in
      Replication.Hub.attach hub wal;
      Some hub
    | _ -> None
  in
  let t =
    {
      sys;
      config;
      stats = Server_stats.create ();
      listen_fd;
      bound_port;
      engine_lock = Mutex.create ();
      conns = Hashtbl.create 256;
      batch = { reqs = []; size = 0 };
      next_conn_id = 1;
      running = true;
      late_out = false;
      accept_paused_until = 0.;
      fds = Array.make 64 listen_fd;
      events = Array.make 64 0;
      revents = Array.make 64 0;
      slots = Array.make 64 None;
      thread = None;
      hub;
      replica = None;
    }
  in
  (match config.durability with
  | Some d ->
    Relational.Database.set_durability (Youtopia.System.database sys) d
  | None -> ());
  (match config.replica_of with
  | Some (host, rport) ->
    (* replica mode: tail the primary, applying under the engine lock so
       local reads always see whole batches *)
    let catalog = Youtopia.System.catalog sys in
    let cb =
      {
        Replication.Replica.load_snapshot =
          (fun ~lsn snapshot ->
            with_engine t (fun () -> Relational.Catalog.adopt catalog snapshot);
            Server_stats.on_repl_snapshot t.stats ~lsn);
        apply_batch =
          (fun ~lsn:_ records ->
            with_engine t (fun () ->
                (* raising here aborts the session before the applied
                   LSN advances; the reconnect re-requests this batch *)
                Fault.point "repl.replica.apply";
                ignore (Relational.Wal.apply_batches catalog records)));
        notify =
          (fun ev ->
            match ev with
            | Replication.Replica.Connected ->
              Server_stats.set_repl_upstream t.stats true
            | Replication.Replica.Disconnected _ ->
              Server_stats.set_repl_upstream t.stats false;
              Server_stats.on_repl_reconnect t.stats
            | Replication.Replica.Snapshot_loaded _ -> ()
            | Replication.Replica.Batch_applied { lsn; lag_lsn; lag_ms } ->
              Server_stats.on_repl_apply t.stats ~lsn ~seen:(lsn + lag_lsn)
                ~lag_lsn ~lag_ms);
      }
    in
    t.replica <-
      Some
        (Replication.Replica.start ~host ~port:rport
           ~replica_id:config.replica_id cb)
  | None -> ());
  t.thread <- Some (Thread.create loop_run t);
  Log.info (fun f ->
      f "listening on %s:%d%s" config.host bound_port
        (match config.replica_of with
        | Some (h, p) -> Printf.sprintf " (read replica of %s:%d)" h p
        | None -> ""));
  t

(** Graceful shutdown: the loop finishes its iteration (its batch
    included) and flushes remaining output before closing its sockets.
    Shutting the listen fd down is the wakeup: the fd sits in the loop's
    poll set, so the hang-up ends its wait.  Idempotent. *)
let stop t =
  if t.running then begin
    t.running <- false;
    (* stop tailing the primary before tearing local state down *)
    (match t.replica with
    | Some r ->
      Replication.Replica.stop r;
      t.replica <- None
    | None -> ());
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.thread;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
