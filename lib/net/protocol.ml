(** The server's protocol core: everything above bytes, with no socket, no
    clock but the one it is given, and no thread of its own.  {!Server}
    drives it from one [poll(2)] loop; tests drive it directly.

    Per connection the core holds the incremental {!Wire.Decoder}, the
    handshake state, and two outbound queues: [boot], the replica
    bootstrap stream the server itself decided to send, and [outq],
    everything else, bounded by [max_outq].  The write SUBMITs decoded
    since the last {!end_of_iteration} form the open batch.  On a replica,
    one more connection carries the upstream link to the primary.  The
    thread driving the core is the only one that touches the engine, so
    engine work takes no lock. *)

let log_src = Logs.Src.create "youtopia.net" ~doc:"Youtopia network server"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Config = struct
  type config = {
    host : string;
    port : int;  (** 0 picks an ephemeral port *)
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
        (** applied to the system's WAL at {!create}; [None] leaves the
            database's current mode untouched *)
    replica_of : (string * int) option;
        (** run as a read replica of this primary: writes are rejected
            with a redirect naming it *)
    replica_id : string;  (** name announced in the replica handshake *)
    max_in_flight : int;
        (** responses one connection may have queued unflushed before it
            stops wanting input (backpressure) *)
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
end

include Config

type status = Open | Flush_then_close | Dead

(** Who is at the other end: an ordinary client session or a replica
    being fed (both fixed by the handshake), or, on a replica, the primary
    it tails (fixed when the core dials). *)
type peer =
  | Client_peer of Youtopia.Session.t
  | Replica_peer of Replication.Hub.sink
  | Upstream_peer of Replication.Replica.t

type conn = {
  conn_id : int;
  outq : (bool * string) Queue.t;  (** (raw, payload) awaiting the wire *)
  boot : Wire.response Queue.t;
      (** a replica's WELCOME and bootstrap stream, sent ahead of [outq]
          and encoded as they leave; not counted against [max_outq] *)
  dec : Wire.Decoder.t;
  mutable status : status;
  mutable raw : bool;  (** negotiated protocol ≥ 2: bulky frames go raw *)
  mutable batched : int;  (** this connection's writes in the open batch *)
  mutable peer : peer option;
  mutable last_activity : float;  (** last input, for the idle verdict *)
  mutable last_progress : float;
      (** last bootstrap frame taken for the wire, for the stall verdict *)
}

(** One write request in an open batch: everything the executor needs to
    run it and send the response. *)
type write_req = {
  wr_conn : conn;
  wr_session : Youtopia.Session.t;
  wr_id : int;
  wr_stmts : Sql.Ast.statement list;  (** parsed when the frame arrived *)
  wr_t0 : float;  (** arrival time, for end-to-end submit latency *)
}

(** The write requests decoded but not yet executed, newest first. *)
type batch = { mutable reqs : write_req list; mutable size : int }

type t = {
  sys : Youtopia.System.t;
  config : config;
  stats : Server_stats.t;
  clock : unit -> float;
  conns : (int, conn) Hashtbl.t;
  batch : batch;
  mutable next_conn_id : int;
  mutable fresh_output : bool;  (** output queued since {!take_fresh_output} *)
  mutable booting : conn list;  (** connections with a bootstrap in [boot] *)
  mutable last_sweep : float;
  hub : Replication.Hub.t option;
      (** primary side: committed batches fan out to replica sinks;
          [None] without a WAL or in replica mode *)
  upstream : Replication.Replica.t option;  (** replica side *)
  mutable upstream_conn : conn option;  (** the open link to the primary *)
}

let create ?(config = default_config) ~clock sys =
  let db = Youtopia.System.database sys in
  let hub =
    match (config.replica_of, db.Relational.Database.wal) with
    | None, Some wal ->
      let hub = Replication.Hub.create () in
      Replication.Hub.attach hub wal;
      Some hub
    | _ -> None
  in
  Option.iter (Relational.Database.set_durability db) config.durability;
  let stats = Server_stats.create () in
  let upstream =
    Option.map
      (fun _ ->
        Replication.Replica.create ~replica_id:config.replica_id ~now:(clock ())
          (Youtopia.System.catalog sys) stats)
      config.replica_of
  in
  {
    sys;
    config;
    stats;
    clock;
    conns = Hashtbl.create 256;
    batch = { reqs = []; size = 0 };
    next_conn_id = 1;
    fresh_output = false;
    booting = [];
    last_sweep = clock ();
    hub;
    upstream;
    upstream_conn = None;
  }

let stats t = t.stats
let is_replica t = t.config.replica_of <> None
let conn_id c = c.conn_id
let status c = c.status

let take_fresh_output t =
  let f = t.fresh_output in
  t.fresh_output <- false;
  f

(** Ship the batches noted while a batch committed to connected replicas,
    next to the response fan-out.  A failed flush leaves them queued for
    the next one; it is logged and counted, and answers nobody. *)
let hub_flush t =
  match t.hub with
  | None -> ()
  | Some hub -> (
    match Replication.Hub.flush hub with
    | () ->
      let s = Replication.Hub.stats hub in
      Server_stats.set_repl_shipping t.stats
        ~batches:s.Replication.Hub.batches_shipped
        ~records:s.Replication.Hub.records_shipped
        ~last_lsn:s.Replication.Hub.last_shipped_lsn
        ~acked_lsn:s.Replication.Hub.min_acked_lsn
    | exception exn ->
      Server_stats.on_error t.stats;
      Log.err (fun f -> f "replication flush: %s" (Printexc.to_string exn)))

(* ---------------- outbound queues ---------------- *)

(** On the upstream link, end the replica's session for [why], which
    schedules the redial.  The first cause the link learns of is the one
    logged: the session is already over when the teardown that follows
    reports its own. *)
let upstream_lost t conn why =
  match conn.peer with
  | Some (Upstream_peer r) -> Replication.Replica.lost r ~now:(t.clock ()) why
  | _ -> ()

(** Condemn a connection the server gives up on: nothing more is queued
    or sent, and the event loop tears it down. *)
let drop t conn why =
  upstream_lost t conn why;
  conn.status <- Dead;
  Queue.clear conn.outq;
  Queue.clear conn.boot;
  Server_stats.on_error t.stats;
  Log.warn (fun f -> f "conn %d: %s; dropping" conn.conn_id why)

(** Queue one (raw, payload) frame, bounded by [config.max_outq]: a peer
    that stops reading while frames keep arriving is dropped rather than
    buffered without limit. *)
let enqueue t conn item =
  if conn.status = Dead then ()
  else if Queue.length conn.outq >= t.config.max_outq then
    drop t conn
      ("slow consumer, " ^ string_of_int t.config.max_outq ^ " frames queued")
  else begin
    Queue.push item conn.outq;
    t.fresh_output <- true
  end

(** Encode: bulky responses go raw when the connection negotiated
    protocol ≥ 2, the escaped text codec otherwise. *)
let encode t conn response =
  match if conn.raw then Wire.encode_response_raw response else None with
  | Some payload ->
    Server_stats.on_raw_frame_out t.stats;
    (true, payload)
  | None -> (false, Wire.encode_response response)

let send t conn response = enqueue t conn (encode t conn response)

let has_output c = not (Queue.is_empty c.boot && Queue.is_empty c.outq)

let wants_read t c =
  c.status = Open && Queue.length c.outq < t.config.max_in_flight

(** The next frame for the wire: bootstrap frames first, in order, then
    the rest.  A frame over [max_frame] condemns the connection. *)
let pop_output t c =
  let item =
    if c.status = Dead then None
    else if Queue.is_empty c.boot then Queue.take_opt c.outq
    else begin
      c.last_progress <- t.clock ();
      Some (encode t c (Queue.pop c.boot))
    end
  in
  match item with
  | Some (_, payload) when String.length payload > t.config.max_frame ->
    Server_stats.on_error t.stats;
    Log.err (fun f ->
        f "conn %d: outbound frame of %d bytes exceeds limit %d" c.conn_id
          (String.length payload) t.config.max_frame);
    c.status <- Dead;
    None
  | item -> item

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
    coordinator (once per batch) so parked entangled queries see the new
    rows and pushes go out. *)
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

(** Execute one batch: every request runs with per-request error isolation
    inside a single WAL batch scope (one flush, one fsync at scope end),
    dirty tables accumulate across the whole batch and a single
    {!Coordinator.poke} covers them all.  Responses are queued {i after}
    the scope ends.  If the scope-end durability sync fails, no response
    has been sent yet — every batch member reports the failure instead of
    a false ack. *)
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
      (* before any statement runs: a [kill] here crashes a batch that has
         not touched the WAL *)
      Fault.point "server.batch";
      Relational.Database.with_wal_batch db (fun () ->
          let dml = ref 0 in
          let results =
            List.map
              (fun wr ->
                let response, n =
                  exec_write_script t wr.wr_session ~id:wr.wr_id wr.wr_stmts
                in
                dml := !dml + n;
                (wr, response))
              batch
          in
          if !dml > 0 then
            ignore (Youtopia.System.poke_batch t.sys ~statements:!dml);
          results)
    with
    | results -> results
    | exception exn ->
      (* the batch's WAL sync (or the poke) failed after the statements
         ran: acks would lie about durability, so everyone gets the error *)
      fail_all "batch durability failure" exn
  in
  let flushes, fsyncs = wal_io_delta io0 (wal_io_snapshot t) in
  Server_stats.on_batch t.stats ~size:(List.length batch) ~flushes ~fsyncs;
  (* the batch is durable but not yet acked — a [kill] here is the
     classic committed-but-unacknowledged crash *)
  let results =
    match Fault.point "server.batch.fanout" with
    | () -> results
    | exception exn -> fail_all "batch committed, but its fan-out failed" exn
  in
  let now = t.clock () in
  List.iter
    (fun (wr, response) ->
      (* count before send: once the response is queued the event loop can
         flush it, and a client observing its answer must also observe
         the submit counted *)
      Server_stats.on_submit t.stats ~latency:(now -. wr.wr_t0);
      send t wr.wr_conn response)
    results;
  (* replicas ride the same fan-out discipline as client responses *)
  hub_flush t

(** Execute and empty the open batch (no-op when empty). *)
let end_of_iteration t =
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
let settle t conn = if conn.batched > 0 then end_of_iteration t

(** Submit dispatch.  Read-only scripts run inline, after the
    connection's own batched writes.  Writes join the open batch; a full
    batch runs at once, otherwise {!end_of_iteration} runs it. *)
let answer t conn ~t0 response =
  Server_stats.on_submit t.stats ~latency:(t.clock () -. t0);
  send t conn response

let handle_submit t conn session ~id ~sql =
  let t0 = t.clock () in
  match Relational.Errors.guard (fun () -> Sql.Parser.parse_script sql) with
  | Error kind ->
    settle t conn;
    Server_stats.on_error t.stats;
    answer t conn ~t0
      (Wire.Error { id; message = Relational.Errors.kind_to_string kind })
  | Ok stmts when List.for_all Sql.Ast.read_only stmts ->
    settle t conn;
    answer t conn ~t0
      (match List.map (Youtopia.System.exec t.sys session) stmts with
      | rs -> result_of_responses id rs
      | exception Relational.Errors.Db_error kind ->
        Server_stats.on_error t.stats;
        Wire.Error { id; message = Relational.Errors.kind_to_string kind }
      | exception exn ->
        Server_stats.on_error t.stats;
        Wire.Error { id; message = Printexc.to_string exn })
  | Ok _ when is_replica t ->
    (* read replica: anything that could mutate goes to the primary *)
    let host, port = Option.get t.config.replica_of in
    Server_stats.on_readonly_rejected t.stats;
    answer t conn ~t0
      (Wire.Error { id; message = Wire.readonly_redirect ~host ~port })
  | Ok stmts ->
    let b = t.batch in
    b.reqs <-
      { wr_conn = conn; wr_session = session; wr_id = id; wr_stmts = stmts;
        wr_t0 = t0 }
      :: b.reqs;
    b.size <- b.size + 1;
    conn.batched <- conn.batched + 1;
    if b.size >= t.config.max_batch then end_of_iteration t

let handle_cancel t ~id ~query_id =
  if is_replica t then begin
    (* cancels mutate the pending store, which lives on the primary *)
    let host, port = Option.get t.config.replica_of in
    Server_stats.on_readonly_rejected t.stats;
    Server_stats.on_error t.stats;
    Wire.Error { id; message = Wire.readonly_redirect ~host ~port }
  end
  else
    match Core.Coordinator.cancel (Youtopia.System.coordinator t.sys) query_id with
  | true -> Wire.Result { id; body = Wire.Listing (Printf.sprintf "cancelled Q%d" query_id) }
  | false ->
    Server_stats.on_error t.stats;
    Wire.Error { id; message = Printf.sprintf "Q%d is not pending" query_id }

let handle_admin t ~id ~what =
  match what with
  | "server" ->
    (* coordination poke counters ride along *)
    let coord_kv =
      Core.Stats.to_kv
        (Core.Coordinator.stats (Youtopia.System.coordinator t.sys))
    in
    Wire.Stats { id; body = Server_stats.render t.stats ^ "\n" ^ coord_kv }
  | "stats" -> Wire.Stats { id; body = Youtopia.Admin.dump_stats t.sys }
  | "pending" -> Wire.Stats { id; body = Youtopia.Admin.dump_pending t.sys }
  | "answers" -> Wire.Stats { id; body = Youtopia.Admin.dump_answers t.sys }
  | "tables" -> Wire.Stats { id; body = Youtopia.Admin.dump_tables t.sys }
  | "report" -> Wire.Stats { id; body = Youtopia.Admin.report t.sys }
  | "checkpoint" -> (
    match Relational.Errors.guard (fun () -> Youtopia.System.checkpoint t.sys) with
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

(* ---------------- replication ---------------- *)

(** Queue a replica's bootstrap stream behind its WELCOME.  The sink is
    already registered, so every batch committed from here on reaches it
    live, queued behind the bootstrap; the replica's strict LSN sequencing
    absorbs the deliberate overlap between the two.

    Two bootstrap shapes: when the WAL file still holds the suffix past
    the replica's last applied LSN, ship those batches straight from the
    file (a torn tail is an incomplete batch the live stream covers).
    Otherwise — fresh replica against a truncated log, or a replica ahead
    of a restarted primary — stream a full checkpoint snapshot, cut
    between batches.  The frames drain as the peer reads; {!tick} drops a
    replica that takes none for {!stall_limit} seconds. *)
let bootstrap_replica t conn ~last_lsn =
  let db = Youtopia.System.database t.sys in
  match db.Relational.Database.wal with
  | None -> raise (Wire.Protocol_error "primary has no WAL; cannot replicate")
  | Some wal ->
    Relational.Wal.sync wal;
    let base = Relational.Wal.base_lsn wal in
    let last = Relational.Wal.last_lsn wal in
    let boot r = Queue.push r conn.boot in
    if last_lsn >= base && last_lsn <= last then begin
      let batches =
        Replication.catchup_batches ~wal_path:(Relational.Wal.path wal)
          ~after_lsn:last_lsn
      in
      let sent_at_us = Replication.now_us () in
      List.iter
        (fun (lsn, records) ->
          List.iter boot (Replication.frames_of_batch ~lsn ~sent_at_us records))
        batches;
      Log.info (fun f ->
          f "conn %d: replica catch-up from lsn %d: %d batch(es) queued"
            conn.conn_id last_lsn (List.length batches))
    end
    else begin
      let lsn = Relational.Wal.last_lsn wal in
      let lines =
        Relational.Checkpoint.to_lines ~lsn (Youtopia.System.catalog t.sys)
      in
      List.iter boot (Replication.frames_of_snapshot ~lsn lines);
      Log.info (fun f ->
          f "conn %d: replica bootstrap snapshot at lsn %d (replica was at %d)"
            conn.conn_id lsn last_lsn)
    end

(* ---------------- handshake and dispatch ---------------- *)

exception Goodbye

(** Handshake: the first frame must be a HELLO (client) or RHELLO (replica
    upstream link) carrying a version in the window {!Wire.negotiate}
    accepts; the reply is WELCOME echoing the negotiated version (or
    ERROR, then the connection closes).  A peer at version ≥ 2 gets bulky
    payloads as raw-bytes frames from here on. *)
let handshake_of_request t conn req =
  let negotiate version =
    match Wire.negotiate version with
    | Some v ->
      conn.raw <- v >= 2;
      Wire.Welcome { version = v; banner = t.config.banner }
    | None ->
      raise
        (Wire.Protocol_error
           (Printf.sprintf "unsupported protocol version %d (server speaks %d)"
              version Wire.protocol_version))
  in
  match req with
  | Wire.Hello { version; user } ->
    let welcome = negotiate version in
    let session = Youtopia.System.session t.sys user in
    Youtopia.Session.set_listener session
      (Some
         (fun n ->
           Server_stats.on_push t.stats;
           send t conn (Wire.Push n)));
    send t conn welcome;
    Client_peer session
  | Wire.Replica_hello { version; replica_id; last_lsn } -> (
    let welcome = negotiate version in
    match t.hub with
    | None ->
      raise
        (Wire.Protocol_error
           "this server does not ship WAL (no WAL attached, or replica mode)")
    | Some hub ->
      (* register before cutting the bootstrap so no batch falls between
         the snapshot/suffix and the live stream *)
      let sink =
        Replication.Hub.register hub ~replica_id ~send:(fun r -> send t conn r)
      in
      Server_stats.on_replica_connect t.stats;
      (match
         Queue.push welcome conn.boot;
         bootstrap_replica t conn ~last_lsn
       with
      | () -> ()
      | exception e ->
        Replication.Hub.unregister hub sink;
        Server_stats.on_replica_disconnect t.stats;
        raise e);
      conn.last_progress <- t.clock ();
      t.booting <- conn :: t.booting;
      Replica_peer sink)
  | _ -> raise (Wire.Protocol_error "expected HELLO as the first frame")

(** Queue a request to the primary on the upstream link.  The core makes
    these itself (RHELLO, RACKs), so like a bootstrap they are not bounded
    by [max_outq]. *)
let send_upstream t conn req =
  Queue.push (false, Wire.encode_request req) conn.outq;
  t.fresh_output <- true

(** One frame from the primary: queue the RACKs it yields.  Any failure
    ends the session; the link closes without a word and is redialled. *)
let upstream_frame t conn r kind payload =
  let now = t.clock () in
  match
    Replication.Replica.receive r ~now (Wire.decode_response_kind (kind, payload))
  with
  | acks -> List.iter (send_upstream t conn) acks
  | exception exn ->
    upstream_lost t conn (Printexc.to_string exn);
    conn.status <- Dead

(** Dispatch one decoded frame, handshaking the connection first if no
    peer is established yet; write SUBMITs join the open batch.  Raises
    {!Goodbye} on BYE, {!Wire.Protocol_error} on anything malformed. *)
let dispatch_frame t conn kind payload =
  match conn.peer with
  | Some (Upstream_peer r) -> upstream_frame t conn r kind payload
  | _ when kind = Wire.Raw ->
    raise
      (Wire.Protocol_error
         "unexpected raw frame (connection did not negotiate them)")
  | None ->
    conn.peer <- Some (handshake_of_request t conn (Wire.decode_request payload))
  | Some (Client_peer s) -> (
    match Wire.decode_request payload with
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
    match Wire.decode_request payload with
    | Wire.Repl_ack { lsn } -> Replication.Hub.ack sink ~lsn
    | Wire.Bye -> raise Goodbye
    | _ -> raise (Wire.Protocol_error "unexpected frame on a replica link"))

let finish conn = if conn.status = Open then conn.status <- Flush_then_close

(* An answered error ends the connection, once queued output (the error
   included) has flushed. *)
let fail t conn message =
  upstream_lost t conn message;
  settle t conn;
  Server_stats.on_error t.stats;
  Log.debug (fun f -> f "conn %d: %s" conn.conn_id message);
  send t conn (Wire.Error { id = 0; message });
  finish conn

(** Drain every complete frame the decoder holds, dispatching each. *)
let rec drain_decoder t conn =
  if conn.status = Open then
    match Wire.Decoder.next conn.dec with
    | exception Wire.Protocol_error m -> fail t conn m
    | None -> ()
    | Some (kind, payload) -> (
      Server_stats.on_frame_in t.stats ~bytes:(String.length payload + 4);
      (* [wire.recv] and [wire.recv.drop] mirror Wire.read_frame's
         failpoints per complete frame *)
      if not (Fault.passes "server.decoder" && Fault.passes "wire.recv") then
        conn.status <- Dead
      else
        match Fault.skip "wire.recv.drop" with
        | exception Fault.Injected _ -> conn.status <- Dead
        | true -> drain_decoder t conn (* frame silently dropped *)
        | false -> (
          match dispatch_frame t conn kind payload with
          | () -> drain_decoder t conn
          | exception Goodbye -> finish conn
          | exception Wire.Protocol_error m -> fail t conn m
          | exception exn -> fail t conn (Printexc.to_string exn)))

(* ---------------- connection lifecycle ---------------- *)

let new_conn t ~max_frame peer =
  let conn_id = t.next_conn_id in
  t.next_conn_id <- conn_id + 1;
  let now = t.clock () in
  let conn =
    {
      conn_id;
      outq = Queue.create ();
      boot = Queue.create ();
      dec = Wire.Decoder.create ~max_frame ();
      status = Open;
      raw = false;
      batched = 0;
      peer;
      last_activity = now;
      last_progress = now;
    }
  in
  Hashtbl.replace t.conns conn_id conn;
  conn

let connect t =
  Server_stats.on_connect t.stats;
  new_conn t ~max_frame:t.config.max_frame None

(* when the next upstream dial falls due; [None] on a primary and while
   the link is open *)
let next_dial t =
  match t.upstream with
  | Some r when t.upstream_conn = None -> Replication.Replica.next_dial r
  | _ -> None

let dial_due t =
  match next_dial t with Some at -> t.clock () >= at | None -> false

let has_upstream t = t.upstream_conn <> None

(* The upstream link reads the primary's frames at the wire's default
   limit, whatever [max_frame] says about client frames. *)
let connect_upstream t =
  match t.upstream with
  | None -> invalid_arg "Protocol.connect_upstream: not a replica"
  | Some r ->
    let conn =
      new_conn t ~max_frame:Wire.default_max_frame (Some (Upstream_peer r))
    in
    t.upstream_conn <- Some conn;
    send_upstream t conn (Replication.Replica.connect r);
    conn

let input t conn buf off len =
  conn.last_activity <- t.clock ();
  Wire.Decoder.feed conn.dec buf off len;
  drain_decoder t conn

(** EOF from the peer: queued responses still reach a half-closed peer. *)
let input_eof t conn =
  upstream_lost t conn "EOF from the primary";
  finish conn

(** Teardown: writes the connection already sent still run first, then
    whatever the handshake attached — client session and push listener,
    or replica sink — is detached.  Closing the upstream link ends its
    session for [why], unless a cause the core saw first already ended
    it, and schedules the redial.  Idempotent. *)
let close t conn why =
  if Hashtbl.mem t.conns conn.conn_id then begin
    settle t conn;
    Hashtbl.remove t.conns conn.conn_id;
    (* the upstream link is the server's own, not a connection it took *)
    (match conn.peer with
    | Some (Upstream_peer _) -> ()
    | _ -> Server_stats.on_disconnect t.stats);
    (match conn.peer with
    | Some (Client_peer s) ->
      Youtopia.Session.set_listener s None;
      Youtopia.System.close_session t.sys s
    | Some (Replica_peer sink) ->
      Option.iter (fun hub -> Replication.Hub.unregister hub sink) t.hub;
      Server_stats.on_replica_disconnect t.stats
    | Some (Upstream_peer _) ->
      t.upstream_conn <- None;
      upstream_lost t conn why
    | None -> ());
    conn.peer <- None;
    conn.status <- Dead;
    Queue.clear conn.outq;
    Queue.clear conn.boot;
    Log.debug (fun f -> f "conn %d: closed (%s)" conn.conn_id why)
  end

(* ---------------- timers ---------------- *)

(** Seconds a replica's bootstrap may go without a frame taken for the
    wire before the replica is dropped as a slow consumer. *)
let stall_limit = 30.

let sweep_period t = Float.min 0.25 (Float.max 0.01 (t.config.read_timeout /. 4.))

let tick_ms t =
  let sweep =
    if t.config.read_timeout > 0. then max 10 (int_of_float (sweep_period t *. 1000.))
    else 250
  in
  match next_dial t with
  | None -> sweep
  | Some at ->
    max 0 (min sweep (int_of_float (Float.ceil ((at -. t.clock ()) *. 1000.))))

(** A connection exempt from idle teardown: replica links in either
    direction (server-push, legitimately quiet inbound), and clients whose
    user owns a parked pending query — the whole point of coordination is
    that such a client may wait arbitrarily long for a partner. *)
let idle_exempt t conn =
  match conn.peer with
  | Some (Replica_peer _ | Upstream_peer _) -> true
  | Some (Client_peer s) -> (
    let user = Youtopia.Session.user s in
    try
      Core.Pending.exists
        (fun q -> q.Core.Equery.owner = user)
        (Core.Coordinator.pending (Youtopia.System.coordinator t.sys))
    with _ -> false)
  | None -> false

let tick t =
  (* the clock is read only while a timer is live *)
  if t.booting <> [] || t.config.read_timeout > 0. then begin
    let now = t.clock () in
    if t.booting <> [] then
      t.booting <-
        List.filter
          (fun c ->
            if c.status = Dead || Queue.is_empty c.boot then false
            else if now -. c.last_progress >= stall_limit then begin
              drop t c
                (Printf.sprintf "replica not draining its bootstrap for %.0fs"
                   stall_limit);
              false
            end
            else true)
          t.booting;
    if t.config.read_timeout > 0. && now -. t.last_sweep >= sweep_period t then begin
      t.last_sweep <- now;
      let timed_out =
        Hashtbl.fold
          (fun _ c acc ->
            if c.status = Open && now -. c.last_activity > t.config.read_timeout
            then c :: acc
            else acc)
          t.conns []
      in
      List.iter
        (fun c ->
          (* the exemption check scans the pending store, so it only runs
             for connections already past their deadline *)
          if not (idle_exempt t c) then begin
            Server_stats.on_idle_timeout t.stats;
            Log.debug (fun f -> f "conn %d: read timeout" c.conn_id);
            send t c (Wire.Error { id = 0; message = "read timeout; closing" });
            finish c
          end)
        timed_out
    end
  end
