(** TCP server exposing one shared system: a thin [poll(2)] event loop around
    the IO-free {!Protocol} core.

    One event loop on one thread owns the listening socket and every
    connection, all {e non-blocking}, and waits on them with one [poll(2)]
    call per iteration — the only place the server waits.  The
    listening socket sits in the same poll set, so accepting is just
    another readiness event, and so does a replica's upstream link, dialled
    with a non-blocking [connect] whenever the core says a dial is due.
    Each iteration dials if due, flushes what the core queued, polls for
    the interest the core asks for, feeds the core what the sockets read,
    accepts, and ends with {!Protocol.end_of_iteration} (the open write
    batch) and {!Protocol.tick} (idle and bootstrap-stall verdicts).
    Nothing but the loop touches a connection or the engine, so neither
    takes a lock and no thread wakes another. *)

include Protocol.Config

let log_src = Protocol.log_src

module Log = (val Logs.src_log log_src : Logs.LOG)

(** A socket and the frame being written to it. *)
type conn = {
  fd : Unix.file_descr;
  pc : Protocol.conn;
  mutable wbuf : Bytes.t;
  mutable woff : int;
  mutable wlen : int;
}

(** The connections and the poll arrays belong to the loop thread alone;
    {!stop} writes only [running]. *)
type t = {
  core : Protocol.t;
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  conns : (int, conn) Hashtbl.t;
  mutable running : bool;
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
  upstream : Unix.sockaddr option;  (** replica side: the primary, resolved *)
}

let port t = t.bound_port
let stats t = Protocol.stats t.core

let pending_out c = c.wlen > c.woff || Protocol.has_output c.pc

(* Why a connection ends: each IO step below yields [Error why], which
   {!teardown} hands to {!Protocol.close}. *)
let condemned = "condemned by the protocol core"

let alive c = if Protocol.status c.pc <> Protocol.Dead then Ok () else Error condemned

(** Write the staged frame, then frames the core yields, as far as the
    socket allows.  Staging applies the same [wire.send] /
    [wire.send.drop] failpoint semantics as {!Wire.write_frame}. *)
let flush t c =
  let rec step () =
    if c.woff < c.wlen then
      match Unix.write c.fd c.wbuf c.woff (c.wlen - c.woff) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        Ok ()
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
      | 0 -> Error "write returned 0"
      | k ->
        c.woff <- c.woff + k;
        if c.woff >= c.wlen then begin
          Server_stats.on_frame_out (stats t) ~bytes:c.wlen;
          c.woff <- 0;
          c.wlen <- 0
        end;
        step ()
    else
      match Protocol.pop_output t.core c.pc with
      | None -> alive c
      | Some (raw, payload) -> (
        match Fault.skip "wire.send.drop" with
        | exception Fault.Injected _ -> Error "failpoint wire.send.drop"
        | true -> step () (* frame silently swallowed *)
        | false -> (
          let frame = Wire.frame_bytes ~raw payload in
          match Fault.cut "wire.send" ~len:(Bytes.length frame) with
          | exception Fault.Injected _ -> Error "failpoint wire.send"
          | Some k ->
            (* the wire gets only the first [k] bytes, then the connection
               dies holding a truncated frame *)
            (try ignore (Unix.write c.fd frame 0 k) with Unix.Unix_error _ -> ());
            Error "failpoint wire.send"
          | None ->
            c.wbuf <- frame;
            c.woff <- 0;
            c.wlen <- Bytes.length frame;
            step ()))
  in
  if Fault.passes "server.loop.writable" then step ()
  else Error "failpoint server.loop.writable"

(** One readable event: hand whatever the socket has to the core. *)
let read t c scratch =
  if not (Fault.passes "server.loop.readable") then
    Error "failpoint server.loop.readable"
  else
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Ok ()
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
    | 0 ->
      Protocol.input_eof t.core c.pc;
      Ok ()
    | n ->
      Protocol.input t.core c.pc scratch 0 n;
      alive c

(* A poll error: the socket's pending error (a refused non-blocking
   connect, a reset) or, without one, a hang-up. *)
let poll_error fd =
  match Unix.getsockopt_error fd with
  | Some err -> Unix.error_message err
  | None | (exception Unix.Unix_error _) -> "hang-up"

let teardown t c why =
  Hashtbl.remove t.conns (Protocol.conn_id c.pc);
  Protocol.close t.core c.pc why;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

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

let add t fd pc =
  Hashtbl.replace t.conns (Protocol.conn_id pc)
    { fd; pc; wbuf = Bytes.empty; woff = 0; wlen = 0 }

(** Take one accepted socket in, unless the [server.accept] failpoint or
    [max_conns] refuses it.  It enters the poll set at the next interest
    build. *)
let admit t fd =
  let refuse () = try Unix.close fd with Unix.Unix_error _ -> () in
  (* the upstream link is not a connection this server took *)
  let live =
    Hashtbl.length t.conns - if Protocol.has_upstream t.core then 1 else 0
  in
  if not (Fault.passes "server.accept") then begin
    Server_stats.on_error (stats t);
    refuse ()
  end
  else if t.config.max_conns > 0 && live >= t.config.max_conns then begin
    Server_stats.on_conn_refused (stats t);
    Log.warn (fun f ->
        f "refusing connection: %d live (max_conns=%d)" live t.config.max_conns);
    refuse ()
  end
  else
    match
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd
    with
    | () ->
      let pc = Protocol.connect t.core in
      add t fd pc;
      Log.debug (fun f -> f "conn %d: accepted" (Protocol.conn_id pc))
    | exception Unix.Unix_error _ ->
      Server_stats.on_error (stats t);
      refuse ()

(** Open the upstream link to the primary at [addr].  The [connect] is
    non-blocking: the link joins the poll set at once, its RHELLO waits in
    the core until the socket turns writable, and a refusal surfaces as a
    poll error, like a reset.  A socket that cannot even start connecting
    closes the link in the core, which schedules the next dial. *)
let dial t addr =
  let pc = Protocol.connect_upstream t.core in
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) ->
    Protocol.close t.core pc (Unix.error_message err)
  | fd -> (
    match
      Unix.set_nonblock fd;
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      try Unix.connect fd addr
      with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
    with
    | () -> add t fd pc
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Protocol.close t.core pc (Unix.error_message err))

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
        Server_stats.on_error (stats t);
        Log.err (fun f -> f "accept: %s; retrying" (Unix.error_message err));
        t.accept_paused_until <- Unix.gettimeofday () +. 0.05
  in
  go accept_burst

(** The loop thread: dial the primary if due, flush and compute
    per-connection interest (read while the core wants input, write while
    output is pending) next to the listen fd's, wait, service each ready
    connection, accept what the listen fd holds, and finally run the
    core's batch and timers.  On exit
    (server stop) remaining output is flushed best-effort over
    briefly-blocking sockets so in-flight responses reach their clients. *)
let loop_run t =
  let scratch = Bytes.create 65536 in
  while t.running do
    match
      Option.iter
        (fun addr -> if Protocol.dial_due t.core then dial t addr)
        t.upstream;
      (* interest build; connections already condemned tear down here *)
      ensure_capacity t (Hashtbl.length t.conns + 1);
      let accepting = Unix.gettimeofday () >= t.accept_paused_until in
      (* the listen fd stays in the set even while paused: a hang-up from
         {!stop} must still wake the wait *)
      t.fds.(0) <- t.listen_fd;
      t.events.(0) <- (if accepting then Netpoll.readable else 0);
      let n = ref 1 in
      let doomed = ref [] in
      ignore (Protocol.take_fresh_output t.core);
      Hashtbl.iter
        (fun _ c ->
          (* opportunistic flush: a socket is writable almost always, so
             pushing freshly-queued output here — instead of registering
             POLLOUT and paying a whole poll round-trip first — halves
             the response path.  EAGAIN falls back to POLLOUT below. *)
          let verdict =
            match alive c with
            | Ok () when pending_out c -> flush t c
            | v -> v
          in
          let pending = pending_out c in
          match verdict with
          | Error why -> doomed := (c, why) :: !doomed
          | Ok () when Protocol.status c.pc = Protocol.Flush_then_close && not pending
            ->
            doomed := (c, "closing after its last frame") :: !doomed
          | Ok () ->
            t.fds.(!n) <- c.fd;
            t.events.(!n) <-
              (if Protocol.wants_read t.core c.pc then Netpoll.readable else 0)
              lor (if pending then Netpoll.writable else 0);
            t.slots.(!n) <- Some c;
            incr n)
        t.conns;
      List.iter (fun (c, why) -> teardown t c why) !doomed;
      Server_stats.on_loop_iteration (stats t) ~fds:!n;
      (match
         let timeout_ms = Protocol.tick_ms t.core in
         Netpoll.wait ~fds:t.fds ~events:t.events ~revents:t.revents ~nfds:!n
           ~timeout_ms:
             (if Protocol.take_fresh_output t.core then 0
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
        | Some c when t.revents.(i) <> 0 && Protocol.status c.pc <> Protocol.Dead
          ->
          let ready = t.revents.(i) land t.events.(i) in
          let verdict =
            if t.revents.(i) land Netpoll.error <> 0 then Error (poll_error c.fd)
            else
              match
                if ready land Netpoll.writable = 0 then Ok () else flush t c
              with
              | Ok () when ready land Netpoll.readable <> 0 -> read t c scratch
              | v -> v
          in
          (match verdict with Error why -> teardown t c why | Ok () -> ())
        | _ -> ());
        t.slots.(i) <- None
      done;
      if accepting && t.running && t.revents.(0) <> 0 then accept_ready t;
      (* run to completion: the writes this iteration decoded execute now,
         on this thread, and their responses flush at the next interest
         build *)
      Protocol.end_of_iteration t.core;
      Protocol.tick t.core
    with
    | () -> ()
    | exception exn ->
      (* the loop must never die: it owns every connection *)
      Server_stats.on_error (stats t);
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
        let rec drain () =
          match Protocol.pop_output t.core c.pc with
          | Some (raw, payload) ->
            Wire.write_frame ~max_frame:t.config.max_frame ~raw c.fd payload;
            drain ()
          | None -> ()
        in
        drain ()
      with _ -> ())
    t.conns;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> teardown t c "server stopping") cs;
  Log.info (fun f -> f "stopped; %d connection(s) drained" (List.length cs))

(* ---------------- lifecycle ---------------- *)

let start ?(config = default_config) sys =
  Wire.check_port ~what:"Server.start: port" ~min:0 config.port;
  (* resolved once, here: [getaddrinfo] blocks, and the loop never may *)
  let upstream =
    Option.map
      (fun (host, p) ->
        Wire.check_port ~what:"Server.start: replica_of" ~min:1 p;
        match
          Unix.getaddrinfo host (string_of_int p)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with
        | ai :: _ -> ai.Unix.ai_addr
        | [] ->
          failwith (Printf.sprintf "Server.start: cannot resolve %s:%d" host p))
      config.replica_of
  in
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
  let core = Protocol.create ~config ~clock:Unix.gettimeofday sys in
  let t =
    {
      core;
      config;
      listen_fd;
      bound_port;
      conns = Hashtbl.create 256;
      running = true;
      accept_paused_until = 0.;
      fds = Array.make 64 listen_fd;
      events = Array.make 64 0;
      revents = Array.make 64 0;
      slots = Array.make 64 None;
      thread = None;
      upstream;
    }
  in
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
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.thread;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
