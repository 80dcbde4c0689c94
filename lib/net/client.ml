(** Blocking client for the Youtopia wire protocol.

    One primary TCP connection, one session owner, plus optional read
    replicas.  Requests are synchronous: [submit]/[cancel]/[admin]/[ping]
    send a frame and block until the correlated response arrives.  [PUSH]
    frames — coordination answers delivered asynchronously by the server —
    can arrive interleaved with responses; they are stashed in a local
    queue and surfaced by {!poll_notifications} / {!wait_notification}.
    Pushes only travel the primary link: replicas reject the writes and
    entangled submissions that produce them.

    {b Replica routing}: when [connect] is given [~replicas], scripts that
    parse as read-only (the same {!Sql.Ast.read_only} predicate the server
    uses) are routed round-robin across the replicas; anything else — and
    anything that fails to parse locally — goes to the primary.  Replica
    connections are dialled lazily; a replica that refuses or drops is
    marked down with exponential backoff ({!Backoff}) and its reads fall
    over to the next replica, then to the primary, so a dying replica
    costs latency, not errors.  If a replica still answers with a
    read-only redirect (it and the client disagreed about a statement),
    the request is re-sent to the primary transparently.

    Not thread-safe: use one client per thread (the benchmark drives one
    connection per simulated user). *)

exception Server_error of string
(** The server answered with an ERROR frame. *)

(** One framed connection: fd + incremental decoder (a partially delivered
    frame waits in the decoder until the rest arrives). *)
type link = { l_fd : Unix.file_descr; l_dec : Wire.Decoder.t }

type replica_slot = {
  r_host : string;
  r_port : int;
  mutable r_link : link option;  (** dialled lazily *)
  mutable r_fails : int;  (** consecutive failures, drives the backoff *)
  mutable r_down_until : float;  (** skip this replica until then *)
}

type t = {
  max_frame : int;
  user : string;
  retry : Backoff.policy;
  mutable banner : string;
  mutable next_id : int;
  pushes : Core.Events.notification Queue.t;
  primary : link;
  replicas : replica_slot array;
  mutable rr : int;  (** round-robin cursor over [replicas] *)
  mutable closed : bool;
}

let banner t = t.banner
let replica_count t = Array.length t.replicas

let transient = function
  | Unix.Unix_error _ | Wire.Closed -> true
  | _ -> false

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let dial ~max_frame ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> ()
  | exception e ->
    close_fd fd;
    raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { l_fd = fd; l_dec = Wire.Decoder.create ~max_frame () }

(** Dial + HELLO; returns the link and the server's banner. *)
let open_link ~max_frame ~user ~host ~port =
  let link = dial ~max_frame ~host ~port in
  match
    Wire.write_frame ~max_frame link.l_fd
      (Wire.encode_request (Wire.Hello { version = Wire.protocol_version; user }));
    Wire.decode_response (Wire.read_frame ~max_frame link.l_fd)
  with
  | Wire.Welcome { banner; _ } -> (link, banner)
  | Wire.Error { message; _ } ->
    close_fd link.l_fd;
    raise (Server_error message)
  | _ ->
    close_fd link.l_fd;
    raise (Wire.Protocol_error "expected WELCOME")
  | exception e ->
    close_fd link.l_fd;
    raise e

let connect ?(host = "127.0.0.1") ?(port = 7077)
    ?(max_frame = Wire.default_max_frame) ?(replicas = [])
    ?(retry = Backoff.no_retry) ~user () =
  Wire.check_port ~what:"Client.connect: port" ~min:1 port;
  List.iter
    (fun (_, p) -> Wire.check_port ~what:"Client.connect: replica" ~min:1 p)
    replicas;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let primary, banner =
    Backoff.retry ~policy:retry ~retry_on:transient (fun () ->
        open_link ~max_frame ~user ~host ~port)
  in
  {
    max_frame;
    user;
    retry;
    banner;
    next_id = 1;
    pushes = Queue.create ();
    primary;
    replicas =
      Array.of_list
        (List.map
           (fun (r_host, r_port) ->
             { r_host; r_port; r_link = None; r_fails = 0; r_down_until = 0. })
           replicas);
    rr = 0;
    closed = false;
  }

(* ---------------- response pump ---------------- *)

(** Extract one complete frame from the link's decoder. *)
let take_frame link = Wire.Decoder.next link.l_dec

(** One [read] into the decoder — blocking unless the fd is known
    readable, in which case it feeds whatever is available. *)
let fill link =
  let buf = Bytes.create 8192 in
  let got =
    try Unix.read link.l_fd buf 0 (Bytes.length buf)
    with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
  in
  if got = 0 then raise Wire.Closed;
  Wire.Decoder.feed link.l_dec buf 0 got

let rec read_buffered_frame link =
  match take_frame link with
  | Some frame -> frame
  | None ->
    fill link;
    read_buffered_frame link

let read_response link = Wire.decode_response_kind (read_buffered_frame link)

(** Block until the response correlated with [id] arrives on [link],
    stashing any pushes encountered on the way. *)
let rec await t link id =
  match read_response link with
  | Wire.Push n ->
    Queue.push n t.pushes;
    await t link id
  | Wire.Result { id = id'; body } when id' = id -> Ok body
  | Wire.Error { id = id'; message } when id' = id || id' = 0 -> Error message
  | Wire.Pong { id = id'; payload } when id' = id -> Ok (Wire.Sql_result payload)
  | Wire.Stats { id = id'; body } when id' = id -> Ok (Wire.Listing body)
  | Wire.Snapshot_chunk _ | Wire.Wal_recs _ ->
    raise (Wire.Protocol_error "replication frame on a client connection")
  | Wire.Welcome _ | Wire.Result _ | Wire.Error _ | Wire.Pong _ | Wire.Stats _ ->
    raise (Wire.Protocol_error "response for an unknown request id")

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let rpc_on t link request id =
  Wire.write_frame ~max_frame:t.max_frame link.l_fd (Wire.encode_request request);
  match await t link id with
  | Ok body -> body
  | Error m -> raise (Server_error m)

let rpc t request id =
  if t.closed then raise (Wire.Protocol_error "client is closed");
  rpc_on t t.primary request id

(* ---------------- replica routing ---------------- *)

(** Conservative client-side read-only check: a script routes to a replica
    only when it parses locally and every statement passes the same
    predicate the server applies.  Unparsable input goes to the primary —
    it is the authority on errors. *)

(* Syntactic fast path: a single statement that starts with SELECT and
   contains no INTO (so no SELECT ... INTO ANSWER) cannot mutate.  The
   full parse below costs more than a point read, and routing runs on
   every submit — without this, a reader fleet bottlenecks on its own
   client-side parser before any server does.  Anything unsure (multiple
   statements, INTO anywhere — even inside a string literal) falls
   through to the parser, which stays the authority. *)
let fast_read_only sql =
  let s = String.trim sql in
  let u = String.uppercase_ascii s in
  let contains needle =
    let nh = String.length u and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub u i nn = needle || at (i + 1)) in
    at 0
  in
  String.length u >= 7
  && String.sub u 0 7 = "SELECT "
  && (not (String.contains u ';'))
  && not (contains "INTO")

let read_only_script sql =
  fast_read_only sql
  ||
  match Sql.Parser.parse_script sql with
  | [] -> false
  | stmts -> List.for_all Sql.Ast.read_only stmts
  | exception _ -> false

let mark_down t slot =
  (match slot.r_link with
  | Some link ->
    close_fd link.l_fd;
    slot.r_link <- None
  | None -> ());
  slot.r_fails <- slot.r_fails + 1;
  let policy = if t.retry == Backoff.no_retry then Backoff.default else t.retry in
  slot.r_down_until <-
    Unix.gettimeofday ()
    +. Backoff.jittered policy ~attempt:(min slot.r_fails policy.Backoff.attempts)

(** The slot's live link, dialling (one attempt) if needed; [None] marks
    the slot down for a backoff window. *)
let slot_link t slot =
  match slot.r_link with
  | Some link -> Some link
  | None -> (
    match
      open_link ~max_frame:t.max_frame ~user:t.user ~host:slot.r_host
        ~port:slot.r_port
    with
    | link, _banner ->
      slot.r_link <- Some link;
      slot.r_fails <- 0;
      Some link
    | exception e when transient e || (match e with Server_error _ -> true | _ -> false)
      ->
      mark_down t slot;
      None)

(** Submit a read-only script: round-robin over replicas that are not in a
    backoff window, falling back to the primary when none answers.  A
    replica that fails mid-request is marked down and the request moves
    on — the caller sees one answer either way. *)
let submit_read t ~id ~sql =
  let n = Array.length t.replicas in
  let rec try_slots k =
    if k >= n then rpc t (Wire.Submit { id; sql }) id
    else begin
      let slot = t.replicas.(t.rr mod n) in
      t.rr <- t.rr + 1;
      if slot.r_down_until > Unix.gettimeofday () then try_slots (k + 1)
      else
        match slot_link t slot with
        | None -> try_slots (k + 1)
        | Some link -> (
          match rpc_on t link (Wire.Submit { id; sql }) id with
          | body ->
            slot.r_fails <- 0;
            body
          | exception Server_error m -> (
            match Wire.parse_readonly_redirect m with
            | Some _ ->
              (* the replica disagreed about read-onlyness; the primary is
                 the authority *)
              rpc t (Wire.Submit { id; sql }) id
            | None -> raise (Server_error m))
          | exception e when transient e ->
            mark_down t slot;
            try_slots (k + 1))
    end
  in
  try_slots 0

(* ---------------- calls ---------------- *)

let submit t sql =
  let id = fresh_id t in
  if t.closed then raise (Wire.Protocol_error "client is closed");
  if Array.length t.replicas > 0 && read_only_script sql then
    submit_read t ~id ~sql
  else rpc t (Wire.Submit { id; sql }) id

let cancel t query_id =
  let id = fresh_id t in
  match rpc t (Wire.Cancel { id; query_id }) id with
  | Wire.Listing m -> m
  | _ -> raise (Wire.Protocol_error "unexpected cancel response")

let admin t what =
  let id = fresh_id t in
  match rpc t (Wire.Admin { id; what }) id with
  | Wire.Listing body -> body
  | _ -> raise (Wire.Protocol_error "unexpected admin response")

let ping ?(payload = "ping") t =
  let id = fresh_id t in
  match rpc t (Wire.Ping { id; payload }) id with
  | Wire.Sql_result echo -> echo
  | _ -> raise (Wire.Protocol_error "unexpected ping response")

(* ---------------- notifications (primary link only) ---------------- *)

let drain t =
  let out = List.of_seq (Queue.to_seq t.pushes) in
  Queue.clear t.pushes;
  out

(** [poll_notifications t] — drain everything already readable without
    blocking: pushed answers that arrived since the last call.  Only
    complete frames are decoded; a frame still in flight stays in the
    read-ahead buffer for a later call, so this never blocks mid-frame. *)
let poll_notifications t =
  let link = t.primary in
  let readable () =
    match Unix.select [ link.l_fd ] [] [] 0. with
    | [ _ ], _, _ -> true
    | _ -> false
  in
  let rec slurp () =
    match take_frame link with
    | Some frame -> (
      match Wire.decode_response_kind frame with
      | Wire.Push n ->
        Queue.push n t.pushes;
        slurp ()
      | _ -> raise (Wire.Protocol_error "unsolicited non-push response"))
    | None ->
      if readable () then
        match fill link with () -> slurp () | exception Wire.Closed -> ()
  in
  if not t.closed then slurp ();
  drain t

(** [wait_notification ?timeout t] — block until a pushed answer arrives
    ([None] on timeout).  The no-polling path: the thread sleeps in
    [select] until the server's event loop puts a PUSH on the wire. *)
let wait_notification ?(timeout = -1.) t =
  if not (Queue.is_empty t.pushes) then Some (Queue.pop t.pushes)
  else begin
    let link = t.primary in
    let deadline = if timeout < 0. then None else Some (Unix.gettimeofday () +. timeout) in
    let rec wait () =
      match take_frame link with
      | Some frame -> (
        match Wire.decode_response_kind frame with
        | Wire.Push n -> Some n
        | _ -> raise (Wire.Protocol_error "unsolicited non-push response"))
      | None ->
        let left =
          match deadline with
          | None -> -1.
          | Some d -> Float.max 0. (d -. Unix.gettimeofday ())
        in
        if left = 0. && deadline <> None then None
        else (
          match Unix.select [ link.l_fd ] [] [] left with
          | [ _ ], _, _ -> (
            match fill link with () -> wait () | exception Wire.Closed -> None)
          | _ -> wait ())
    in
    wait ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try
       Wire.write_frame ~max_frame:t.max_frame t.primary.l_fd
         (Wire.encode_request Wire.Bye)
     with Wire.Closed | Wire.Protocol_error _ | Unix.Unix_error _ -> ());
    close_fd t.primary.l_fd;
    Array.iter
      (fun slot ->
        match slot.r_link with
        | Some link ->
          close_fd link.l_fd;
          slot.r_link <- None
        | None -> ())
      t.replicas
  end
