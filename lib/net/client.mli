(** Blocking client for the Youtopia wire protocol.

    Synchronous request/response over one primary TCP connection, plus a
    local queue of asynchronously pushed coordination answers.  With
    [~replicas], read-only scripts are routed round-robin across read
    replicas (dialled lazily, marked down with exponential backoff on
    failure, falling back to the primary), while writes, entangled
    submissions and unparsable input always go to the primary.  Not
    thread-safe; use one client per thread. *)

exception Server_error of string
(** The server answered with an ERROR frame. *)

type t

val connect :
  ?host:string ->
  ?port:int ->
  ?max_frame:int ->
  ?replicas:(string * int) list ->
  ?retry:Backoff.policy ->
  user:string ->
  unit ->
  t
(** Dial, handshake (HELLO/WELCOME), and return a connected client whose
    entangled queries are owned by [user].  [replicas] are [(host, port)]
    read replicas for {!submit} routing.  [retry] governs connect-time
    retries on the primary (default {!Backoff.no_retry}: fail fast) and
    the down-marking backoff for replicas.  Raises {!Server_error} if the
    server rejects the handshake, and [Invalid_argument] if any port lies
    outside 1–65535. *)

val banner : t -> string

val replica_count : t -> int
(** Number of configured read replicas. *)

val submit : t -> string -> Wire.result_body
(** Execute SQL text (one statement or a [;]-separated script) on the
    server.  Read-only scripts may be served by a replica (see
    {!connect}); a replica that answers with a read-only redirect or dies
    mid-request is retried transparently — next replica, then primary.
    Raises {!Server_error} on SQL errors. *)

val cancel : t -> int -> string
(** Withdraw a pending entangled query by id. *)

val admin : t -> string -> string
(** Admin probe on the primary: "server" (wire/server counters), "stats",
    "pending", "answers", "tables", "report", "checkpoint", "replicas". *)

val ping : ?payload:string -> t -> string

val poll_notifications : t -> Core.Events.notification list
(** Drain pushed coordination answers without blocking: only complete
    frames are decoded, and a partially delivered frame is buffered
    until a later call completes it. *)

val wait_notification : ?timeout:float -> t -> Core.Events.notification option
(** Block until a pushed answer arrives; [None] on timeout (seconds;
    negative = wait forever). *)

val close : t -> unit
(** Send BYE (best effort) and close the socket.  Idempotent. *)
