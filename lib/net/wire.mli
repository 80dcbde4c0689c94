(** The Youtopia wire protocol: versioned, length-prefixed framed messages.

    A frame is a 4-byte big-endian header word followed by the payload.
    The low 31 bits of the word are the payload length; the top bit marks a
    {b raw-bytes} frame (protocol ≥ 2) whose payload is a one-line header
    plus unescaped bulk bytes.  Text payloads are [|]-joined fields,
    percent-escaped with the WAL codec conventions; nested structures
    (outcomes, notifications) are embedded as single escaped fields.  See
    [docs/PROTOCOL.md] for the full grammar. *)

val protocol_version : int
(** Highest version this build speaks (2: raw-bytes frames). *)

val negotiate : int -> int option
(** [negotiate client_version] — the version the connection will speak
    (the client's, when the server knows it), or [None] to reject.  Raw
    frames flow only on connections negotiated at ≥ 2. *)

val default_max_frame : int

(** Framing kind of one payload. *)
type kind = Text | Raw

exception Closed
(** Peer closed the connection. *)

exception Protocol_error of string
(** Unparsable message, oversized frame, or version mismatch. *)

(** {1 Messages} *)

type request =
  | Hello of { version : int; user : string }
      (** mandatory first frame; [user] owns the connection's queries *)
  | Submit of { id : int; sql : string }
  | Cancel of { id : int; query_id : int }
  | Admin of { id : int; what : string }
      (** "server", "stats", "pending", "answers", "tables", "report" *)
  | Ping of { id : int; payload : string }
  | Bye
  | Replica_hello of { version : int; replica_id : string; last_lsn : int }
      (** alternative first frame: this connection is a replica's upstream
          link; [last_lsn] = last batch already applied (0 when fresh) *)
  | Repl_ack of { lsn : int }
      (** replica has applied every batch up to [lsn] *)

type result_body =
  | Sql_result of string
  | Registered of int
  | Answered of Core.Events.notification
  | Rejected of string
  | Listing of string
  | Multi of result_body list

type response =
  | Welcome of { version : int; banner : string }
  | Result of { id : int; body : result_body }
  | Error of { id : int; message : string }
  | Pong of { id : int; payload : string }
  | Stats of { id : int; body : string }
  | Push of Core.Events.notification
      (** unsolicited coordination answer for this connection's user *)
  | Snapshot_chunk of { lsn : int; seq : int; last : bool; data : string }
      (** one chunk of a checkpoint snapshot at [lsn], assembled in [seq]
          order until [last] *)
  | Wal_recs of { lsn : int; sent_at_us : int; last : bool; records : string }
      (** one chunk of committed batch [lsn]: newline-joined WAL records,
          commit marker on the final chunk; [sent_at_us] = primary's send
          time for lag measurement *)

(** {1 Replication constants} *)

val repl_chunk_bytes : int
(** Chunk budget for snapshot/batch payloads — stays under
    {!default_max_frame} even after escaping. *)

val check_port : what:string -> min:int -> int -> unit
(** [check_port ~what ~min p] raises [Invalid_argument] naming [what]
    unless [min <= p <= 65535].  The socket layer keeps only the low 16
    bits of a port, so 70000 would silently bind or dial 4464.  [min] is
    0 for a listener (ephemeral port) and 1 for a dial target. *)

val readonly_redirect : host:string -> port:int -> string
(** Error message a read-only replica answers writes with; parsable by
    {!parse_readonly_redirect}. *)

val parse_readonly_redirect : string -> (string * int) option
(** [Some (host, port)] when the message is a read-only redirect naming
    the primary. *)

(** {1 Codecs} *)

val encode_notification : Core.Events.notification -> string
val decode_notification : string -> Core.Events.notification
val encode_body : result_body -> string
val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

(** {1 Raw-bytes codec (protocol ≥ 2)}

    A raw payload is a one-line [|]-separated header naming the response
    shape, a ['\n'], then the bulk bytes verbatim — no percent-escaping.
    Only bulky responses have raw forms: [Wal_recs], [Snapshot_chunk], and
    [Result]s carrying an [Sql_result] of at least
    {!raw_result_threshold} bytes. *)

val raw_result_threshold : int

val encode_response_raw : response -> string option
(** [Some payload] when the response has a raw form worth sending,
    [None] when it must go as text. *)

val decode_response_raw : string -> response
(** Raises {!Protocol_error} on a malformed raw payload. *)

val decode_response_kind : kind * string -> response
(** Dispatch on the frame kind: {!decode_response} or
    {!decode_response_raw}. *)

(** {1 Framing} *)

val frame_bytes : ?raw:bool -> string -> Bytes.t
(** The full frame (header word + payload) as bytes, for staging into an
    output buffer.  Raises {!Protocol_error} if the payload exceeds the
    31-bit length field. *)

val write_frame : ?max_frame:int -> ?raw:bool -> Unix.file_descr -> string -> unit
(** Raises {!Protocol_error} if the payload exceeds [max_frame], {!Closed}
    if the peer is gone. *)

val read_frame : ?max_frame:int -> Unix.file_descr -> string
(** Raises {!Protocol_error} on an oversized frame or a raw frame (use
    {!read_frame_kind} on connections that negotiated them), {!Closed} on
    EOF. *)

val read_frame_kind : ?max_frame:int -> Unix.file_descr -> kind * string
(** Like {!read_frame} but surfaces the frame kind instead of rejecting
    raw frames. *)

(** {1 Incremental decoding}

    A [Decoder.t] accumulates bytes as they arrive off a non-blocking (or
    read-ahead) socket and yields complete frames; partial frames never
    block the caller.  Used by the server's event loop and the client's
    notification read-ahead. *)

module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends [len] bytes of [buf] starting at
      [off].  Raises [Invalid_argument] on a bad range. *)

  val feed_string : t -> string -> unit

  val next : t -> (kind * string) option
  (** The next complete frame, or [None] until more bytes arrive.  Raises
      {!Protocol_error} as soon as a frame header announces a payload
      over [max_frame], without waiting for the body. *)

  val buffered : t -> int
  (** Bytes held, including any partial frame. *)
end
