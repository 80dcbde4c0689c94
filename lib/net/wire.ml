(** The Youtopia wire protocol.

    Frames are length-prefixed: a 4-byte big-endian payload length followed
    by the payload.  The payload is a single text message — fields joined
    by [|], each field percent-escaped with the WAL codec conventions
    ({!Relational.Wal.escape}) so separators never appear raw.  Nested
    structures (coordination outcomes, notifications) are encoded to a
    message of their own and embedded as one escaped field, so the grammar
    stays flat at every level.

    Three message kinds flow over a connection:
    - {b requests} (client to server): handshake, SQL submission,
      cancellation, admin/stats, ping, goodbye;
    - {b responses} (server to client): one per request, correlated by the
      client-chosen request id;
    - {b pushes} (server to client, unsolicited): coordination
      notifications delivered the moment a group is fulfilled — the
      network substitute for the demo's Facebook messages.

    The protocol is versioned by the handshake: the first frame must be
    [HELLO] carrying {!protocol_version}; anything else — or a version the
    server does not speak — is rejected and the connection closed.

    {b Replication} reuses the same framing: a replica opens its upstream
    connection with [RHELLO] instead of [HELLO], after which the link
    becomes a one-way stream of [SNAP] (snapshot bootstrap chunks) and
    [WREC] (committed WAL batches) frames from the primary, answered only
    by [RACK] acknowledgements.  Snapshot and batch payloads are chunked
    ({!repl_chunk_bytes}) so a large database or transaction never exceeds
    the frame limit.

    {b Raw-bytes frames} (protocol version 2): the top bit of the length
    word marks a frame whose payload is a one-line text header followed by
    [\n] and unescaped bytes — bulky payloads (replication chunks, large
    result sets) skip the percent-escape round-trip entirely.  The
    capability is negotiated at HELLO/RHELLO: a peer announcing version ≥ 2
    receives raw frames, a version-1 peer receives the escaped text
    encoding, so old clients keep working against a new server. *)

open Relational

let protocol_version = 2
let min_protocol_version = 1

(** [negotiate client_version] — the version the connection will speak, or
    [None] when the server does not know it.  The server answers WELCOME
    with the negotiated version; raw-bytes frames require ≥ 2. *)
let negotiate client_version =
  if client_version >= min_protocol_version && client_version <= protocol_version
  then Some client_version
  else None

let default_max_frame = 1 lsl 20 (* 1 MiB *)

(** Framing kind: [Text] payloads are the escaped [|]-joined messages
    below; [Raw] payloads are a header line plus unescaped bytes. *)
type kind = Text | Raw

(* Raw frames are marked by the top bit of the 32-bit length word; the
   remaining 31 bits are the payload length, so nothing changes for
   version-1 peers (their lengths are far below 2^31). *)
let raw_bit = 0x80000000l

exception Closed
(** Peer closed the connection (EOF mid-frame or before one). *)

exception Protocol_error of string
(** Unparsable message, oversized frame, or version mismatch. *)

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ---------------- messages ---------------- *)

type request =
  | Hello of { version : int; user : string }
      (** Must be the first frame on a connection; [user] becomes the
          session owner for entangled queries. *)
  | Submit of { id : int; sql : string }  (** one or more SQL statements *)
  | Cancel of { id : int; query_id : int }  (** withdraw a pending query *)
  | Admin of { id : int; what : string }
      (** admin/stats probe: "server", "stats", "pending", "answers",
          "tables", "report" *)
  | Ping of { id : int; payload : string }
  | Bye  (** graceful goodbye; the server closes the connection *)
  | Replica_hello of { version : int; replica_id : string; last_lsn : int }
      (** Alternative first frame: this connection is a replica's upstream
          link.  [last_lsn] is the last batch the replica has applied (0
          for a fresh replica); the primary answers with a snapshot or a
          WAL suffix, then live [WREC] frames. *)
  | Repl_ack of { lsn : int }
      (** Replica has durably applied every batch up to [lsn]. *)

(** Flattened coordinator outcome / statement result. *)
type result_body =
  | Sql_result of string  (** rendered plain-SQL result *)
  | Registered of int  (** parked in the pending store under this id *)
  | Answered of Core.Events.notification  (** matched immediately *)
  | Rejected of string  (** failed the safety check *)
  | Listing of string  (** SHOW PENDING / cancel acknowledgements *)
  | Multi of result_body list  (** CHOOSE k > 1 or multi-statement script *)

type response =
  | Welcome of { version : int; banner : string }
  | Result of { id : int; body : result_body }
  | Error of { id : int; message : string }
      (** request-level failure (SQL error, unknown admin probe, …);
          [id = 0] for connection-level failures before any request *)
  | Pong of { id : int; payload : string }
  | Stats of { id : int; body : string }
  | Push of Core.Events.notification
      (** unsolicited: an entangled query owned by this connection's user
          was answered *)
  | Snapshot_chunk of { lsn : int; seq : int; last : bool; data : string }
      (** One chunk of a checkpoint snapshot at [lsn] (see
          {!Relational.Checkpoint}); chunks arrive in [seq] order and the
          replica assembles them until [last]. *)
  | Wal_recs of { lsn : int; sent_at_us : int; last : bool; records : string }
      (** One chunk of committed batch [lsn]: newline-joined WAL records in
          the {!Relational.Wal} line codec, ending with the commit marker
          on the final ([last]) chunk.  [sent_at_us] is the primary's send
          timestamp (µs since the epoch) for lag measurement. *)

(* ---------------- replication constants ---------------- *)

(** Chunk budget for snapshot/batch payloads — comfortably under
    {!default_max_frame} even after percent-escaping (worst case 3×). *)
let repl_chunk_bytes = 256 * 1024

let check_port ~what ~min p =
  if p < min || p > 65535 then
    invalid_arg
      (Printf.sprintf "%s: port %d is outside %d-65535" what p min)

(** Error message a read-only replica answers writes with; machine-parsable
    so clients can fail over to the primary it names. *)
let readonly_redirect_prefix = "read-only replica; writes go to primary "

let readonly_redirect ~host ~port =
  Printf.sprintf "%s%s:%d" readonly_redirect_prefix host port

(** [parse_readonly_redirect msg] — [Some (host, port)] when [msg] is a
    read-only redirect naming the primary. *)
let parse_readonly_redirect msg =
  let plen = String.length readonly_redirect_prefix in
  if
    String.length msg > plen
    && String.sub msg 0 plen = readonly_redirect_prefix
  then
    let rest = String.sub msg plen (String.length msg - plen) in
    match String.rindex_opt rest ':' with
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" -> Some (host, p)
      | _ -> None)
    | None -> None
  else None

(* ---------------- field helpers ---------------- *)

let unesc = Wal.unescape

let int_field name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad %s field: %s" name s

(* ---------------- notification codec ---------------- *)

(* qid|owner|label|g1;g2;…|rel;tuple,rel;tuple,…  — the answer tuples reuse
   the WAL tuple codec, so every Value round-trips exactly as it does
   through recovery. *)

(* Encoders write a message straight into one buffer.  [depth] is how
   many rounds of escaping the text being written sits under: a message's
   own separators are written at its depth, each of its fields one deeper
   (see {!Relational.Wal.add_escaped}), so a notification nested in a
   result body nested in a frame is escaped as it is written. *)

let sep buf ~depth c = Wal.add_escaped_char buf ~depth c
let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_int_field buf ~depth i =
  sep buf ~depth '|';
  add_int buf i

let add_str_field buf ~depth s =
  sep buf ~depth '|';
  Wal.add_escaped buf ~depth:(depth + 1) s

let add_notification buf ~depth (n : Core.Events.notification) =
  add_int buf n.Core.Events.query_id;
  add_str_field buf ~depth n.Core.Events.owner;
  add_str_field buf ~depth n.Core.Events.label;
  sep buf ~depth '|';
  List.iteri
    (fun i g ->
      if i > 0 then sep buf ~depth ';';
      add_int buf g)
    n.Core.Events.group;
  sep buf ~depth '|';
  List.iteri
    (fun i (rel, tup) ->
      if i > 0 then sep buf ~depth ',';
      Wal.add_escaped buf ~depth:(depth + 1) rel;
      sep buf ~depth ';';
      Wal.add_tuple buf ~depth:(depth + 1) tup)
    n.Core.Events.answers

let to_string_with f x =
  let buf = Buffer.create 128 in
  f buf x;
  Buffer.contents buf

let encode_notification n = to_string_with (add_notification ~depth:0) n

let decode_notification s : Core.Events.notification =
  match String.split_on_char '|' s with
  | [ qid; owner; label; group; answers ] ->
    let group =
      if group = "" then []
      else List.map (int_field "group id") (String.split_on_char ';' group)
    in
    let answer a =
      match String.split_on_char ';' a with
      | [ rel; tup ] -> unesc rel, Wal.decode_tuple (unesc tup)
      | _ -> fail "bad answer field: %s" a
    in
    let answers =
      if answers = "" then []
      else List.map answer (String.split_on_char ',' answers)
    in
    {
      Core.Events.query_id = int_field "query id" qid;
      owner = unesc owner;
      label = unesc label;
      group;
      answers;
    }
  | _ -> fail "bad notification: %s" s

(* ---------------- result-body codec ---------------- *)

let rec add_body buf ~depth = function
  | Sql_result s ->
    Buffer.add_string buf "SQL";
    add_str_field buf ~depth s
  | Registered id ->
    Buffer.add_string buf "REG";
    add_int_field buf ~depth id
  | Answered n ->
    Buffer.add_string buf "ANS";
    sep buf ~depth '|';
    add_notification buf ~depth:(depth + 1) n
  | Rejected m ->
    Buffer.add_string buf "REJ";
    add_str_field buf ~depth m
  | Listing s ->
    Buffer.add_string buf "LST";
    add_str_field buf ~depth s
  | Multi bodies ->
    Buffer.add_string buf "MUL";
    List.iter
      (fun b ->
        sep buf ~depth '|';
        add_body buf ~depth:(depth + 1) b)
      bodies

let encode_body b = to_string_with (add_body ~depth:0) b

let rec decode_body s =
  match String.split_on_char '|' s with
  | [ "SQL"; r ] -> Sql_result (unesc r)
  | [ "REG"; id ] -> Registered (int_field "query id" id)
  | [ "ANS"; n ] -> Answered (decode_notification (unesc n))
  | [ "REJ"; m ] -> Rejected (unesc m)
  | [ "LST"; l ] -> Listing (unesc l)
  | "MUL" :: bodies -> Multi (List.map (fun b -> decode_body (unesc b)) bodies)
  | _ -> fail "bad result body: %s" s

(* ---------------- message codecs ---------------- *)

let add_request buf r =
  let depth = 0 in
  let tagged tag id =
    Buffer.add_string buf tag;
    add_int_field buf ~depth id
  in
  match r with
  | Hello { version; user } ->
    tagged "HELLO" version;
    add_str_field buf ~depth user
  | Submit { id; sql } ->
    tagged "SUBMIT" id;
    add_str_field buf ~depth sql
  | Cancel { id; query_id } ->
    tagged "CANCEL" id;
    add_int_field buf ~depth query_id
  | Admin { id; what } ->
    tagged "ADMIN" id;
    add_str_field buf ~depth what
  | Ping { id; payload } ->
    tagged "PING" id;
    add_str_field buf ~depth payload
  | Bye -> Buffer.add_string buf "BYE"
  | Replica_hello { version; replica_id; last_lsn } ->
    tagged "RHELLO" version;
    add_str_field buf ~depth replica_id;
    add_int_field buf ~depth last_lsn
  | Repl_ack { lsn } -> tagged "RACK" lsn

let encode_request r = to_string_with add_request r

let decode_request s =
  match String.split_on_char '|' s with
  | [ "HELLO"; v; user ] ->
    Hello { version = int_field "version" v; user = unesc user }
  | [ "SUBMIT"; id; sql ] ->
    Submit { id = int_field "request id" id; sql = unesc sql }
  | [ "CANCEL"; id; qid ] ->
    Cancel { id = int_field "request id" id; query_id = int_field "query id" qid }
  | [ "ADMIN"; id; what ] ->
    Admin { id = int_field "request id" id; what = unesc what }
  | [ "PING"; id; payload ] ->
    Ping { id = int_field "request id" id; payload = unesc payload }
  | [ "BYE" ] -> Bye
  | [ "RHELLO"; v; rid; lsn ] ->
    Replica_hello
      {
        version = int_field "version" v;
        replica_id = unesc rid;
        last_lsn = int_field "lsn" lsn;
      }
  | [ "RACK"; lsn ] -> Repl_ack { lsn = int_field "lsn" lsn }
  | _ -> fail "bad request: %s" s

let add_response buf r =
  let depth = 0 in
  let tagged tag id =
    Buffer.add_string buf tag;
    add_int_field buf ~depth id
  in
  match r with
  | Welcome { version; banner } ->
    tagged "WELCOME" version;
    add_str_field buf ~depth banner
  | Result { id; body } ->
    tagged "RESULT" id;
    sep buf ~depth '|';
    add_body buf ~depth:(depth + 1) body
  | Error { id; message } ->
    tagged "ERROR" id;
    add_str_field buf ~depth message
  | Pong { id; payload } ->
    tagged "PONG" id;
    add_str_field buf ~depth payload
  | Stats { id; body } ->
    tagged "STATS" id;
    add_str_field buf ~depth body
  | Push n ->
    Buffer.add_string buf "PUSH";
    sep buf ~depth '|';
    add_notification buf ~depth:(depth + 1) n
  | Snapshot_chunk { lsn; seq; last; data } ->
    tagged "SNAP" lsn;
    add_int_field buf ~depth seq;
    add_int_field buf ~depth (Bool.to_int last);
    add_str_field buf ~depth data
  | Wal_recs { lsn; sent_at_us; last; records } ->
    tagged "WREC" lsn;
    add_int_field buf ~depth sent_at_us;
    add_int_field buf ~depth (Bool.to_int last);
    add_str_field buf ~depth records

let encode_response r = to_string_with add_response r

let decode_response s =
  match String.split_on_char '|' s with
  | [ "WELCOME"; v; banner ] ->
    Welcome { version = int_field "version" v; banner = unesc banner }
  | [ "RESULT"; id; body ] ->
    Result { id = int_field "request id" id; body = decode_body (unesc body) }
  | [ "ERROR"; id; message ] ->
    Error { id = int_field "request id" id; message = unesc message }
  | [ "PONG"; id; payload ] ->
    Pong { id = int_field "request id" id; payload = unesc payload }
  | [ "STATS"; id; body ] ->
    Stats { id = int_field "request id" id; body = unesc body }
  | [ "PUSH"; n ] -> Push (decode_notification (unesc n))
  | [ "SNAP"; lsn; seq; last; data ] ->
    Snapshot_chunk
      {
        lsn = int_field "lsn" lsn;
        seq = int_field "seq" seq;
        last = int_field "last" last <> 0;
        data = unesc data;
      }
  | [ "WREC"; lsn; sent_at; last; records ] ->
    Wal_recs
      {
        lsn = int_field "lsn" lsn;
        sent_at_us = int_field "sent_at" sent_at;
        last = int_field "last" last <> 0;
        records = unesc records;
      }
  | _ -> fail "bad response: %s" s

(* ---------------- raw-bytes codec (protocol ≥ 2) ---------------- *)

(* A raw payload is [header '\n' body]: the header is a [|]-joined field
   line naming the message and its small scalar fields, the body is the
   bulk bytes verbatim.  Only the bulky responses have a raw form — the
   encoder returns [None] for everything else and the caller falls back to
   the text codec. *)

(** [Sql_result] bodies at least this big go raw on a negotiated
    connection; smaller results gain nothing from skipping the escape. *)
let raw_result_threshold = 4096

let encode_response_raw r =
  let raw tag ints body =
    let buf = Buffer.create (String.length body + 64) in
    Buffer.add_string buf tag;
    List.iter (add_int_field buf ~depth:0) ints;
    Buffer.add_char buf '\n';
    Buffer.add_string buf body;
    Some (Buffer.contents buf)
  in
  match r with
  | Wal_recs { lsn; sent_at_us; last; records } ->
    raw "WREC" [ lsn; sent_at_us; Bool.to_int last ] records
  | Snapshot_chunk { lsn; seq; last; data } ->
    raw "SNAP" [ lsn; seq; Bool.to_int last ] data
  | Result { id; body = Sql_result s }
    when String.length s >= raw_result_threshold ->
    raw "RESULT" [ id ] s
  | _ -> None

let decode_response_raw s =
  match String.index_opt s '\n' with
  | None -> fail "raw frame without a header line"
  | Some i -> (
    let header = String.sub s 0 i in
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    match String.split_on_char '|' header with
    | [ "WREC"; lsn; sent_at; last ] ->
      Wal_recs
        {
          lsn = int_field "lsn" lsn;
          sent_at_us = int_field "sent_at" sent_at;
          last = int_field "last" last <> 0;
          records = body;
        }
    | [ "SNAP"; lsn; seq; last ] ->
      Snapshot_chunk
        {
          lsn = int_field "lsn" lsn;
          seq = int_field "seq" seq;
          last = int_field "last" last <> 0;
          data = body;
        }
    | [ "RESULT"; id ] ->
      Result { id = int_field "request id" id; body = Sql_result body }
    | _ -> fail "bad raw frame header: %s" header)

let decode_response_kind = function
  | Text, payload -> decode_response payload
  | Raw, payload -> decode_response_raw payload

(* ---------------- framing ---------------- *)

let really_write fd bytes =
  let n = Bytes.length bytes in
  let rec loop off =
    if off < n then begin
      let written =
        try Unix.write fd bytes off (n - off)
        with Unix.Unix_error (Unix.EPIPE, _, _) -> raise Closed
      in
      if written = 0 then raise Closed;
      loop (off + written)
    end
  in
  loop 0

(** [really_read fd n] — exactly [n] bytes; {!Closed} on EOF at a frame
    boundary is distinguished by the caller ([off = 0]). *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec loop off =
    if off < n then begin
      let got =
        try Unix.read fd buf off (n - off)
        with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      if got = 0 then raise Closed;
      loop (off + got)
    end
  in
  loop 0;
  buf

(* Failpoints ([wire.send], [wire.send.drop], [wire.recv],
   [wire.recv.drop]) model the network's betrayals at the framing layer:
   a frame truncated mid-write, a frame silently swallowed, a stalled
   socket ([delay]), a reset.  An injected [Error] surfaces as {!Closed}
   — a reset, not a new exception — so every caller exercises its real
   disconnect path. *)

(** Header + payload as one contiguous buffer, raw bit applied — shared by
    the blocking {!write_frame} and the event loop's staged writes. *)
let frame_bytes ?(raw = false) payload =
  let n = String.length payload in
  (* round-trip through the 31-bit field: a length that does not survive
     the masking would silently corrupt the header word (and, if bit 31
     were set, flip the raw marker) *)
  if Int32.to_int (Int32.logand (Int32.of_int n) (Int32.lognot raw_bit)) <> n
  then fail "outbound frame of %d bytes exceeds the 31-bit length field" n;
  let frame = Bytes.create (4 + n) in
  let word =
    if raw then Int32.logor raw_bit (Int32.of_int n) else Int32.of_int n
  in
  Bytes.set_int32_be frame 0 word;
  Bytes.blit_string payload 0 frame 4 n;
  frame

let write_frame ?(max_frame = default_max_frame) ?(raw = false) fd payload =
  let n = String.length payload in
  if n > max_frame then fail "outbound frame of %d bytes exceeds limit %d" n max_frame;
  if (try Fault.skip "wire.send.drop" with Fault.Injected _ -> raise Closed)
  then ()
  else begin
    let frame = frame_bytes ~raw payload in
    match
      try Fault.cut "wire.send" ~len:(4 + n)
      with Fault.Injected _ -> raise Closed
    with
    | None -> really_write fd frame
    | Some k ->
      (* the wire got only the first [k] bytes of the frame, then the
         connection died: the peer is left holding a truncated frame *)
      (try really_write fd (Bytes.sub frame 0 k) with Closed -> ());
      raise Closed
  end

let rec read_frame_kind ?(max_frame = default_max_frame) fd =
  (try Fault.point "wire.recv" with Fault.Injected _ -> raise Closed);
  let header = really_read fd 4 in
  let word = Bytes.get_int32_be header 0 in
  let raw = Int32.logand word raw_bit <> 0l in
  let n = Int32.to_int (Int32.logand word (Int32.lognot raw_bit)) in
  if n < 0 || n > max_frame then
    fail "inbound frame of %d bytes exceeds limit %d" n max_frame;
  let payload = Bytes.to_string (really_read fd n) in
  if (try Fault.skip "wire.recv.drop" with Fault.Injected _ -> raise Closed)
  then read_frame_kind ~max_frame fd
  else ((if raw then Raw else Text), payload)

let read_frame ?max_frame fd =
  match read_frame_kind ?max_frame fd with
  | Text, payload -> payload
  | Raw, _ -> fail "unexpected raw frame (connection did not negotiate them)"

(* ---------------- incremental decoder ---------------- *)

(** Incremental frame decoder: feed whatever bytes a socket produced,
    extract the complete frames.  This is the read path of the server's
    event loop (client connections and a replica's upstream link alike)
    {i and} the client — partial frames wait in the buffer and never
    block anyone.  The buffer is compacted
    lazily: consumed bytes are reclaimed when the next feed needs room, and
    the whole buffer resets to empty whenever it drains. *)
module Decoder = struct
  type t = {
    max_frame : int;
    mutable buf : Bytes.t;  (** live bytes in [pos, len) *)
    mutable pos : int;
    mutable len : int;
  }

  let create ?(max_frame = default_max_frame) () =
    { max_frame; buf = Bytes.create 512; pos = 0; len = 0 }

  let buffered t = t.len - t.pos

  let ensure_space t extra =
    if t.len + extra > Bytes.length t.buf then begin
      let live = buffered t in
      if t.pos > 0 then begin
        Bytes.blit t.buf t.pos t.buf 0 live;
        t.pos <- 0;
        t.len <- live
      end;
      if t.len + extra > Bytes.length t.buf then begin
        let cap = ref (max 512 (Bytes.length t.buf)) in
        while t.len + extra > !cap do
          cap := !cap * 2
        done;
        let grown = Bytes.create !cap in
        Bytes.blit t.buf 0 grown 0 t.len;
        t.buf <- grown
      end
    end

  let feed t src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Decoder.feed";
    ensure_space t len;
    Bytes.blit src off t.buf t.len len;
    t.len <- t.len + len

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  (** The next complete frame, or [None] until more bytes arrive.  Raises
      {!Protocol_error} as soon as a header announces an oversized frame —
      no need to wait for a payload that will never be accepted. *)
  let next t =
    if buffered t < 4 then None
    else begin
      let word = Bytes.get_int32_be t.buf t.pos in
      let raw = Int32.logand word raw_bit <> 0l in
      let n = Int32.to_int (Int32.logand word (Int32.lognot raw_bit)) in
      if n < 0 || n > t.max_frame then
        fail "inbound frame of %d bytes exceeds limit %d" n t.max_frame;
      if buffered t < 4 + n then None
      else begin
        let payload = Bytes.sub_string t.buf (t.pos + 4) n in
        t.pos <- t.pos + 4 + n;
        if buffered t = 0 then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Some ((if raw then Raw else Text), payload)
      end
    end
end
