(* Tests for the wire protocol (codecs + framing) and the TCP
   server/client: round-trips of every message kind, oversized-frame and
   unknown-version rejection, and an end-to-end loopback run where two
   clients' entangled queries coordinate and both receive pushed
   notifications. *)

open Relational

let check = Alcotest.check
let string_t = Alcotest.string
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- codec round-trips ---------------- *)

(* a notification exercising every escaping hazard: separators, percent,
   newlines, and non-ASCII bytes in owners, labels, and answer tuples *)
let nasty_notification : Core.Events.notification =
  {
    Core.Events.query_id = 42;
    owner = "jerry|kramer%0A;weird,owner\nwith newline";
    label = "SELECT 'x|y' INTO ANSWER R WHERE a = 'b;c,d%'";
    group = [ 42; 7; 9001 ];
    answers =
      [
        "Reservation|odd", [| Value.Str "K|J;%,\n"; Value.Int (-3) |];
        "Héllo", [| Value.Null; Value.Float 2.5; Value.Bool true |];
        "Empty", [||];
      ];
  }

let notification_eq (a : Core.Events.notification) (b : Core.Events.notification) =
  a.Core.Events.query_id = b.Core.Events.query_id
  && a.Core.Events.owner = b.Core.Events.owner
  && a.Core.Events.label = b.Core.Events.label
  && a.Core.Events.group = b.Core.Events.group
  && List.length a.Core.Events.answers = List.length b.Core.Events.answers
  && List.for_all2
       (fun (r1, t1) (r2, t2) -> r1 = r2 && Tuple.equal t1 t2)
       a.Core.Events.answers b.Core.Events.answers

let test_notification_roundtrip () =
  let encoded = Net.Wire.encode_notification nasty_notification in
  let decoded = Net.Wire.decode_notification encoded in
  check bool "notification round-trips" true
    (notification_eq nasty_notification decoded)

let requests : (string * Net.Wire.request) list =
  [
    "hello", Net.Wire.Hello { version = 1; user = "jer|ry%;,\nname" };
    ( "submit",
      Net.Wire.Submit
        { id = 7; sql = "SELECT 'a|b' FROM t WHERE x = '%7C;\n,'" } );
    "cancel", Net.Wire.Cancel { id = 8; query_id = 123 };
    "admin", Net.Wire.Admin { id = 9; what = "server" };
    "ping", Net.Wire.Ping { id = 10; payload = "p|a%y;l,oad" };
    "bye", Net.Wire.Bye;
  ]

let test_request_roundtrip () =
  List.iter
    (fun (name, r) ->
      let encoded = Net.Wire.encode_request r in
      check string_t name encoded
        (Net.Wire.encode_request (Net.Wire.decode_request encoded)))
    requests

let responses : (string * Net.Wire.response) list =
  [
    "welcome", Net.Wire.Welcome { version = 1; banner = "you|topia%" };
    "result-sql", Net.Wire.Result { id = 1; body = Net.Wire.Sql_result "3 row(s)\n1|2" };
    "result-reg", Net.Wire.Result { id = 2; body = Net.Wire.Registered 55 };
    ( "result-ans",
      Net.Wire.Result { id = 3; body = Net.Wire.Answered nasty_notification } );
    "result-rej", Net.Wire.Result { id = 4; body = Net.Wire.Rejected "unsafe: x|y" };
    "result-lst", Net.Wire.Result { id = 5; body = Net.Wire.Listing "Q1 Q2" };
    ( "result-multi",
      Net.Wire.Result
        {
          id = 6;
          body =
            Net.Wire.Multi
              [
                Net.Wire.Registered 1;
                Net.Wire.Answered nasty_notification;
                Net.Wire.Multi [ Net.Wire.Rejected "no"; Net.Wire.Sql_result "ok" ];
              ];
        } );
    "error", Net.Wire.Error { id = 7; message = "parse|error %0A" };
    "pong", Net.Wire.Pong { id = 8; payload = "echo" };
    "stats", Net.Wire.Stats { id = 9; body = "a=1\nb=2" };
    "push", Net.Wire.Push nasty_notification;
  ]

let test_response_roundtrip () =
  List.iter
    (fun (name, r) ->
      let encoded = Net.Wire.encode_response r in
      check string_t name encoded
        (Net.Wire.encode_response (Net.Wire.decode_response encoded)))
    responses

let test_decode_garbage_rejected () =
  List.iter
    (fun s ->
      match Net.Wire.decode_request s with
      | _ -> Alcotest.failf "should reject request %S" s
      | exception Net.Wire.Protocol_error _ -> ())
    [ ""; "NOPE"; "SUBMIT|x|y"; "HELLO|one|u"; "SUBMIT|1" ];
  List.iter
    (fun s ->
      match Net.Wire.decode_response s with
      | _ -> Alcotest.failf "should reject response %S" s
      | exception Net.Wire.Protocol_error _ -> ())
    [ ""; "YES|1"; "RESULT|1|WAT|x"; "PUSH|notanotification" ]

(* Inbound noise for the decoder: raw bytes, well-framed random
   payloads, and valid requests mutated or cut short, so the request
   decoder sees more than oversize headers. *)
let gen_inbound =
  let open QCheck.Gen in
  let valid =
    oneofl (List.map (fun (_, r) -> Net.Wire.encode_request r) requests)
  in
  let mutated =
    map3
      (fun s i c ->
        let b = Bytes.of_string s in
        if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c;
        Bytes.to_string b)
      valid nat char
  in
  let cut = map (fun s -> String.sub s 0 (String.length s / 2)) valid in
  let payload = oneof [ string_size (0 -- 48); valid; mutated; cut ] in
  let framed =
    map2 (fun raw p -> Bytes.to_string (Net.Wire.frame_bytes ~raw p)) bool payload
  in
  map (String.concat "") (list_size (1 -- 6) (oneof [ string_size (1 -- 12); framed ]))

(* What the server does with inbound bytes — decoder, then request
   decoding — ends in a frame, [None] or [Protocol_error], whatever the
   bytes and however they split: nothing else escapes to the event loop
   that serves every connection. *)
let prop_inbound_total =
  QCheck.Test.make ~count:2000 ~name:"inbound bytes: frame, None or Protocol_error"
    (QCheck.make
       ~print:(fun (s, k) -> Printf.sprintf "%S split at %d" s k)
       QCheck.Gen.(pair gen_inbound nat))
    (fun (input, split) ->
      let dec = Net.Wire.Decoder.create ~max_frame:256 () in
      let bytes = Bytes.of_string input in
      let half = if input = "" then 0 else split mod String.length input in
      let rec drain () =
        match Net.Wire.Decoder.next dec with
        | None -> ()
        | Some (_, payload) ->
          (try ignore (Net.Wire.decode_request payload)
           with Net.Wire.Protocol_error _ -> ());
          drain ()
      in
      match
        Net.Wire.Decoder.feed dec bytes 0 half;
        drain ();
        Net.Wire.Decoder.feed dec bytes half (Bytes.length bytes - half);
        drain ()
      with
      | () -> true
      | exception Net.Wire.Protocol_error _ -> true)

(* ---------------- framing ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = "hello frame \x00 with nul and \xff bytes" in
      Net.Wire.write_frame a payload;
      check string_t "payload" payload (Net.Wire.read_frame b);
      Net.Wire.write_frame a "";
      check string_t "empty payload" "" (Net.Wire.read_frame b))

let test_oversized_frame_rejected_on_read () =
  with_socketpair (fun a b ->
      Net.Wire.write_frame a (String.make 100 'x');
      match Net.Wire.read_frame ~max_frame:50 b with
      | _ -> Alcotest.fail "oversized frame must be rejected"
      | exception Net.Wire.Protocol_error _ -> ())

let test_oversized_frame_rejected_on_write () =
  with_socketpair (fun a _b ->
      match Net.Wire.write_frame ~max_frame:10 a (String.make 11 'x') with
      | _ -> Alcotest.fail "oversized write must be rejected"
      | exception Net.Wire.Protocol_error _ -> ())

let test_eof_is_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Net.Wire.read_frame b with
      | _ -> Alcotest.fail "EOF must raise Closed"
      | exception Net.Wire.Closed -> ())

(* ---------------- server ---------------- *)

let with_server ?(config = { Net.Server.default_config with Net.Server.port = 0 })
    f =
  let sys = Travel.Datagen.make_system ~seed:1 ~n_flights:8 ~n_hotels:2 () in
  let server = Net.Server.start ~config sys in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop server)
    (fun () -> f server (Net.Server.port server))

let test_unknown_version_rejected () =
  with_server (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
          Net.Wire.write_frame fd
            (Net.Wire.encode_request
               (Net.Wire.Hello { version = 99; user = "time-traveller" }));
          match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Error { id = 0; message } ->
            check bool "mentions version" true
              (String.length message > 0
              && Astring.String.is_infix ~affix:"version" message)
          | _ -> Alcotest.fail "expected an ERROR frame"))

let test_non_hello_first_frame_rejected () =
  with_server (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
          Net.Wire.write_frame fd
            (Net.Wire.encode_request (Net.Wire.Ping { id = 1; payload = "hi" }));
          match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Error { id = 0; _ } -> ()
          | _ -> Alcotest.fail "expected an ERROR frame"))

let test_plain_sql_over_wire () =
  with_server (fun _server port ->
      let c = Net.Client.connect ~port ~user:"sql" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          (match Net.Client.submit c "CREATE TABLE Notes (id INT, txt TEXT)" with
          | Net.Wire.Sql_result _ -> ()
          | _ -> Alcotest.fail "create should be a SQL result");
          (match Net.Client.submit c "INSERT INTO Notes VALUES (1, 'a|b%;')" with
          | Net.Wire.Sql_result _ -> ()
          | _ -> Alcotest.fail "insert should be a SQL result");
          (match Net.Client.submit c "SELECT txt FROM Notes WHERE id = 1" with
          | Net.Wire.Sql_result s ->
            check bool "escaped text survives" true
              (Astring.String.is_infix ~affix:"a|b%;" s)
          | _ -> Alcotest.fail "select should be a SQL result");
          (* SQL errors come back as Server_error, connection stays usable *)
          (match Net.Client.submit c "SELECT nope FROM Missing" with
          | _ -> Alcotest.fail "bad SQL must error"
          | exception Net.Client.Server_error _ -> ());
          check string_t "ping after error" "still-here"
            (Net.Client.ping ~payload:"still-here" c)))

(* shared across both connection models *)
let e2e_coordination server port =
      let alice = Net.Client.connect ~port ~user:"alice" () in
      let bob = Net.Client.connect ~port ~user:"bob" () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close alice;
          Net.Client.close bob)
        (fun () ->
          (* alice's half parks *)
          let qid =
            match
              Net.Client.submit alice
                (Travel.Workload.pair_sql ~user:"alice" ~friend:"bob"
                   ~dest:"Paris")
            with
            | Net.Wire.Registered id -> id
            | _ -> Alcotest.fail "alice should be registered"
          in
          check bool "no answer yet" true
            (Net.Client.poll_notifications alice = []);
          (* bob's half closes the group *)
          (match
             Net.Client.submit bob
               (Travel.Workload.pair_sql ~user:"bob" ~friend:"alice"
                  ~dest:"Paris")
           with
          | Net.Wire.Answered n ->
            check bool "bob in his own group" true
              (List.mem qid n.Core.Events.group)
          | _ -> Alcotest.fail "bob should be answered immediately");
          (* both clients receive their PUSHed notification, no polling of
             the database — this is the demo's Facebook-message moment *)
          (match Net.Client.wait_notification ~timeout:5. alice with
          | Some n ->
            check string_t "alice's push is hers" "alice" n.Core.Events.owner;
            check int "alice's own query id" qid n.Core.Events.query_id;
            check int "group of two" 2 (List.length n.Core.Events.group)
          | None -> Alcotest.fail "alice never got her push");
          (match Net.Client.wait_notification ~timeout:5. bob with
          | Some n -> check string_t "bob's push is his" "bob" n.Core.Events.owner
          | None -> Alcotest.fail "bob never got his push");
          (* server counters saw it all *)
          let s = Net.Server_stats.snapshot (Net.Server.stats server) in
          check int "two active connections" 2 s.Net.Server_stats.connections_active;
          check int "two submits" 2 s.Net.Server_stats.submits;
          check int "two pushes" 2 s.Net.Server_stats.pushes;
          check bool "bytes flowed" true
            (s.Net.Server_stats.bytes_in > 0 && s.Net.Server_stats.bytes_out > 0))

let test_e2e_coordination_with_push () = with_server e2e_coordination

let test_cancel_over_wire () =
  with_server (fun _server port ->
      let c = Net.Client.connect ~port ~user:"carol" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          let qid =
            match
              Net.Client.submit c
                (Travel.Workload.pair_sql ~user:"carol" ~friend:"ghost"
                   ~dest:"Paris")
            with
            | Net.Wire.Registered id -> id
            | _ -> Alcotest.fail "carol should be registered"
          in
          check bool "cancel acknowledges" true
            (Astring.String.is_infix ~affix:"cancelled"
               (Net.Client.cancel c qid));
          (* second cancel: the id is no longer pending *)
          match Net.Client.cancel c qid with
          | _ -> Alcotest.fail "double cancel must error"
          | exception Net.Client.Server_error _ -> ()))

let test_admin_probes () =
  with_server (fun _server port ->
      let c = Net.Client.connect ~port ~user:"admin" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          check bool "server counters" true
            (Astring.String.is_infix ~affix:"connections_total="
               (Net.Client.admin c "server"));
          check bool "tables dump mentions Flights" true
            (Astring.String.is_infix ~affix:"Flights" (Net.Client.admin c "tables"));
          check bool "stats dump" true (String.length (Net.Client.admin c "stats") > 0);
          match Net.Client.admin c "no-such-probe" with
          | _ -> Alcotest.fail "unknown probe must error"
          | exception Net.Client.Server_error _ -> ()))

let test_server_rejects_oversized_frame () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; max_frame = 256 }
  in
  with_server ~config (fun _server port ->
      let c = Net.Client.connect ~port ~user:"bulk" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          let big = "SELECT '" ^ String.make 1000 'x' ^ "' FROM Flights" in
          match Net.Client.submit c big with
          | _ -> Alcotest.fail "server must reject the oversized frame"
          | exception (Net.Client.Server_error _ | Net.Wire.Closed) -> ()))

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let test_malformed_escape_handled () =
  with_server (fun _server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          Net.Wire.write_frame fd
            (Net.Wire.encode_request
               (Net.Wire.Hello
                  { version = Net.Wire.protocol_version; user = "mallory" }));
          (match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Welcome _ -> ()
          | _ -> Alcotest.fail "expected WELCOME");
          (* a raw frame with a malformed percent-escape: unescape is total
             (the literal "%zz" survives), SQL parsing fails, and the reader
             thread must survive to answer the next request rather than die
             and leak the connection *)
          Net.Wire.write_frame fd "SUBMIT|1|%zz";
          (match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Error { id = 1; _ } -> ()
          | _ -> Alcotest.fail "expected an ERROR for request 1");
          Net.Wire.write_frame fd
            (Net.Wire.encode_request (Net.Wire.Ping { id = 2; payload = "alive" }));
          match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Pong { id = 2; payload } ->
            check string_t "reader survived" "alive" payload
          | _ -> Alcotest.fail "expected PONG"))

let test_slow_consumer_dropped () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; max_outq = 4 }
  in
  with_server ~config (fun _server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          Net.Wire.write_frame fd
            (Net.Wire.encode_request
               (Net.Wire.Hello
                  { version = Net.Wire.protocol_version; user = "sloth" }));
          (match Net.Wire.decode_response (Net.Wire.read_frame fd) with
          | Net.Wire.Welcome _ -> ()
          | _ -> Alcotest.fail "expected WELCOME");
          (* fat pings, never reading the pongs: the server's writer blocks
             once the socket buffers fill, the outbound queue passes
             max_outq, and the connection must be dropped instead of
             buffering without bound *)
          let payload = String.make (256 * 1024) 'p' in
          let dropped = ref false in
          (try
             for i = 1 to 64 do
               Net.Wire.write_frame fd
                 (Net.Wire.encode_request (Net.Wire.Ping { id = i; payload }))
             done
           with Net.Wire.Closed | Unix.Unix_error _ -> dropped := true);
          if not !dropped then begin
            (* every write fit in kernel buffers; the drop shows up as
               EOF/reset once we drain what the writer sent before dying *)
            try
              while true do
                ignore (Net.Wire.read_frame fd)
              done
            with Net.Wire.Closed | Unix.Unix_error _ -> dropped := true
          end;
          check bool "slow consumer dropped" true !dropped);
      (* the server is still healthy for other clients *)
      let c = Net.Client.connect ~port ~user:"fresh" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () -> check string_t "server alive" "ok" (Net.Client.ping ~payload:"ok" c)))

(* ---------------- write batching ---------------- *)

(* Concurrent writers against the batch executor: every insert lands,
   every write request is accounted to a batch, and the admin probe
   exposes the pipeline counters. *)
let test_batched_writes_e2e () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; max_batch = 16 }
  in
  with_server ~config (fun server port ->
      let c0 = Net.Client.connect ~port ~user:"ddl" () in
      (match Net.Client.submit c0 "CREATE TABLE Log (id INT, who TEXT)" with
      | Net.Wire.Sql_result _ -> ()
      | _ -> Alcotest.fail "create should be a SQL result");
      let n_clients = 4 and per_client = 8 in
      let worker w =
        let c = Net.Client.connect ~port ~user:(Printf.sprintf "w%d" w) () in
        Fun.protect
          ~finally:(fun () -> Net.Client.close c)
          (fun () ->
            for i = 0 to per_client - 1 do
              match
                Net.Client.submit c
                  (Printf.sprintf "INSERT INTO Log VALUES (%d, 'w%d')"
                     ((w * 100) + i) w)
              with
              | Net.Wire.Sql_result _ -> ()
              | _ -> Alcotest.fail "insert should be a SQL result"
            done)
      in
      let ts = List.init n_clients (fun w -> Thread.create worker w) in
      List.iter Thread.join ts;
      Fun.protect
        ~finally:(fun () -> Net.Client.close c0)
        (fun () ->
          (match Net.Client.submit c0 "SELECT COUNT(*) FROM Log" with
          | Net.Wire.Sql_result s ->
            check bool "all concurrent inserts landed" true
              (Astring.String.is_infix
                 ~affix:(string_of_int (n_clients * per_client))
                 s)
          | _ -> Alcotest.fail "count should be a SQL result");
          let s = Net.Server_stats.snapshot (Net.Server.stats server) in
          check bool "the loop executed batches" true
            (s.Net.Server_stats.batches >= 1);
          check int "every write went through a batch"
            ((n_clients * per_client) + 1)
            s.Net.Server_stats.batched_requests;
          check bool "mean batch size sane" true
            (s.Net.Server_stats.batch_size_mean >= 1.);
          check bool "the loop iterated" true
            (s.Net.Server_stats.loop_iterations > 0);
          let admin = Net.Client.admin c0 "server" in
          List.iter
            (fun key ->
              check bool ("admin exposes " ^ key) true
                (Astring.String.is_infix ~affix:(key ^ "=") admin))
            [
              "batches";
              "batched_requests";
              "batch_size_mean";
              "batch_size_hist";
              "wal_flushes";
              "wal_fsyncs";
              "submit_latency_p50_us";
              "submit_latency_p99_us";
            ]))

(* Frames a raw client sends in one [write]: on loopback they arrive in
   one segment, so the server decodes them in one read. *)
let send_frames fd payloads =
  let buf = Buffer.create 256 in
  List.iter
    (fun p -> Buffer.add_bytes buf (Net.Wire.frame_bytes p))
    payloads;
  let b = Buffer.to_bytes buf in
  let n = Unix.write fd b 0 (Bytes.length b) in
  if n <> Bytes.length b then Alcotest.fail "short write"

let submit_frame id sql = Net.Wire.encode_request (Net.Wire.Submit { id; sql })

let read_response fd = Net.Wire.decode_response (Net.Wire.read_frame fd)

(* with_server plus a handshaken raw socket *)
let with_raw_client ?config user f =
  with_server ?config (fun server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          Net.Wire.write_frame fd
            (Net.Wire.encode_request (Net.Wire.Hello { version = 1; user }));
          (match read_response fd with
          | Net.Wire.Welcome _ -> ()
          | _ -> Alcotest.fail "expected WELCOME");
          f server fd))

(* A write that fails inside a batch (missing table) must error alone:
   good / bad / good writes sent in one [send] on one connection share
   one batch, the good ones commit, and the connection stays usable. *)
let test_batch_error_isolation () =
  with_raw_client "iso" (fun server fd ->
      send_frames fd [ submit_frame 1 "CREATE TABLE Ok (id INT)" ];
      (match read_response fd with
      | Net.Wire.Result { id = 1; _ } -> ()
      | _ -> Alcotest.fail "create should succeed");
      let before = Net.Server_stats.snapshot (Net.Server.stats server) in
      send_frames fd
        [
          submit_frame 2 "INSERT INTO Ok VALUES (1)";
          submit_frame 3 "INSERT INTO Missing VALUES (1)";
          submit_frame 4 "INSERT INTO Ok VALUES (2)";
        ];
      (match read_response fd with
      | Net.Wire.Result { id = 2; _ } -> ()
      | _ -> Alcotest.fail "first good write poisoned by its batchmate");
      (match read_response fd with
      | Net.Wire.Error { id = 3; _ } -> ()
      | _ -> Alcotest.fail "write to a missing table must error");
      (match read_response fd with
      | Net.Wire.Result { id = 4; _ } -> ()
      | _ -> Alcotest.fail "second good write poisoned by its batchmate");
      let after = Net.Server_stats.snapshot (Net.Server.stats server) in
      check int "one batch"
        1 (after.Net.Server_stats.batches - before.Net.Server_stats.batches);
      check int "three requests in it" 3
        (after.Net.Server_stats.batched_requests
        - before.Net.Server_stats.batched_requests);
      send_frames fd [ submit_frame 5 "SELECT COUNT(*) FROM Ok" ];
      match read_response fd with
      | Net.Wire.Result { id = 5; body = Net.Wire.Sql_result s } ->
        check bool "both good rows committed" true
          (Astring.String.is_infix ~affix:"(2)" s)
      | _ -> Alcotest.fail "count should be a SQL result")

(* Program order per connection: a read sent right behind a write on the
   same connection runs after it (it sees the row) and answers after it.
   Each INSERT / SELECT COUNT( * ) pair goes out in one [send], all pairs
   back to back without waiting. *)
let test_program_order () =
  with_raw_client "order" (fun _server fd ->
      send_frames fd [ submit_frame 1 "CREATE TABLE Seq (id INT)" ];
      (match read_response fd with
      | Net.Wire.Result { id = 1; _ } -> ()
      | _ -> Alcotest.fail "create should succeed");
      let n = 50 in
      for k = 1 to n do
        send_frames fd
          [
            submit_frame (2 * k)
              (Printf.sprintf "INSERT INTO Seq VALUES (%d)" k);
            submit_frame ((2 * k) + 1) "SELECT COUNT(*) FROM Seq";
          ]
      done;
      for k = 1 to n do
        (match read_response fd with
        | Net.Wire.Result { id; _ } when id = 2 * k -> ()
        | _ -> Alcotest.failf "pair %d: INSERT result out of order" k);
        match read_response fd with
        | Net.Wire.Result { id; body = Net.Wire.Sql_result s }
          when id = (2 * k) + 1 ->
          if not (Astring.String.is_infix ~affix:(Printf.sprintf "(%d)" k) s)
          then Alcotest.failf "pair %d: count missed its write: %s" k s
        | _ -> Alcotest.failf "pair %d: SELECT result out of order" k
      done)

(* Plain DML over the wire now pokes the coordinator (once per batch): a
   parked pair over a flightless destination is fulfilled the moment an
   INSERT creates the flight — both clients get their push with no further
   submissions. *)
let test_wire_dml_triggers_poke () =
  with_server (fun _server port ->
      let alice = Net.Client.connect ~port ~user:"alice" () in
      let bob = Net.Client.connect ~port ~user:"bob" () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close alice;
          Net.Client.close bob)
        (fun () ->
          let parked c user friend =
            match
              Net.Client.submit c
                (Travel.Workload.pair_sql ~user ~friend ~dest:"Nowhere")
            with
            | Net.Wire.Registered _ -> ()
            | _ -> Alcotest.fail (user ^ " should park: no flight to Nowhere")
          in
          parked alice "alice" "bob";
          parked bob "bob" "alice";
          check bool "nothing to push yet" true
            (Net.Client.poll_notifications alice = []);
          (* the flight appears via ordinary SQL; the per-batch poke must
             re-evaluate the parked pair *)
          (match
             Net.Client.submit alice
               "INSERT INTO Flights VALUES (999, 'Lima', 'Nowhere', 3, 100.0, \
                4)"
           with
          | Net.Wire.Sql_result _ -> ()
          | _ -> Alcotest.fail "insert should be a SQL result");
          (match Net.Client.wait_notification ~timeout:5. alice with
          | Some n ->
            check string_t "alice fulfilled by wire DML" "alice"
              n.Core.Events.owner
          | None -> Alcotest.fail "alice never got her push");
          match Net.Client.wait_notification ~timeout:5. bob with
          | Some n ->
            check string_t "bob fulfilled by wire DML" "bob" n.Core.Events.owner
          | None -> Alcotest.fail "bob never got his push"))

(* The per-request baseline ([max_batch = 1]) keeps the same observable
   behaviour: writes commit and wire DML still pokes. *)
let test_unbatched_path_equivalent () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; max_batch = 1 }
  in
  with_server ~config (fun server port ->
      let alice = Net.Client.connect ~port ~user:"alice" () in
      let bob = Net.Client.connect ~port ~user:"bob" () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close alice;
          Net.Client.close bob)
        (fun () ->
          (match
             Net.Client.submit alice
               (Travel.Workload.pair_sql ~user:"alice" ~friend:"bob"
                  ~dest:"Nowhere")
           with
          | Net.Wire.Registered _ -> ()
          | _ -> Alcotest.fail "alice should park");
          (match
             Net.Client.submit bob
               (Travel.Workload.pair_sql ~user:"bob" ~friend:"alice"
                  ~dest:"Nowhere")
           with
          | Net.Wire.Registered _ -> ()
          | _ -> Alcotest.fail "bob should park");
          (match
             Net.Client.submit bob
               "INSERT INTO Flights VALUES (998, 'Lima', 'Nowhere', 3, 90.0, 2)"
           with
          | Net.Wire.Sql_result _ -> ()
          | _ -> Alcotest.fail "insert should be a SQL result");
          (match Net.Client.wait_notification ~timeout:5. alice with
          | Some _ -> ()
          | None -> Alcotest.fail "alice never got her push (unbatched)");
          let s = Net.Server_stats.snapshot (Net.Server.stats server) in
          check int "every batch held one request" s.Net.Server_stats.batches
            s.Net.Server_stats.batched_requests))

let test_poll_partial_frame_nonblocking () =
  (* hand-rolled server: handshake, then dribble a PUSH frame in two
     halves; poll_notifications must buffer the half and return instead of
     blocking mid-frame *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
      Unix.listen lfd 1;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let push =
        Net.Wire.encode_response
          (Net.Wire.Push
             {
               Core.Events.query_id = 1;
               owner = "u";
               label = "l";
               group = [ 1 ];
               answers = [];
             })
      in
      let n = String.length push in
      let frame = Bytes.create (4 + n) in
      Bytes.set_int32_be frame 0 (Int32.of_int n);
      Bytes.blit_string push 0 frame 4 n;
      let server_side = ref None in
      let srv =
        Thread.create
          (fun () ->
            let fd, _ = Unix.accept lfd in
            ignore (Net.Wire.read_frame fd);
            Net.Wire.write_frame fd
              (Net.Wire.encode_response
                 (Net.Wire.Welcome
                    { version = Net.Wire.protocol_version; banner = "fake" }));
            server_side := Some fd)
          ()
      in
      let c = Net.Client.connect ~port ~user:"u" () in
      Thread.join srv;
      let fd = match !server_side with Some fd -> fd | None -> assert false in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close c;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let half = (4 + n) / 2 in
          let seen = ref 0 in
          let drain () =
            seen := !seen + List.length (Net.Client.poll_notifications c)
          in
          ignore (Unix.write fd frame 0 half);
          Test_util.assert_quiet "half a frame yields nothing" (fun () ->
              drain ();
              !seen = 0);
          ignore (Unix.write fd frame half (4 + n - half));
          Test_util.wait_until "completed frame delivered" (fun () ->
              drain ();
              !seen >= 1);
          check int "exactly one notification" 1 !seen))

(* ---------------- incremental decoder ---------------- *)

(* a mixed stream of text and raw frames, reassembled identically no
   matter where the byte stream is split *)
let decoder_frames =
  [
    (Net.Wire.Text, "SUBMIT|1|hello");
    (Net.Wire.Raw, "RESULT|9\nraw \x00 body | with % bytes");
    (Net.Wire.Text, "");
    (Net.Wire.Raw, String.make 300 '\xab');
    (Net.Wire.Text, "PING|2|done");
  ]

let decoder_stream =
  String.concat ""
    (List.map
       (fun (k, p) ->
         Bytes.to_string (Net.Wire.frame_bytes ~raw:(k = Net.Wire.Raw) p))
       decoder_frames)

let rec decoder_collect dec acc =
  match Net.Wire.Decoder.next dec with
  | Some f -> decoder_collect dec (f :: acc)
  | None -> List.rev acc

let test_decoder_every_split () =
  let len = String.length decoder_stream in
  for split = 0 to len do
    let dec = Net.Wire.Decoder.create () in
    Net.Wire.Decoder.feed_string dec (String.sub decoder_stream 0 split);
    let early = decoder_collect dec [] in
    check bool
      (Printf.sprintf "no phantom frames at split %d" split)
      true
      (List.length early <= List.length decoder_frames);
    Net.Wire.Decoder.feed_string dec
      (String.sub decoder_stream split (len - split));
    let got = early @ decoder_collect dec [] in
    check bool (Printf.sprintf "all frames at split %d" split) true
      (got = decoder_frames)
  done;
  (* byte-at-a-time: the pathological split everywhere at once *)
  let dec = Net.Wire.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Net.Wire.Decoder.feed_string dec (String.make 1 c);
      got := !got @ decoder_collect dec [])
    decoder_stream;
  check bool "byte-at-a-time reassembly" true (!got = decoder_frames);
  check int "nothing left over" 0 (Net.Wire.Decoder.buffered dec)

let test_decoder_oversize_rejected () =
  (* the limit fires on the header alone — no need to ship the payload *)
  let dec = Net.Wire.Decoder.create ~max_frame:50 () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  Net.Wire.Decoder.feed dec hdr 0 4;
  match Net.Wire.Decoder.next dec with
  | _ -> Alcotest.fail "oversized frame must be rejected"
  | exception Net.Wire.Protocol_error _ -> ()

(* ---------------- raw-bytes codec ---------------- *)

let test_raw_codec_roundtrip () =
  let big =
    String.make (Net.Wire.raw_result_threshold + 5) 'x' ^ "|%;\n\x00tail"
  in
  List.iter
    (fun (name, r) ->
      match Net.Wire.encode_response_raw r with
      | None -> Alcotest.failf "%s should have a raw form" name
      | Some p ->
        check bool (name ^ " round-trips") true
          (Net.Wire.decode_response_raw p = r))
    [
      ( "wal",
        Net.Wire.Wal_recs
          {
            lsn = 7;
            sent_at_us = 123456;
            last = true;
            records = "INSERT|t|1|a%7C;\nCOMMIT|7";
          } );
      ( "snap",
        Net.Wire.Snapshot_chunk
          { lsn = 9; seq = 2; last = false; data = "line1\nline2|%" } );
      "result", Net.Wire.Result { id = 3; body = Net.Wire.Sql_result big };
    ];
  List.iter
    (fun (name, r) ->
      check bool (name ^ " stays text") true
        (Net.Wire.encode_response_raw r = None))
    [
      "small-result", Net.Wire.Result { id = 1; body = Net.Wire.Sql_result "small" };
      "push", Net.Wire.Push nasty_notification;
      "error", Net.Wire.Error { id = 1; message = "m" };
    ]

(* ---------------- raw negotiation e2e ---------------- *)

let raw_hello ?(version = Net.Wire.protocol_version) fd user =
  Net.Wire.write_frame fd
    (Net.Wire.encode_request (Net.Wire.Hello { version; user }));
  match Net.Wire.decode_response_kind (Net.Wire.read_frame_kind fd) with
  | Net.Wire.Welcome { version = v; _ } -> v
  | _ -> Alcotest.fail "expected WELCOME"

let raw_submit fd id sql =
  Net.Wire.write_frame fd (Net.Wire.encode_request (Net.Wire.Submit { id; sql }))

let test_hello_v2_raw_result () =
  with_server (fun _server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          check int "negotiated v2" 2 (raw_hello fd "rawr");
          let expect_text_result id =
            match Net.Wire.decode_response_kind (Net.Wire.read_frame_kind fd) with
            | Net.Wire.Result { id = id'; _ } when id' = id -> ()
            | _ -> Alcotest.fail "expected RESULT"
          in
          raw_submit fd 1 "CREATE TABLE Big (t TEXT)";
          expect_text_result 1;
          let big = String.make 6000 'x' in
          raw_submit fd 2 (Printf.sprintf "INSERT INTO Big VALUES ('%s')" big);
          expect_text_result 2;
          raw_submit fd 3 "SELECT t FROM Big";
          match Net.Wire.read_frame_kind fd with
          | Net.Wire.Raw, payload -> (
            match Net.Wire.decode_response_kind (Net.Wire.Raw, payload) with
            | Net.Wire.Result { id = 3; body = Net.Wire.Sql_result s } ->
              check bool "raw payload intact" true
                (Astring.String.is_infix ~affix:big s)
            | _ -> Alcotest.fail "raw frame should decode to the SELECT result")
          | Net.Wire.Text, _ ->
            Alcotest.fail "big result should ride the raw path"))

let test_hello_v1_text_fallback () =
  with_server (fun _server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          check int "negotiated v1" 1 (raw_hello ~version:1 fd "legacy");
          let submit_expect id sql =
            raw_submit fd id sql;
            (* read_frame rejects raw frames, so a successful read proves
               everything fell back to text on this v1 connection *)
            match Net.Wire.decode_response (Net.Wire.read_frame fd) with
            | Net.Wire.Result { id = id'; body } when id' = id -> body
            | _ -> Alcotest.fail "expected RESULT"
          in
          ignore (submit_expect 1 "CREATE TABLE Big (t TEXT)");
          let big = String.make 6000 'y' in
          ignore
            (submit_expect 2 (Printf.sprintf "INSERT INTO Big VALUES ('%s')" big));
          match submit_expect 3 "SELECT t FROM Big" with
          | Net.Wire.Sql_result s ->
            check bool "text payload intact" true
              (Astring.String.is_infix ~affix:big s)
          | _ -> Alcotest.fail "expected a SQL result"))

let test_client_raw_result () =
  with_server (fun _server port ->
      let c = Net.Client.connect ~port ~user:"bulk" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          ignore (Net.Client.submit c "CREATE TABLE Big (t TEXT)");
          let big = String.make 8000 'z' in
          ignore
            (Net.Client.submit c
               (Printf.sprintf "INSERT INTO Big VALUES ('%s')" big));
          match Net.Client.submit c "SELECT t FROM Big" with
          | Net.Wire.Sql_result s ->
            check bool "client decodes the raw result" true
              (Astring.String.is_infix ~affix:big s)
          | _ -> Alcotest.fail "expected a SQL result"))

(* ---------------- event core ---------------- *)

(* frames dribbled a byte at a time must reassemble across many poll
   iterations without starving other connections or mis-framing *)
let test_slow_loris_survives () =
  with_server (fun _server port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let dribble payload =
            let frame = Net.Wire.frame_bytes payload in
            for i = 0 to Bytes.length frame - 1 do
              ignore (Unix.write fd frame i 1);
              if i mod 5 = 0 then Thread.delay 0.001
            done
          in
          dribble
            (Net.Wire.encode_request
               (Net.Wire.Hello
                  { version = Net.Wire.protocol_version; user = "loris" }));
          (match Net.Wire.decode_response_kind (Net.Wire.read_frame_kind fd) with
          | Net.Wire.Welcome _ -> ()
          | _ -> Alcotest.fail "expected WELCOME");
          dribble
            (Net.Wire.encode_request (Net.Wire.Ping { id = 1; payload = "drip" }));
          match Net.Wire.decode_response_kind (Net.Wire.read_frame_kind fd) with
          | Net.Wire.Pong { id = 1; payload } ->
            check string_t "dribbled ping answered" "drip" payload
          | _ -> Alcotest.fail "expected PONG"))

(* The one readiness engine on a socketpair: one byte is waiting on [a]
   and nothing on [b], and both have send buffer room.  [Unix.select]
   over the same fds is the reference view. *)
let test_netpoll_engines_agree () =
  with_socketpair (fun a b ->
      ignore (Unix.write_substring b "!" 0 1);
      let fds = [| a; b |] in
      let both = Net.Netpoll.readable lor Net.Netpoll.writable in
      let events = [| both; both |] in
      let revents = [| 0; 0 |] in
      let n =
        Net.Netpoll.wait ~fds ~events ~revents ~nfds:2 ~timeout_ms:1000
      in
      check int "both fds ready" 2 n;
      let r, w, _ = Unix.select [ a; b ] [ a; b ] [] 1.0 in
      List.iteri
        (fun i fd ->
          let name = if i = 0 then "a" else "b" in
          check bool (name ^ " readable as select sees it") (List.mem fd r)
            (revents.(i) land Net.Netpoll.readable <> 0);
          check bool (name ^ " writable as select sees it") (List.mem fd w)
            (revents.(i) land Net.Netpoll.writable <> 0))
        [ a; b ];
      check bool "a readable" true (revents.(0) land Net.Netpoll.readable <> 0);
      check bool "b not readable" false
        (revents.(1) land Net.Netpoll.readable <> 0))

(* One thread owns a replica's engine: while the loop applies a batch (a
   0.3 s delay failpoint before the apply), a read sent to the replica
   waits for it and sees the applied INSERT — never a half-applied state. *)
let test_engine_section_excludes () =
  let wal_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_net_%d_%d.wal" (Unix.getpid ())
         (Random.bits ()))
  in
  let primary =
    Net.Server.start
      ~config:{ Net.Server.default_config with Net.Server.port = 0 }
      (Youtopia.System.create ~wal_path ())
  in
  let rsys = Youtopia.System.create () in
  let replica =
    Net.Server.start
      ~config:
        {
          Net.Server.default_config with
          Net.Server.port = 0;
          replica_of = Some ("127.0.0.1", Net.Server.port primary);
        }
      rsys
  in
  let w = Net.Client.connect ~port:(Net.Server.port primary) ~user:"w" () in
  let r = Net.Client.connect ~port:(Net.Server.port replica) ~user:"r" () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Net.Client.close r;
      Net.Client.close w;
      Net.Server.stop replica;
      Net.Server.stop primary;
      try Sys.remove wal_path with Sys_error _ -> ())
    (fun () ->
      ignore (Net.Client.submit w "CREATE TABLE Held (id INT)");
      Test_util.wait_until "the table reaches the replica" (fun () ->
          Catalog.find_opt (Youtopia.System.catalog rsys) "Held" <> None);
      Fault.arm ~one_shot:true "repl.replica.apply" (Fault.Delay 0.3);
      ignore (Net.Client.submit w "INSERT INTO Held VALUES (1)");
      (* the failpoint fires inside the apply: the replica's loop is in
         it *)
      Test_util.wait_until "the apply under way" (fun () ->
          Fault.fired "repl.replica.apply" = 1);
      (match Net.Client.submit r "SELECT COUNT(*) FROM Held" with
      | Net.Wire.Sql_result s ->
        if not (Astring.String.is_infix ~affix:"(1)" s) then
          Alcotest.failf "the read did not wait for the apply: %s" s
      | _ -> Alcotest.fail "count should be a SQL result"))

(* ---------------- idle deadlines ---------------- *)

let test_idle_exemption () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; read_timeout = 0.2 }
  in
  with_server ~config (fun server port ->
      let alice = Net.Client.connect ~port ~user:"alice" () in
      let idler = raw_connect port in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close alice;
          try Unix.close idler with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float idler Unix.SO_RCVTIMEO 10.;
          ignore (raw_hello idler "idler");
          (match
             Net.Client.submit alice
               (Travel.Workload.pair_sql ~user:"alice" ~friend:"bob"
                  ~dest:"Paris")
           with
          | Net.Wire.Registered _ -> ()
          | _ -> Alcotest.fail "alice should park");
          (* 2.5 read timeouts: several sweeps past alice's deadline *)
          Thread.delay 0.5;
          (* alice owns a parked pending query: exempt from the sweep *)
          check string_t "parked owner survives idling" "still"
            (Net.Client.ping ~payload:"still" alice);
          (* the idler was swept: an ERROR then EOF, or straight EOF *)
          let dead =
            match Net.Wire.read_frame_kind idler with
            | Net.Wire.Text, p -> (
              match Net.Wire.decode_response p with
              | Net.Wire.Error { message; _ } ->
                Astring.String.is_infix ~affix:"timeout" message
              | _ -> false)
            | _ -> false
            | exception (Net.Wire.Closed | Unix.Unix_error _) -> true
          in
          check bool "idler swept" true dead;
          let s = Net.Server_stats.snapshot (Net.Server.stats server) in
          check bool "idle timeout counted" true
            (s.Net.Server_stats.idle_timeouts >= 1)))

(* ---------------- failpoint seams ---------------- *)

let test_accept_failpoint () =
  with_server (fun _server port ->
      Fault.disarm_all ();
      Fault.arm "server.accept" (Fault.Error "refused");
      Fun.protect
        ~finally:(fun () -> Fault.disarm_all ())
        (fun () ->
          (match Net.Client.connect ~port ~user:"nope" () with
          | c ->
            Net.Client.close c;
            Alcotest.fail "armed accept failpoint should refuse the connection"
          | exception (Net.Wire.Closed | Unix.Unix_error _ | End_of_file) -> ());
          Fault.disarm "server.accept";
          let c = Net.Client.connect ~port ~user:"yes" () in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c)
            (fun () ->
              check string_t "post-disarm accept works" "ok"
                (Net.Client.ping ~payload:"ok" c))))

(* [max_conns] refuses at the door: with two connections held, a third
   is closed unanswered and counted; once one of the two closes, a new
   connection is admitted and served. *)
let test_max_conns_refusal () =
  let config =
    { Net.Server.default_config with Net.Server.port = 0; max_conns = 2 }
  in
  with_server ~config (fun server port ->
      let snap () = Net.Server_stats.snapshot (Net.Server.stats server) in
      let a = Net.Client.connect ~port ~user:"a" () in
      let b = Net.Client.connect ~port ~user:"b" () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close a;
          Net.Client.close b)
        (fun () ->
          let fd = raw_connect port in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          (match
             Net.Wire.write_frame fd
               (Net.Wire.encode_request
                  (Net.Wire.Hello
                     { version = Net.Wire.protocol_version; user = "c" }));
             Net.Wire.read_frame_kind fd
           with
          | _ -> Alcotest.fail "a third connection must be refused"
          | exception (Net.Wire.Closed | Unix.Unix_error _) -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          check int "refusal counted" 1 (snap ()).Net.Server_stats.conns_refused;
          Net.Client.close a;
          Test_util.wait_until "a's slot freed" (fun () ->
              (snap ()).Net.Server_stats.connections_active = 1);
          let c = Net.Client.connect ~port ~user:"c" () in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c)
            (fun () ->
              check string_t "admitted once a slot frees" "ok"
                (Net.Client.ping ~payload:"ok" c))))

(* Seeded noise, each blob on a fresh raw connection: after every blob a
   control client still gets its PONG and the live-connection count
   returns to its baseline. *)
let test_garbage_blobs_survive () =
  with_server (fun server port ->
      let active () =
        (Net.Server_stats.snapshot (Net.Server.stats server))
          .Net.Server_stats.connections_active
      in
      let control = Net.Client.connect ~port ~user:"control" () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close control)
        (fun () ->
          let baseline = active () in
          let rand = Random.State.make [| 27 |] in
          for i = 1 to 40 do
            let blob = QCheck.Gen.generate1 ~rand gen_inbound in
            let fd = raw_connect port in
            (try ignore (Unix.write_substring fd blob 0 (String.length blob))
             with Unix.Unix_error _ -> ());
            Unix.close fd;
            check string_t
              (Printf.sprintf "control answered after blob %d" i)
              "ok"
              (Net.Client.ping ~payload:"ok" control);
            Test_util.wait_until "live connections back to baseline" (fun () ->
                active () = baseline)
          done))

(* Stop wakes the loop at once: with idle connections open (one
   handshaken, one silent) it returns within 100 ms. *)
let test_stop_is_prompt () =
  let sys = Travel.Datagen.make_system ~seed:1 ~n_flights:8 ~n_hotels:2 () in
  let server =
    Net.Server.start
      ~config:{ Net.Server.default_config with Net.Server.port = 0 }
      sys
  in
  let port = Net.Server.port server in
  let c = Net.Client.connect ~port ~user:"idle" () in
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop server;
      Net.Client.close c;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      check string_t "served" "ok" (Net.Client.ping ~payload:"ok" c);
      let t0 = Unix.gettimeofday () in
      Net.Server.stop server;
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      if ms > 100. then Alcotest.failf "stop took %.0f ms" ms)

(* A fulfilled entangled statement's THEN effects mutate base tables, and
   the answer cascade does not follow those — the server must poke after
   the fulfilment so parked waiters see the mutation.  The lock-lease
   scenario is the canonical case: a sweep over the wire frees the lock
   with no plain DML anywhere in the workload, and the parked acquire must
   be granted. *)
let test_then_effect_fulfilment_pokes () =
  let sys = Scenarios.Locks.make_system ~n_locks:1 () in
  let config = { Net.Server.default_config with Net.Server.port = 0 } in
  let server = Net.Server.start ~config sys in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop server)
    (fun () ->
      let port = Net.Server.port server in
      let alice = Net.Client.connect ~port ~user:"alice" () in
      let bob = Net.Client.connect ~port ~user:"bob" () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close alice;
          Net.Client.close bob)
        (fun () ->
          (match
             Net.Client.submit alice
               (Scenarios.Locks.acquire_sql ~owner:"alice" ~name:"lock0"
                  ~token:1 ~expires:10)
           with
          | Net.Wire.Answered _ -> ()
          | _ -> Alcotest.fail "alice should be granted the free lock");
          (match
             Net.Client.submit bob
               (Scenarios.Locks.acquire_sql ~owner:"bob" ~name:"lock0"
                  ~token:2 ~expires:60)
           with
          | Net.Wire.Registered _ -> ()
          | _ -> Alcotest.fail "bob should park on the held lock");
          (* alice's lease expires; the sweep's THEN effects free the lock *)
          (match
             Net.Client.submit alice (Scenarios.Locks.sweep_sql ~now:20 ~limit:4)
           with
          | Net.Wire.Answered _ | Net.Wire.Multi _ -> ()
          | _ -> Alcotest.fail "sweep should reclaim alice's expired lease");
          match Net.Client.wait_notification ~timeout:5. bob with
          | Some n ->
            check string_t "bob inherits the lock" "bob" n.Core.Events.owner
          | None -> Alcotest.fail "bob never got his grant push"))

(* ---------------- the server binary ---------------- *)

(* [dune runtest] runs from _build/default/test with the binaries as
   dependencies; a direct run from the repository root finds them built. *)
let bin_exe name =
  List.find_opt Sys.file_exists
    [ "../bin/" ^ name ^ ".exe"; "_build/default/bin/" ^ name ^ ".exe" ]

let server_exe () = bin_exe "youtopia_server"

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false)

let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
      end
      else begin
        Thread.delay 0.05;
        go ()
      end
    | _, status -> Some status
  in
  go ()

(* SIGTERM with nobody left to read stdout: the farewell lines must not
   take the process down.  Once with stdout closed outright, once with it
   a pipe whose reader has gone (EPIPE). *)
let test_server_exits_without_stdout () =
  match server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let run ~name spawn =
      let port = free_port () in
      let pid, after_ready = spawn (string_of_int port) in
      (* listening: a connect succeeds *)
      let deadline = Unix.gettimeofday () +. 20. in
      let rec ready () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
          Unix.close fd;
          if Unix.gettimeofday () > deadline then
            Alcotest.failf "%s: server never listened" name;
          Thread.delay 0.05;
          ready ()
      in
      ready ();
      after_ready ();
      Unix.kill pid Sys.sigterm;
      match wait_exit pid ~timeout:20. with
      | Some (Unix.WEXITED 0) -> ()
      | Some (Unix.WEXITED n) -> Alcotest.failf "%s: exit %d" name n
      | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Alcotest.failf "%s: killed by signal %d" name n
      | None -> Alcotest.failf "%s: did not stop within 20 s" name
    in
    (* failpoint settings other tests left in the environment stay here *)
    let env =
      Array.of_list
        (List.filter
           (fun kv -> not (Astring.String.is_prefix ~affix:"YOUTOPIA_" kv))
           (Array.to_list (Unix.environment ())))
    in
    run ~name:"stdout closed" (fun port ->
        ( Unix.create_process_env "/bin/sh"
            [| "/bin/sh"; "-c"; "exec \"$0\" --port \"$1\" >&-"; exe; port |]
            env Unix.stdin Unix.stdout Unix.stderr,
          ignore ));
    run ~name:"stdout reader gone" (fun port ->
        let r, w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process_env exe [| exe; "--port"; port |] env Unix.stdin
            w Unix.stderr
        in
        Unix.close w;
        (pid, fun () -> Unix.close r))

(* ---------------- port range ---------------- *)

(* The socket layer keeps a port's low 16 bits: 70000 would bind or dial
   4464.  Listeners accept 0 (ephemeral); dial targets do not. *)
let test_port_range_library () =
  let sys = Youtopia.System.create () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let start config () = Net.Server.stop (Net.Server.start ~config sys) in
  let cfg = { Net.Server.default_config with Net.Server.port = 0 } in
  rejects "listen on 70000" (start { cfg with Net.Server.port = 70000 });
  rejects "listen on -1" (start { cfg with Net.Server.port = -1 });
  rejects "replica of :0"
    (start { cfg with Net.Server.replica_of = Some ("127.0.0.1", 0) });
  rejects "replica of :70000"
    (start { cfg with Net.Server.replica_of = Some ("127.0.0.1", 70000) });
  let connect ?replicas port () =
    Net.Client.close (Net.Client.connect ~port ?replicas ~user:"u" ())
  in
  rejects "connect to 70000" (connect 70000);
  rejects "connect to 0" (connect 0);
  with_server (fun _server port ->
      rejects "replica target 70000"
        (connect ~replicas:[ ("127.0.0.1", 70000) ] port);
      rejects "replica target 0" (connect ~replicas:[ ("127.0.0.1", 0) ] port);
      (* in range still works *)
      connect port ())

(* Both binaries refuse an out-of-range port with exit 2 before doing
   anything else. *)
let test_port_range_binaries () =
  match server_exe (), bin_exe "youtopia_client" with
  | None, _ | _, None -> Alcotest.skip ()
  | Some server, Some client ->
    let exits_2 name argv =
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () -> Unix.create_process argv.(0) argv null null null)
      in
      match wait_exit pid ~timeout:20. with
      | Some (Unix.WEXITED 2) -> ()
      | Some (Unix.WEXITED n) -> Alcotest.failf "%s: exit %d" name n
      | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Alcotest.failf "%s: killed by signal %d" name n
      | None -> Alcotest.failf "%s: still running after 20 s" name
    in
    exits_2 "server --port 70000" [| server; "--port"; "70000" |];
    exits_2 "server --replica-of :70000"
      [| server; "--port"; "0"; "--replica-of"; "127.0.0.1:70000" |];
    exits_2 "client --port 70000" [| client; "--port"; "70000"; "--user"; "u" |]

let suite =
  [
    Alcotest.test_case "notification round-trip" `Quick test_notification_roundtrip;
    Alcotest.test_case "request round-trips" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trips" `Quick test_response_roundtrip;
    Alcotest.test_case "garbage rejected" `Quick test_decode_garbage_rejected;
    QCheck_alcotest.to_alcotest prop_inbound_total;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "oversized frame rejected (read)" `Quick
      test_oversized_frame_rejected_on_read;
    Alcotest.test_case "oversized frame rejected (write)" `Quick
      test_oversized_frame_rejected_on_write;
    Alcotest.test_case "EOF raises Closed" `Quick test_eof_is_closed;
    Alcotest.test_case "unknown protocol version rejected" `Quick
      test_unknown_version_rejected;
    Alcotest.test_case "non-HELLO first frame rejected" `Quick
      test_non_hello_first_frame_rejected;
    Alcotest.test_case "plain SQL over the wire" `Quick test_plain_sql_over_wire;
    Alcotest.test_case "two clients coordinate; both pushed" `Quick
      test_e2e_coordination_with_push;
    Alcotest.test_case "cancel over the wire" `Quick test_cancel_over_wire;
    Alcotest.test_case "admin probes" `Quick test_admin_probes;
    Alcotest.test_case "server rejects oversized frame" `Quick
      test_server_rejects_oversized_frame;
    Alcotest.test_case "malformed escape survives" `Quick
      test_malformed_escape_handled;
    Alcotest.test_case "slow consumer dropped" `Quick test_slow_consumer_dropped;
    Alcotest.test_case "batched writes end-to-end" `Quick test_batched_writes_e2e;
    Alcotest.test_case "program order per connection" `Quick
      test_program_order;
    Alcotest.test_case "batch errors are isolated" `Quick
      test_batch_error_isolation;
    Alcotest.test_case "wire DML triggers per-batch poke" `Quick
      test_wire_dml_triggers_poke;
    Alcotest.test_case "wire THEN-effect fulfilment pokes waiters" `Quick
      test_then_effect_fulfilment_pokes;
    Alcotest.test_case "unbatched path equivalent" `Quick
      test_unbatched_path_equivalent;
    Alcotest.test_case "poll buffers partial frames" `Quick
      test_poll_partial_frame_nonblocking;
    Alcotest.test_case "decoder reassembles at every split" `Quick
      test_decoder_every_split;
    Alcotest.test_case "decoder rejects oversize early" `Quick
      test_decoder_oversize_rejected;
    Alcotest.test_case "raw codec round-trips" `Quick test_raw_codec_roundtrip;
    Alcotest.test_case "HELLO v2 gets raw results" `Quick
      test_hello_v2_raw_result;
    Alcotest.test_case "HELLO v1 falls back to text" `Quick
      test_hello_v1_text_fallback;
    Alcotest.test_case "client decodes raw results" `Quick
      test_client_raw_result;
    Alcotest.test_case "slow loris reassembled" `Quick test_slow_loris_survives;
    Alcotest.test_case "netpoll engines agree" `Quick test_netpoll_engines_agree;
    Alcotest.test_case "engine section excludes and counts the wait" `Quick
      test_engine_section_excludes;
    Alcotest.test_case "idle sweep spares parked owners (event)" `Quick
      test_idle_exemption;
    Alcotest.test_case "accept failpoint refuses" `Quick test_accept_failpoint;
    Alcotest.test_case "out-of-range ports rejected" `Quick
      test_port_range_library;
    Alcotest.test_case "server exits 0 without a stdout reader" `Quick
      test_server_exits_without_stdout;
    Alcotest.test_case "binaries exit 2 on out-of-range ports" `Quick
      test_port_range_binaries;
    Alcotest.test_case "max_conns refuses, then admits" `Quick
      test_max_conns_refusal;
    Alcotest.test_case "garbage blobs never take the loop down" `Quick
      test_garbage_blobs_survive;
    Alcotest.test_case "stop with idle connections is prompt" `Quick
      test_stop_is_prompt;
  ]
