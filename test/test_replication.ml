(* Replication: frame codecs, chunking, WAL-file catch-up extraction,
   and end-to-end loopback primary/replica pairs — snapshot bootstrap,
   live tailing with acked lag, write redirection, catch-up across a
   primary restart, and client-side read routing. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let await ?(timeout = 15.) what pred =
  Test_util.wait_until ~timeout ~interval:0.02 what pred

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_repl_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let rm_rf () =
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:rm_rf (fun () -> f (Filename.concat dir "primary.wal"))

(* ---------------- codecs ---------------- *)

let test_frames_roundtrip () =
  let reqs =
    [
      Net.Wire.Replica_hello { version = 1; replica_id = "r|1%;\n"; last_lsn = 42 };
      Net.Wire.Repl_ack { lsn = 7 };
    ]
  in
  List.iter
    (fun r ->
      check bool "request round-trips" true
        (Net.Wire.decode_request (Net.Wire.encode_request r) = r))
    reqs;
  let resps =
    [
      Net.Wire.Snapshot_chunk { lsn = 5; seq = 0; last = false; data = "a|b%\nc" };
      Net.Wire.Snapshot_chunk { lsn = 5; seq = 1; last = true; data = "" };
      Net.Wire.Wal_recs
        { lsn = 6; sent_at_us = 123456; last = true; records = "I|t|i1\nC|0" };
    ]
  in
  List.iter
    (fun r ->
      check bool "response round-trips" true
        (Net.Wire.decode_response (Net.Wire.encode_response r) = r))
    resps

let test_readonly_redirect_parse () =
  let msg = Net.Wire.readonly_redirect ~host:"10.0.0.7" ~port:7077 in
  (match Net.Wire.parse_readonly_redirect msg with
  | Some (h, p) ->
    check Alcotest.string "host" "10.0.0.7" h;
    check int "port" 7077 p
  | None -> Alcotest.fail "redirect must parse");
  check bool "other errors do not parse" true
    (Net.Wire.parse_readonly_redirect "no such table: Flights" = None)

let test_backoff_policy () =
  let p = Net.Backoff.default in
  check bool "delays grow" true
    (Net.Backoff.delay_for p ~attempt:1 < Net.Backoff.delay_for p ~attempt:3);
  check bool "delays are capped" true
    (Net.Backoff.delay_for p ~attempt:50 <= p.Net.Backoff.max_delay);
  for attempt = 1 to 8 do
    let d = Net.Backoff.jittered p ~attempt in
    check bool "jittered delay is never negative" true (d >= 0.);
    check bool "jittered delay near nominal" true
      (d <= Net.Backoff.delay_for p ~attempt *. (1. +. p.Net.Backoff.jitter) +. 1e-9)
  done;
  (* retry: transient failures then success *)
  let calls = ref 0 in
  let v =
    Net.Backoff.retry
      ~policy:{ p with Net.Backoff.base_delay = 0.001; max_delay = 0.002 }
      (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky" else "ok")
  in
  check Alcotest.string "retry returns the success" "ok" v;
  check int "two failures before success" 3 !calls

let test_batch_chunking_roundtrip () =
  (* a batch whose encoding spans several 256 KiB chunks *)
  let big = String.make 200_000 'x' in
  let records =
    [
      Wal.Insert ("T", [| Value.Int 1; Value.Str big |]);
      Wal.Insert ("T", [| Value.Int 2; Value.Str big |]);
      Wal.Insert ("T", [| Value.Int 3; Value.Str "plain" |]);
      Wal.Commit 9;
    ]
  in
  let frames = Net.Replication.frames_of_batch ~lsn:3 ~sent_at_us:1 records in
  check bool "chunked into several frames" true (List.length frames > 1);
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i frame ->
      match frame with
      | Net.Wire.Wal_recs { lsn; last; records = piece; _ } ->
        check int "all chunks carry the batch lsn" 3 lsn;
        check bool "last flag only on the final chunk" (i = List.length frames - 1)
          last;
        Buffer.add_string buf piece
      | _ -> Alcotest.fail "expected WREC frames")
    frames;
  let decoded = Net.Replication.decode_batch (Buffer.contents buf) in
  check bool "records survive chunking" true (decoded = records);
  (* every frame must clear the wire limit even after escaping *)
  List.iter
    (fun f ->
      check bool "frame under max" true
        (String.length (Net.Wire.encode_response f) < Net.Wire.default_max_frame))
    frames

let test_catchup_batches () =
  with_tmp_dir (fun path ->
      let wal = Wal.open_log path in
      for i = 1 to 5 do
        Wal.append_commit wal ~txn_id:i
          [ Wal.Insert ("T", [| Value.Int i |]) ]
      done;
      Wal.sync wal;
      let suffix = Net.Replication.catchup_batches ~wal_path:path ~after_lsn:2 in
      check int "batches past lsn 2" 3 (List.length suffix);
      check bool "oldest first with dense lsns" true
        (List.map fst suffix = [ 3; 4; 5 ]);
      (* a torn tail (half-written batch, no commit) is not shipped *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "I|T|i99\n";
      close_out oc;
      let suffix = Net.Replication.catchup_batches ~wal_path:path ~after_lsn:0 in
      check int "torn tail dropped" 5 (List.length suffix);
      Wal.close wal)

(* ---------------- loopback primary / replica ---------------- *)

let start_primary ?(port = 0) ~wal_path () =
  let sys =
    if Sys.file_exists wal_path then
      Youtopia.System.recover ~wal_path ~answer_relations:[] ()
    else Youtopia.System.create ~wal_path ()
  in
  let config = { Net.Server.default_config with Net.Server.port } in
  let server = Net.Server.start ~config sys in
  (sys, server, Net.Server.port server)

let start_replica ~primary_port () =
  let sys = Youtopia.System.create () in
  let config =
    {
      Net.Server.default_config with
      Net.Server.port = 0;
      replica_of = Some ("127.0.0.1", primary_port);
      replica_id = "test-replica";
    }
  in
  let server = Net.Server.start ~config sys in
  (sys, server, Net.Server.port server)

let replica_rows sys name =
  match Catalog.find_opt (Youtopia.System.catalog sys) name with
  | None -> -1
  | Some t -> Table.row_count t

let snap server = Net.Server_stats.snapshot (Net.Server.stats server)

let test_e2e_snapshot_bootstrap_and_tail () =
  with_tmp_dir (fun wal_path ->
      let psys, pserver, pport = start_primary ~wal_path () in
      let pc = Net.Client.connect ~port:pport ~user:"writer" () in
      ignore (Net.Client.submit pc "CREATE TABLE Items (id INT PRIMARY KEY, v TEXT)");
      for i = 1 to 20 do
        ignore
          (Net.Client.submit pc
             (Printf.sprintf "INSERT INTO Items VALUES (%d, 'v%d')" i i))
      done;
      (* truncate the shipped prefix so the replica CANNOT catch up from
         the WAL file: bootstrap must go through a streamed snapshot *)
      ignore (Youtopia.System.checkpoint ~truncate_wal:true psys);
      let rsys, rserver, rport = start_replica ~primary_port:pport () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close pc;
          Net.Server.stop rserver;
          Net.Server.stop pserver)
        (fun () ->
          await "snapshot bootstrap" (fun () -> replica_rows rsys "Items" = 20);
          let s = snap rserver in
          check bool "bootstrap used a snapshot" true (s.Net.Server_stats.repl_snapshots_loaded >= 1);
          check bool "upstream connected" true s.Net.Server_stats.repl_upstream_connected;

          (* live tail: new commits stream across without reconnecting *)
          for i = 21 to 30 do
            ignore
              (Net.Client.submit pc
                 (Printf.sprintf "INSERT INTO Items VALUES (%d, 'v%d')" i i))
          done;
          await "live tail" (fun () -> replica_rows rsys "Items" = 30);
          let plsn =
            Relational.Database.last_lsn (Youtopia.System.database psys)
          in
          await "applied lsn reaches primary lsn" (fun () ->
              (snap rserver).Net.Server_stats.repl_applied_lsn = plsn);

          (* replica serves reads locally over its own endpoint *)
          let rc = Net.Client.connect ~port:rport ~user:"reader" () in
          Fun.protect
            ~finally:(fun () -> Net.Client.close rc)
            (fun () ->
              (match Net.Client.submit rc "SELECT v FROM Items WHERE id = 30" with
              | Net.Wire.Sql_result s ->
                check bool "replicated row readable" true
                  (Astring.String.is_infix ~affix:"v30" s)
              | _ -> Alcotest.fail "expected a SQL result");
              (* ...and redirects anything that could mutate *)
              (match
                 Net.Client.submit rc "INSERT INTO Items VALUES (99, 'nope')"
               with
              | _ -> Alcotest.fail "write on a replica must be rejected"
              | exception Net.Client.Server_error m -> (
                match Net.Wire.parse_readonly_redirect m with
                | Some (h, p) ->
                  check Alcotest.string "redirect host" "127.0.0.1" h;
                  check int "redirect names the primary" pport p
                | None -> Alcotest.failf "unparsable redirect: %s" m));
              check int "rejection counted" 1
                (snap rserver).Net.Server_stats.readonly_rejections;
              check int "write did not apply" 30 (replica_rows rsys "Items"));

          (* the primary has acked shipping state for this replica *)
          check int "one replica attached" 1
            (snap pserver).Net.Server_stats.replicas_active;
          await "replica acks reach the primary" (fun () ->
              ignore (Net.Client.ping pc);
              let admin = Net.Client.admin pc "replicas" in
              Astring.String.is_infix ~affix:"replica=test-replica" admin
              && Astring.String.is_infix
                   ~affix:(Printf.sprintf "acked_lsn=%d" plsn)
                   admin)))

let test_e2e_catchup_after_primary_restart () =
  with_tmp_dir (fun wal_path ->
      let psys, pserver, pport = start_primary ~wal_path () in
      let pc = Net.Client.connect ~port:pport ~user:"writer" () in
      ignore (Net.Client.submit pc "CREATE TABLE Ledger (id INT PRIMARY KEY)");
      for i = 1 to 5 do
        ignore
          (Net.Client.submit pc (Printf.sprintf "INSERT INTO Ledger VALUES (%d)" i))
      done;
      let rsys, rserver, _ = start_replica ~primary_port:pport () in
      Fun.protect
        ~finally:(fun () -> Net.Server.stop rserver)
        (fun () ->
          await "initial sync" (fun () -> replica_rows rsys "Ledger" = 5);

          (* primary goes down mid-stream... *)
          Net.Client.close pc;
          Net.Server.stop pserver;
          Relational.Database.close (Youtopia.System.database psys);
          await "replica notices the loss" (fun () ->
              not (snap rserver).Net.Server_stats.repl_upstream_connected);

          (* ...restarts from its WAL on the same port, and takes writes
             the replica never saw *)
          let psys2, pserver2, _ = start_primary ~port:pport ~wal_path () in
          let pc2 = Net.Client.connect ~port:pport ~user:"writer" () in
          Fun.protect
            ~finally:(fun () ->
              Net.Client.close pc2;
              Net.Server.stop pserver2)
            (fun () ->
              for i = 6 to 12 do
                ignore
                  (Net.Client.submit pc2
                     (Printf.sprintf "INSERT INTO Ledger VALUES (%d)" i))
              done;
              (* the replica reconnects with backoff, announces lsn 6 (1 DDL
                 + 5 inserts), and catches up from the WAL file suffix —
                 no snapshot needed *)
              await "catch-up after restart" (fun () ->
                  replica_rows rsys "Ledger" = 12);
              let s = snap rserver in
              check bool "reconnect counted" true (s.Net.Server_stats.repl_reconnects >= 1);
              check int "no snapshot for a suffix catch-up" 0
                s.Net.Server_stats.repl_snapshots_loaded;
              check int "replica lsn converges" 13 s.Net.Server_stats.repl_applied_lsn;
              ignore psys2)))

let test_client_routes_reads_to_replicas () =
  with_tmp_dir (fun wal_path ->
      let _psys, pserver, pport = start_primary ~wal_path () in
      let admin_c = Net.Client.connect ~port:pport ~user:"admin" () in
      ignore (Net.Client.submit admin_c "CREATE TABLE Kv (k INT PRIMARY KEY, v TEXT)");
      ignore (Net.Client.submit admin_c "INSERT INTO Kv VALUES (1, 'one')");
      let rsys, rserver, rport = start_replica ~primary_port:pport () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close admin_c;
          Net.Server.stop rserver;
          Net.Server.stop pserver)
        (fun () ->
          await "replica synced" (fun () -> replica_rows rsys "Kv" = 1);
          let c =
            Net.Client.connect ~port:pport
              ~replicas:[ ("127.0.0.1", rport) ]
              ~user:"router" ()
          in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c)
            (fun () ->
              check int "replica configured" 1 (Net.Client.replica_count c);
              let before = (snap rserver).Net.Server_stats.submits in
              (match Net.Client.submit c "SELECT v FROM Kv WHERE k = 1" with
              | Net.Wire.Sql_result s ->
                check bool "read served" true
                  (Astring.String.is_infix ~affix:"one" s)
              | _ -> Alcotest.fail "expected a SQL result");
              check int "read went to the replica" (before + 1)
                (snap rserver).Net.Server_stats.submits;

              (* writes route to the primary even with replicas configured *)
              let wbefore = (snap pserver).Net.Server_stats.submits in
              ignore (Net.Client.submit c "INSERT INTO Kv VALUES (2, 'two')");
              check bool "write went to the primary" true
                ((snap pserver).Net.Server_stats.submits > wbefore);
              await "write replicated" (fun () -> replica_rows rsys "Kv" = 2);

              (* a dead replica falls back to the primary transparently *)
              Net.Server.stop rserver;
              match Net.Client.submit c "SELECT v FROM Kv WHERE k = 2" with
              | Net.Wire.Sql_result s ->
                check bool "fallback read served" true
                  (Astring.String.is_infix ~affix:"two" s)
              | _ -> Alcotest.fail "expected a SQL result")))

(* Regression: a bootstrap burst larger than the primary's [max_outq]
   must not trip the slow-consumer drop.  The drop would disconnect the
   replica mid-bootstrap; it reconnects with the same LSN, re-triggers
   the same burst, and never syncs.  40+ WAL catch-up batches against
   max_outq = 8 forces the interleaved-flush path in the server's
   bootstrap send. *)
let test_bootstrap_exceeds_outq () =
  with_tmp_dir (fun wal_path ->
      let psys = Youtopia.System.create ~wal_path () in
      let config =
        { Net.Server.default_config with Net.Server.port = 0; max_outq = 8 }
      in
      let pserver = Net.Server.start ~config psys in
      let pport = Net.Server.port pserver in
      let pc = Net.Client.connect ~port:pport ~user:"writer" () in
      ignore (Net.Client.submit pc "CREATE TABLE Big (id INT PRIMARY KEY)");
      for i = 1 to 40 do
        ignore
          (Net.Client.submit pc (Printf.sprintf "INSERT INTO Big VALUES (%d)" i))
      done;
      let rsys, rserver, _ = start_replica ~primary_port:pport () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close pc;
          Net.Server.stop rserver;
          Net.Server.stop pserver)
        (fun () ->
          await "catch-up larger than max_outq syncs" (fun () ->
              replica_rows rsys "Big" = 40);
          check int "no drop/reconnect loop" 0
            (snap rserver).Net.Server_stats.repl_reconnects))

(* A replica that stops reading mid-bootstrap must not hold up anyone
   else.  The snapshot (~16 MB, several times the kernel's largest socket
   send buffer) cannot all leave while the replica's receive buffer is
   4 KiB and never drained, so most of it stays queued in the server; a
   client that connects meanwhile still gets its PING answered at once.
   Dropping the stalled replica after 30 s without progress is the
   protocol core's verdict, checked on a fake clock in the [protocol]
   suite. *)
let test_stalled_bootstrap_blocks_nobody () =
  with_tmp_dir (fun wal_path ->
      let psys = Youtopia.System.create ~wal_path () in
      let big =
        Catalog.create_table
          (Youtopia.System.catalog psys)
          (Schema.make ~primary_key:[ 0 ] "Big"
             [ Schema.column "id" Ctype.TInt; Schema.column "pad" Ctype.TText ])
      in
      let pad = String.make 10_000 'p' in
      for i = 1 to 1_600 do
        ignore (Table.insert big [| Value.Int i; Value.Str pad |])
      done;
      let config =
        { Net.Server.default_config with Net.Server.port = 0; max_outq = 8 }
      in
      let pserver = Net.Server.start ~config psys in
      let port = Net.Server.port pserver in
      let dial () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.;
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
        fd
      in
      let stuck = dial () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close stuck with Unix.Unix_error _ -> ());
          Net.Server.stop pserver)
        (fun () ->
          (* a LSN past anything the primary has forces the snapshot path *)
          Net.Wire.write_frame stuck
            (Net.Wire.encode_request
               (Net.Wire.Replica_hello
                  {
                    version = Net.Wire.protocol_version;
                    replica_id = "stuck";
                    last_lsn = 1_000_000_000;
                  }));
          await "the stuck replica is registered" (fun () ->
              (snap pserver).Net.Server_stats.replicas_active = 1);
          let t0 = Unix.gettimeofday () in
          let fd = dial () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let rpc req =
                Net.Wire.write_frame fd (Net.Wire.encode_request req);
                match Net.Wire.decode_response (Net.Wire.read_frame fd) with
                | r -> r
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                  ->
                  Alcotest.fail "no answer within 1 s: the loop is blocked"
              in
              (match rpc (Net.Wire.Hello { version = 1; user = "bystander" }) with
              | Net.Wire.Welcome _ -> ()
              | _ -> Alcotest.fail "expected WELCOME");
              match rpc (Net.Wire.Ping { id = 1; payload = "alive" }) with
              | Net.Wire.Pong { payload = "alive"; _ } -> ()
              | _ -> Alcotest.fail "expected PONG");
          check bool "connect + PING within 1 s" true
            (Unix.gettimeofday () -. t0 < 1.);
          let s = snap pserver in
          check int "the stalled replica is still served, not dropped yet" 1
            s.Net.Server_stats.replicas_active;
          check int "no error counted" 0 s.Net.Server_stats.errors))

(* The replica's upstream link is one more connection of its event loop,
   so neither a connect that hangs nor a primary that never answers the
   handshake may hold up the replica's own clients.  The "primary" is a
   raw listener.  First its accept queue is full (backlog 0, one
   connection queued), so the kernel drops the replica's SYN and the
   connect stays in progress; then it accepts the replica, reads its
   RHELLO and never sends WELCOME.  Both times a client's connect + PING
   to the replica answers within 1 s. *)
let test_upstream_never_blocks_the_loop () =
  let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (loopback 0);
  Unix.listen listener 0;
  let lport =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let filler = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect filler (loopback lport);
  let upstream = ref None in
  let _rsys, rserver, rport = start_replica ~primary_port:lport () in
  Fun.protect
    ~finally:(fun () ->
      (* closing the listener first refuses a connect still in progress *)
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (listener :: filler :: Option.to_list !upstream);
      Net.Server.stop rserver)
    (fun () ->
      let ping_within_1s what =
        let t0 = Unix.gettimeofday () in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.;
            Unix.connect fd (loopback rport);
            let rpc req =
              Net.Wire.write_frame fd (Net.Wire.encode_request req);
              match Net.Wire.decode_response (Net.Wire.read_frame fd) with
              | r -> r
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Alcotest.failf "%s: no answer within 1 s: the loop is blocked" what
            in
            (match rpc (Net.Wire.Hello { version = 1; user = "bystander" }) with
            | Net.Wire.Welcome _ -> ()
            | _ -> Alcotest.failf "%s: expected WELCOME" what);
            match rpc (Net.Wire.Ping { id = 1; payload = "alive" }) with
            | Net.Wire.Pong { payload = "alive"; _ } -> ()
            | _ -> Alcotest.failf "%s: expected PONG" what);
        check bool (what ^ ": connect + PING within 1 s") true
          (Unix.gettimeofday () -. t0 < 1.)
      in
      Unix.sleepf 0.2;
      ping_within_1s "connect in progress";
      (* make room: the replica's retransmitted SYN gets in *)
      let queued, _ = Unix.accept listener in
      Unix.close queued;
      (match Unix.select [ listener ] [] [] 10. with
      | [], _, _ -> Alcotest.fail "the replica never connected"
      | _ -> upstream := Some (fst (Unix.accept listener)));
      let up = Option.get !upstream in
      Unix.setsockopt_float up Unix.SO_RCVTIMEO 5.;
      (match Net.Wire.decode_request (Net.Wire.read_frame up) with
      | Net.Wire.Replica_hello { last_lsn = 0; _ } -> ()
      | _ -> Alcotest.fail "expected the replica's RHELLO");
      ping_within_1s "handshake unanswered";
      check bool "not connected" false
        (snap rserver).Net.Server_stats.repl_upstream_connected)

(* The upstream link is exempt from the idle verdict and from max_conns:
   with read_timeout = 0.2 s it survives 1 s without traffic, and with
   max_conns = 1 a client still gets in. *)
let test_upstream_exempt_from_idle_and_max_conns () =
  with_tmp_dir (fun wal_path ->
      let _psys, pserver, pport = start_primary ~wal_path () in
      let config =
        {
          Net.Server.default_config with
          Net.Server.port = 0;
          replica_of = Some ("127.0.0.1", pport);
          read_timeout = 0.2;
          max_conns = 1;
        }
      in
      let rserver = Net.Server.start ~config (Youtopia.System.create ()) in
      Fun.protect
        ~finally:(fun () ->
          Net.Server.stop rserver;
          Net.Server.stop pserver)
        (fun () ->
          await "upstream connected" (fun () ->
              (snap rserver).Net.Server_stats.repl_upstream_connected);
          Unix.sleepf 1.;
          let s = snap rserver in
          check bool "still connected" true s.Net.Server_stats.repl_upstream_connected;
          check int "no reconnect" 0 s.Net.Server_stats.repl_reconnects;
          check int "no idle timeout" 0 s.Net.Server_stats.idle_timeouts;
          let c = Net.Client.connect ~port:(Net.Server.port rserver) ~user:"solo" () in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c)
            (fun () -> ignore (Net.Client.ping c));
          check int "nothing refused" 0 (snap rserver).Net.Server_stats.conns_refused))

let suite =
  [
    Alcotest.test_case "replication frames round-trip" `Quick test_frames_roundtrip;
    Alcotest.test_case "read-only redirect parses" `Quick
      test_readonly_redirect_parse;
    Alcotest.test_case "backoff grows, caps, jitters, retries" `Quick
      test_backoff_policy;
    Alcotest.test_case "batch chunking round-trips under frame limit" `Quick
      test_batch_chunking_roundtrip;
    Alcotest.test_case "catch-up reads the WAL suffix, drops torn tail" `Quick
      test_catchup_batches;
    Alcotest.test_case "e2e: snapshot bootstrap, live tail, redirect" `Quick
      test_e2e_snapshot_bootstrap_and_tail;
    Alcotest.test_case "e2e: catch-up after primary restart" `Quick
      test_e2e_catchup_after_primary_restart;
    Alcotest.test_case "e2e: bootstrap burst larger than max_outq" `Quick
      test_bootstrap_exceeds_outq;
    Alcotest.test_case "client routes reads to replicas" `Quick
      test_client_routes_reads_to_replicas;
    Alcotest.test_case "stalled bootstrap blocks no other client" `Quick
      test_stalled_bootstrap_blocks_nobody;
    Alcotest.test_case "upstream connect or handshake never blocks the loop" `Quick
      test_upstream_never_blocks_the_loop;
    Alcotest.test_case "upstream link exempt from idle verdict and max_conns" `Quick
      test_upstream_exempt_from_idle_and_max_conns;
  ]
