(* The protocol core driven directly: no sockets, no threads, no sleeps.
   Bytes go in through [Protocol.input], frames come out through
   [Protocol.pop_output], and time is a fake clock the test advances. *)

module P = Net.Protocol
module W = Net.Wire

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let status_t =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | P.Open -> "Open"
        | P.Flush_then_close -> "Flush_then_close"
        | P.Dead -> "Dead"))
    ( = )

(* a core over [sys] whose clock reads [now] *)
let core ?(config = P.Config.default_config) ?sys now =
  let sys =
    match sys with
    | Some s -> s
    | None -> Travel.Datagen.make_system ~seed:1 ~n_flights:8 ~n_hotels:2 ()
  in
  P.create ~config ~clock:(fun () -> !now) sys

let feed_bytes t c s = P.input t c (Bytes.of_string s) 0 (String.length s)

let frame req = Bytes.to_string (W.frame_bytes (W.encode_request req))

let feed t c reqs = feed_bytes t c (String.concat "" (List.map frame reqs))

(* every frame queued for [c], decoded, with whether it went raw *)
let drain t c =
  let rec go acc =
    match P.pop_output t c with
    | None -> List.rev acc
    | Some (raw, payload) ->
      go ((raw, W.decode_response_kind ((if raw then W.Raw else W.Text), payload)) :: acc)
  in
  go []

let responses t c = List.map snd (drain t c)

let hello ?(version = W.protocol_version) t user =
  let c = P.connect t in
  feed t c [ W.Hello { version; user } ];
  (match responses t c with
  | [ W.Welcome { version = v; _ } ] when v = min version W.protocol_version -> ()
  | _ -> Alcotest.fail "expected one WELCOME echoing the version");
  c

let submit id sql = W.Submit { id; sql }

let stats t = Net.Server_stats.snapshot (P.stats t)

let expect_error_then_close what t c =
  let message =
    match responses t c with
    | [ W.Error { id = 0; message } ] -> message
    | _ -> Alcotest.failf "%s: expected one ERROR" what
  in
  check status_t (what ^ ": flush then close") P.Flush_then_close (P.status c);
  check bool (what ^ ": no more input wanted") false (P.wants_read t c);
  message

(* ---------------- handshake ---------------- *)

let test_hello_versions () =
  let t = core (ref 0.) in
  let big_select c id =
    feed t c
      [
        submit id "CREATE TABLE Big (t TEXT)";
        submit (id + 1)
          (Printf.sprintf "INSERT INTO Big VALUES ('%s')" (String.make 6000 'x'));
      ];
    P.end_of_iteration t;
    ignore (drain t c);
    feed t c [ submit (id + 2) "SELECT t FROM Big"; submit (id + 3) "DROP TABLE Big" ];
    P.end_of_iteration t;
    match drain t c with
    | (raw, W.Result { body = W.Sql_result s; _ }) :: _ ->
      check bool "payload intact" true
        (Astring.String.is_infix ~affix:(String.make 6000 'x') s);
      raw
    | _ -> Alcotest.fail "expected the SELECT result"
  in
  let v2 = hello ~version:2 t "rawr" in
  check bool "v2: a big result rides a raw frame" true (big_select v2 1);
  let v1 = hello ~version:1 t "legacy" in
  check bool "v1: everything stays text" false (big_select v1 10)

let test_non_hello_first () =
  let t = core (ref 0.) in
  let c = P.connect t in
  feed t c [ W.Ping { id = 1; payload = "hi" } ];
  ignore (expect_error_then_close "PING first" t c)

let test_duplicate_hello () =
  let t = core (ref 0.) in
  let c = hello t "twice" in
  feed t c [ W.Hello { version = 1; user = "twice" } ];
  let m = expect_error_then_close "second HELLO" t c in
  check bool "says duplicate" true (Astring.String.is_infix ~affix:"duplicate" m)

let test_unknown_version () =
  let t = core (ref 0.) in
  let c = P.connect t in
  feed t c [ W.Hello { version = 99; user = "time-traveller" } ];
  let m = expect_error_then_close "version 99" t c in
  check bool "mentions the version" true (Astring.String.is_infix ~affix:"version" m)

(* ---------------- dispatch and batching ---------------- *)

(* A read behind a write on the same connection runs after it and answers
   after it, without waiting for the end of the iteration. *)
let test_program_order () =
  let t = core (ref 0.) in
  let c = hello t "order" in
  feed t c [ submit 1 "CREATE TABLE Seq (id INT)" ];
  P.end_of_iteration t;
  ignore (drain t c);
  for k = 1 to 5 do
    feed t c
      [
        submit (2 * k) (Printf.sprintf "INSERT INTO Seq VALUES (%d)" k);
        submit ((2 * k) + 1) "SELECT COUNT(*) FROM Seq";
      ];
    match responses t c with
    | [ W.Result { id = w; _ }; W.Result { id = r; body = W.Sql_result s } ]
      when w = 2 * k && r = (2 * k) + 1 ->
      if not (Astring.String.is_infix ~affix:(Printf.sprintf "(%d)" k) s) then
        Alcotest.failf "pair %d: the count missed its write: %s" k s
    | _ -> Alcotest.failf "pair %d: out of order or missing" k
  done

(* Good / bad / good writes in one input share one batch: nothing answers
   before the end of the iteration, the bad one errors alone, and one
   poke covers the batch. *)
let test_batch_isolation_and_poke () =
  let sys = Travel.Datagen.make_system ~seed:1 ~n_flights:8 ~n_hotels:2 () in
  let t = core ~sys (ref 0.) in
  let c = hello t "iso" in
  feed t c [ submit 1 "CREATE TABLE Ok (id INT)" ];
  P.end_of_iteration t;
  ignore (drain t c);
  let coord () =
    Core.Coordinator.stats (Youtopia.System.coordinator sys)
  in
  let before = stats t and pokes0 = (coord ()).Core.Stats.batch_pokes in
  feed t c
    [
      submit 2 "INSERT INTO Ok VALUES (1)";
      submit 3 "INSERT INTO Missing VALUES (1)";
      submit 4 "INSERT INTO Ok VALUES (2)";
    ];
  check bool "writes wait for the end of the iteration" false (P.has_output c);
  P.end_of_iteration t;
  (match responses t c with
  | [ W.Result { id = 2; _ }; W.Error { id = 3; _ }; W.Result { id = 4; _ } ] -> ()
  | _ -> Alcotest.fail "expected RESULT 2, ERROR 3, RESULT 4");
  let after = stats t in
  check int "one batch" 1 Net.Server_stats.(after.batches - before.batches);
  check int "three requests in it" 3
    Net.Server_stats.(after.batched_requests - before.batched_requests);
  check int "one poke for the batch" 1
    ((coord ()).Core.Stats.batch_pokes - pokes0)

(* The per-batch poke reaches parked queries: a pair over a flightless
   destination is fulfilled by a plain INSERT, and both owners get their
   push. *)
let test_dml_poke_pushes () =
  let t = core (ref 0.) in
  let alice = hello t "alice" and bob = hello t "bob" in
  let park c user friend =
    feed t c [ submit 1 (Travel.Workload.pair_sql ~user ~friend ~dest:"Nowhere") ];
    P.end_of_iteration t;
    match responses t c with
    | [ W.Result { body = W.Registered _; _ } ] -> ()
    | _ -> Alcotest.fail (user ^ " should park")
  in
  park alice "alice" "bob";
  park bob "bob" "alice";
  feed t alice
    [ submit 2 "INSERT INTO Flights VALUES (999, 'Lima', 'Nowhere', 3, 100.0, 4)" ];
  P.end_of_iteration t;
  let pushed c =
    List.exists (function W.Push _ -> true | _ -> false) (responses t c)
  in
  check bool "alice pushed" true (pushed alice);
  check bool "bob pushed" true (pushed bob)

(* ---------------- backpressure and close decisions ---------------- *)

let test_backpressure () =
  let config =
    { P.Config.default_config with P.Config.max_in_flight = 2; max_outq = 4 }
  in
  let t = core ~config (ref 0.) in
  let c = hello t "slow" in
  let ping i = W.Ping { id = i; payload = "p" } in
  feed t c [ ping 1 ];
  check bool "below max_in_flight: reading" true (P.wants_read t c);
  feed t c [ ping 2 ];
  check bool "at max_in_flight: not reading" false (P.wants_read t c);
  ignore (P.pop_output t c);
  check bool "drained below: reading again" true (P.wants_read t c);
  (* a peer that keeps sending past max_outq unread answers is dropped *)
  let errors0 = (stats t).Net.Server_stats.errors in
  feed t c [ ping 3; ping 4; ping 5 ];
  check status_t "at max_outq: still open" P.Open (P.status c);
  feed t c [ ping 6 ];
  check status_t "past max_outq: dropped" P.Dead (P.status c);
  check bool "nothing more to send" true (P.pop_output t c = None);
  check int "drop counted" 1 ((stats t).Net.Server_stats.errors - errors0)

let test_bye_and_protocol_error () =
  let t = core (ref 0.) in
  let c = hello t "leaving" in
  feed t c [ W.Ping { id = 1; payload = "last" }; W.Bye; W.Ping { id = 2; payload = "x" } ];
  (match responses t c with
  | [ W.Pong { id = 1; _ } ] -> ()
  | _ -> Alcotest.fail "the PING before BYE answers, the one after does not");
  check status_t "BYE: flush then close" P.Flush_then_close (P.status c);
  let c = hello t "garbled" in
  feed_bytes t c (Bytes.to_string (W.frame_bytes "NOPE|1"));
  ignore (expect_error_then_close "malformed frame" t c);
  let c = hello t "oversized" in
  feed_bytes t c "\x7f\xff\xff\xff";
  ignore (expect_error_then_close "oversized frame header" t c);
  let c = hello t "eof" in
  P.input_eof t c;
  check status_t "EOF: flush then close" P.Flush_then_close (P.status c)

(* ---------------- timers ---------------- *)

let test_idle_spares_parked () =
  let now = ref 0. in
  let config = { P.Config.default_config with P.Config.read_timeout = 1. } in
  let t = core ~config now in
  let alice = hello t "alice" in
  feed t alice
    [ submit 1 (Travel.Workload.pair_sql ~user:"alice" ~friend:"bob" ~dest:"Paris") ];
  P.end_of_iteration t;
  ignore (drain t alice);
  let idler = hello t "idler" in
  now := 0.9;
  P.tick t;
  check status_t "before the deadline" P.Open (P.status idler);
  now := 1.5;
  P.tick t;
  ignore (expect_error_then_close "idle past read_timeout" t idler);
  check status_t "the parked owner is spared" P.Open (P.status alice);
  check int "one idle timeout" 1 (stats t).Net.Server_stats.idle_timeouts

(* ---------------- replica bootstrap ---------------- *)

let with_wal_system f =
  let wal_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_protocol_%d_%d.wal" (Unix.getpid ())
         (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (wal_path :: List.map snd (Relational.Checkpoint.list ~wal_path)))
    (fun () -> f (Youtopia.System.create ~wal_path ()))

(* A table whose snapshot spans [chunks] replication chunks. *)
let fill sys ~chunks =
  let open Relational in
  let tbl =
    Catalog.create_table (Youtopia.System.catalog sys)
      (Schema.make ~primary_key:[ 0 ] "Big"
         [ Schema.column "id" Ctype.TInt; Schema.column "pad" Ctype.TText ])
  in
  let pad = String.make 1000 'p' in
  for i = 1 to chunks * W.repl_chunk_bytes / 1000 do
    ignore (Table.insert tbl [| Value.Int i; Value.Str pad |])
  done

let replica_hello t =
  let c = P.connect t in
  feed t c
    [
      W.Replica_hello
        { version = W.protocol_version; replica_id = "r"; last_lsn = 1_000_000_000 };
    ];
  c

(* A snapshot of more chunks than [max_outq] queues whole, leaves in chunk
   order behind the WELCOME, and the live batch committed meanwhile
   queues behind it. *)
let test_bootstrap_order () =
  with_wal_system (fun sys ->
      fill sys ~chunks:6;
      let config = { P.Config.default_config with P.Config.max_outq = 2 } in
      let t = core ~config ~sys (ref 0.) in
      let r = replica_hello t in
      let w = hello t "writer" in
      feed t w [ submit 1 "CREATE TABLE Live (id INT)" ];
      P.end_of_iteration t;
      check status_t "the burst is not a slow consumer" P.Open (P.status r);
      match responses t r with
      | W.Welcome _ :: rest ->
        let rec chunks seq = function
          | W.Snapshot_chunk { seq = s; last; _ } :: rest when s = seq ->
            if last then (seq + 1, rest) else chunks (seq + 1) rest
          | _ -> Alcotest.failf "chunk %d missing or out of order" seq
        in
        let n, rest = chunks 0 rest in
        check bool "more chunks than max_outq" true (n > 2);
        (match rest with
        | [ W.Wal_recs { last = true; _ } ] -> ()
        | _ -> Alcotest.fail "the live batch follows the snapshot");
        check status_t "still open" P.Open (P.status r)
      | _ -> Alcotest.fail "WELCOME first")

(* No frame taken for 30 s of fake time drops the replica; 29 s does not,
   and every frame taken restarts the count. *)
let test_bootstrap_stall () =
  with_wal_system (fun sys ->
      fill sys ~chunks:3;
      let now = ref 100. in
      let t = core ~sys now in
      let r = replica_hello t in
      ignore (P.pop_output t r);
      now := 129.;
      P.tick t;
      check status_t "29 s: still open" P.Open (P.status r);
      ignore (P.pop_output t r);
      now := 158.;
      P.tick t;
      check status_t "29 s after the last frame: still open" P.Open (P.status r);
      let errors0 = (stats t).Net.Server_stats.errors in
      now := 159.;
      P.tick t;
      check status_t "30 s: dropped" P.Dead (P.status r);
      check int "counted as an error" 1 ((stats t).Net.Server_stats.errors - errors0);
      P.close t r "EOF";
      check int "replica sink detached" 0 (stats t).Net.Server_stats.replicas_active)

(* ---------------- garbage through dispatch ---------------- *)

let valid_requests =
  [
    W.Hello { version = 1; user = "u" };
    W.Hello { version = 2; user = "v" };
    W.Replica_hello { version = 2; replica_id = "r"; last_lsn = 0 };
    W.Repl_ack { lsn = 3 };
    submit 1 "SELECT COUNT(*) FROM Flights";
    submit 2 "INSERT INTO Flights VALUES (7, 'A', 'B', 1, 1.0, 1)";
    submit 3 "CREATE TABLE G (id INT)";
    W.Cancel { id = 4; query_id = 1 };
    W.Admin { id = 5; what = "server" };
    W.Admin { id = 6; what = "nonsense" };
    W.Ping { id = 7; payload = "p" };
    W.Bye;
  ]

let gen_noise =
  let open QCheck.Gen in
  let valid = oneofl (List.map W.encode_request valid_requests) in
  let mutated =
    map3
      (fun s i c ->
        let b = Bytes.of_string s in
        Bytes.set b (i mod Bytes.length b) c;
        Bytes.to_string b)
      valid nat char
  in
  let cut = map (fun s -> String.sub s 0 (String.length s / 2)) valid in
  let framed =
    map2
      (fun raw p -> Bytes.to_string (W.frame_bytes ~raw p))
      bool
      (oneof [ string_size (0 -- 32); valid; mutated; cut ])
  in
  let body = list_size (1 -- 6) (oneof [ string_size (1 -- 12); framed ]) in
  (* half the cases handshake first, so dispatch past HELLO sees noise *)
  map2
    (fun greet parts ->
      String.concat ""
        ((if greet then [ frame (W.Hello { version = 2; user = "g" }) ] else [])
        @ parts))
    bool body

let prop_garbage_through_dispatch =
  let t = core (ref 0.) in
  QCheck.Test.make ~count:1000 ~name:"garbage through dispatch"
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%S split at %s" s
           (String.concat "," (List.map string_of_int cuts)))
       QCheck.Gen.(pair gen_noise (list_size (0 -- 3) nat)))
    (fun (input, cuts) ->
      let c = P.connect t in
      let n = String.length input in
      let cuts = List.sort_uniq compare (List.map (fun k -> k mod (n + 1)) cuts) in
      let raised =
        match
          List.fold_left
            (fun off k ->
              feed_bytes t c (String.sub input off (k - off));
              k)
            0 (cuts @ [ n ])
        with
        | _ ->
          P.end_of_iteration t;
          false
        | exception _ -> true
      in
      let status_ok =
        match P.status c with P.Open | P.Flush_then_close | P.Dead -> true
      in
      ignore (drain t c);
      P.close t c "EOF";
      let probe = hello t "probe" in
      feed t probe [ W.Ping { id = 9; payload = "ok" } ];
      let answered =
        match responses t probe with
        | [ W.Pong { id = 9; payload = "ok" } ] -> true
        | _ -> false
      in
      P.close t probe "EOF";
      (not raised) && status_ok && answered)

(* ---------------- replication shipping ---------------- *)

(* A failed hub flush answers nobody: the INSERT and the SELECT that
   settled it both answer, the connection stays open, the error is
   counted, and the batch ships with the next flush, in LSN order. *)
let test_hub_flush_error () =
  with_wal_system (fun sys ->
      let t = core ~sys (ref 0.) in
      let w = hello t "writer" in
      feed t w [ submit 1 "CREATE TABLE Hf (id INT)" ];
      P.end_of_iteration t;
      ignore (drain t w);
      let r = replica_hello t in
      ignore (drain t r);
      Fault.arm ~one_shot:true "repl.hub.flush" (Fault.Error "boom");
      Fun.protect ~finally:Fault.disarm_all (fun () ->
          let errors0 = (stats t).Net.Server_stats.errors in
          feed t w [ submit 2 "INSERT INTO Hf VALUES (1)"; submit 3 "SELECT COUNT(*) FROM Hf" ];
          (match responses t w with
          | [ W.Result { id = 2; _ }; W.Result { id = 3; body = W.Sql_result s } ] ->
            check bool "the SELECT sees the INSERT" true
              (Astring.String.is_infix ~affix:"(1)" s)
          | _ -> Alcotest.fail "expected RESULT 2 then RESULT 3");
          check status_t "the writer stays open" P.Open (P.status w);
          check int "the failed flush counted" 1
            ((stats t).Net.Server_stats.errors - errors0);
          check int "nothing shipped yet" 0 (List.length (responses t r));
          feed t w [ submit 4 "INSERT INTO Hf VALUES (2)" ];
          P.end_of_iteration t;
          ignore (drain t w);
          let shipped =
            List.filter_map
              (function W.Wal_recs { lsn; last = true; _ } -> Some lsn | _ -> None)
              (responses t r)
          in
          check (Alcotest.list int) "both batches, in LSN order" [ 2; 3 ] shipped))

(* ---------------- the replica's upstream link ---------------- *)

(* A replica core over an empty system, its upstream link not yet dialled. *)
let replica_core now =
  let config =
    {
      P.Config.default_config with
      P.Config.replica_of = Some ("primary", 7077);
      replica_id = "r1";
    }
  in
  let sys = Youtopia.System.create () in
  (sys, core ~config ~sys now)

let feed_responses t c rs =
  feed_bytes t c
    (String.concat ""
       (List.map (fun r -> Bytes.to_string (W.frame_bytes (W.encode_response r))) rs))

(* every request the core queued for the primary *)
let requests t c =
  let rec go acc =
    match P.pop_output t c with
    | None -> List.rev acc
    | Some (_, payload) -> go (W.decode_request payload :: acc)
  in
  go []

(* Dial: the link's first frame is an RHELLO carrying [lsn]. *)
let dial ?(welcome = true) t ~lsn =
  check bool "a dial is due" true (P.dial_due t);
  let c = P.connect_upstream t in
  check bool "no second dial while the link is open" false (P.dial_due t);
  (match requests t c with
  | [ W.Replica_hello { replica_id = "r1"; last_lsn; _ } ] ->
    check int "RHELLO carries the applied LSN" lsn last_lsn
  | _ -> Alcotest.fail "expected one RHELLO");
  if welcome then
    feed_responses t c [ W.Welcome { version = W.protocol_version; banner = "p" } ];
  c

let wrec ~lsn records = Net.Replication.frames_of_batch ~lsn ~sent_at_us:0 records

let ddl_batch =
  let open Relational in
  [
    Wal.Create_table
      (Schema.make ~primary_key:[ 0 ] "T" [ Schema.column "id" Ctype.TInt ]);
    Wal.Commit 1;
  ]

let insert_batch k = Relational.[ Wal.Insert ("T", [| Value.Int k |]); Wal.Commit k ]

let rows sys name =
  match Relational.Catalog.find_opt (Youtopia.System.catalog sys) name with
  | None -> -1
  | Some tbl -> Relational.Table.row_count tbl

let acks t c =
  List.map
    (function W.Repl_ack { lsn } -> lsn | _ -> Alcotest.fail "expected RACKs only")
    (requests t c)

let test_upstream_snapshot () =
  let now = ref 0. in
  let sys, t = replica_core now in
  let c = dial t ~lsn:0 in
  check bool "connected" true (stats t).Net.Server_stats.repl_upstream_connected;
  let src = Youtopia.System.create () in
  fill src ~chunks:2;
  let frames =
    Net.Replication.frames_of_snapshot ~lsn:5
      (Relational.Checkpoint.to_lines ~lsn:5 (Youtopia.System.catalog src))
  in
  check bool "several chunks" true (List.length frames > 2);
  feed_responses t c frames;
  check int "the snapshot's rows loaded" (rows src "Big") (rows sys "Big");
  let s = stats t in
  check int "one snapshot" 1 s.Net.Server_stats.repl_snapshots_loaded;
  check int "applied LSN from the snapshot" 5 s.Net.Server_stats.repl_applied_lsn;
  check status_t "still open" P.Open (P.status c);
  P.close t c "EOF";
  now := 10.;
  ignore (dial t ~lsn:5)

let test_upstream_lsn_order () =
  let sys, t = replica_core (ref 0.) in
  let c = dial t ~lsn:0 in
  feed_responses t c (wrec ~lsn:1 ddl_batch);
  check (Alcotest.list int) "RACK 1" [ 1 ] (acks t c);
  feed_responses t c (wrec ~lsn:3 (insert_batch 3));
  check (Alcotest.list int) "LSN 3 waits for LSN 2" [] (acks t c);
  check int "nothing applied yet" 0 (rows sys "T");
  feed_responses t c (wrec ~lsn:2 (insert_batch 2));
  check (Alcotest.list int) "RACK 2 then RACK 3" [ 2; 3 ] (acks t c);
  check int "both applied" 2 (rows sys "T");
  feed_responses t c (wrec ~lsn:2 (insert_batch 2));
  check (Alcotest.list int) "a duplicate is dropped" [] (acks t c);
  check int "and not applied" 2 (rows sys "T");
  check int "applied LSN" 3 (stats t).Net.Server_stats.repl_applied_lsn;
  check status_t "still open" P.Open (P.status c)

let test_upstream_apply_error () =
  let now = ref 0. in
  let sys, t = replica_core now in
  let c = dial t ~lsn:0 in
  feed_responses t c (wrec ~lsn:1 ddl_batch);
  ignore (requests t c);
  Fault.arm ~one_shot:true "repl.replica.apply" (Fault.Error "disk gone");
  Fun.protect ~finally:Fault.disarm_all (fun () ->
      feed_responses t c (wrec ~lsn:2 (insert_batch 2)));
  check status_t "the link is killed" P.Dead (P.status c);
  check int "no RACK" 0 (List.length (requests t c));
  check int "nothing applied" 0 (rows sys "T");
  check int "applied LSN unchanged" 1 (stats t).Net.Server_stats.repl_applied_lsn;
  check bool "disconnected" false (stats t).Net.Server_stats.repl_upstream_connected;
  P.close t c "EOF";
  now := 10.;
  ignore (dial t ~lsn:1)

(* After a session that completed its handshake the redial falls due
   within attempt 1's jitter bounds; after one that did not, within
   attempt 2's.  Every redial re-announces the applied LSN. *)
let test_upstream_redial () =
  let now = ref 100. in
  let _sys, t = replica_core now in
  let bounds attempt =
    let p = Net.Backoff.default in
    let d = Net.Backoff.delay_for p ~attempt in
    (d *. (1. -. p.Net.Backoff.jitter), d *. (1. +. p.Net.Backoff.jitter))
  in
  let due_within (lo, hi) ~from =
    now := from +. lo -. 1e-6;
    check bool "not due before the lower bound" false (P.dial_due t);
    now := from +. hi +. 1e-6;
    check bool "due after the upper bound" true (P.dial_due t)
  in
  let c = dial t ~lsn:0 in
  feed_responses t c (wrec ~lsn:1 ddl_batch);
  P.close t c "EOF";
  due_within (bounds 1) ~from:100.;
  let c = dial ~welcome:false t ~lsn:1 in
  P.close t c "EOF";
  due_within (bounds 2) ~from:!now;
  ignore (dial t ~lsn:1);
  check int "two redials counted" 2 (stats t).Net.Server_stats.repl_reconnects

(* The loop's wait ends when the redial falls due: after a loss at attempt
   1, [tick_ms] is at most that attempt's upper bound rather than the
   250 ms sweep, and 0 once the dial is due.  The primary's EOF ends the
   session before the teardown does. *)
let test_upstream_tick_ms () =
  let now = ref 100. in
  let _sys, t = replica_core now in
  let c = dial t ~lsn:0 in
  P.input_eof t c;
  check bool "no dial before the teardown" false (P.dial_due t);
  P.close t c "EOF";
  let p = Net.Backoff.default in
  let hi = Net.Backoff.delay_for p ~attempt:1 *. (1. +. p.Net.Backoff.jitter) in
  let ms = P.tick_ms t in
  check bool
    (Printf.sprintf "tick_ms %d within attempt 1's %.0f ms" ms (hi *. 1e3))
    true
    (ms <= int_of_float (Float.ceil (hi *. 1e3)));
  now := !now +. (float_of_int ms /. 1e3) +. 1e-6;
  check bool "the dial is due when the wait ends" true (P.dial_due t);
  check int "no wait once due" 0 (P.tick_ms t)

let suite =
  [
    Alcotest.test_case "HELLO v1 and v2" `Quick test_hello_versions;
    Alcotest.test_case "non-HELLO first frame" `Quick test_non_hello_first;
    Alcotest.test_case "duplicate HELLO" `Quick test_duplicate_hello;
    Alcotest.test_case "unknown version" `Quick test_unknown_version;
    Alcotest.test_case "program order per connection" `Quick test_program_order;
    Alcotest.test_case "batch error isolation, one poke per batch" `Quick
      test_batch_isolation_and_poke;
    Alcotest.test_case "DML poke pushes parked owners" `Quick test_dml_poke_pushes;
    Alcotest.test_case "backpressure and the slow-consumer drop" `Quick
      test_backpressure;
    Alcotest.test_case "BYE, protocol errors and EOF close after flush" `Quick
      test_bye_and_protocol_error;
    Alcotest.test_case "idle verdict spares parked owners" `Quick
      test_idle_spares_parked;
    Alcotest.test_case "bootstrap over max_outq leaves in chunk order" `Quick
      test_bootstrap_order;
    Alcotest.test_case "bootstrap stall verdict at 30 s" `Quick test_bootstrap_stall;
    QCheck_alcotest.to_alcotest prop_garbage_through_dispatch;
    Alcotest.test_case "a failed hub flush answers nobody" `Quick
      test_hub_flush_error;
    Alcotest.test_case "upstream: SNAP chunks load, RHELLO carries the LSN" `Quick
      test_upstream_snapshot;
    Alcotest.test_case "upstream: WREC applies in LSN order, one RACK each" `Quick
      test_upstream_lsn_order;
    Alcotest.test_case "upstream: a failed apply kills the link" `Quick
      test_upstream_apply_error;
    Alcotest.test_case "upstream: redial inside the backoff's jitter" `Quick
      test_upstream_redial;
    Alcotest.test_case "upstream: tick_ms ends the wait at the redial" `Quick
      test_upstream_tick_ms;
  ]
