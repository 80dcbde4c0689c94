(* Benchmark harness: regenerates every experiment of DESIGN.md §4.

   The demo paper has no numeric tables; its measurable claims are the
   Figure 1 semantics, the six §3.1 scenarios, and the §3 scalability claim
   ("a loaded system, where a large number of entangled queries are trying
   to coordinate simultaneously").  Each experiment below prints one
   paper-style table; EXPERIMENTS.md records the expected shapes.

   Run all:         dune exec bench/main.exe
   Run one:         dune exec bench/main.exe -- E8
   Fast mode (CI):  dune exec bench/main.exe -- --fast
   Networked only:  dune exec bench/main.exe -- --net
   Reproducible:    dune exec bench/main.exe -- --seed 42 *)

open Relational
open Bechamel
open Toolkit

let say fmt = Format.printf (fmt ^^ "@.")
let hrule = String.make 72 '-'

let header title =
  say "@.%s" hrule;
  say "%s" title;
  say "%s" hrule

(* ------------------------------------------------------------------ *)
(* Bechamel helper: OLS-estimated ns/run for a closure. *)

let ols_ns ?(quota = 0.4) name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate =
    Hashtbl.fold
      (fun _ v acc ->
        match Analyze.OLS.estimates v with Some [ e ] -> Some e | _ -> acc)
      results None
  in
  Option.value ~default:Float.nan estimate

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  Unix.gettimeofday () -. t0, result

(** Run options: [--fast] shrinks sweeps, [--seed] makes the synthetic
    data and arrival shuffles reproducible run-to-run. *)
type opts = { fast : bool; seed : int }

(* ------------------------------------------------------------------ *)
(* Machine-readable results: [--json PATH] dumps every recorded
   (experiment, metric, value) triple, for CI artifacts and regression
   tracking. *)

let json_records : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  json_records := (experiment, metric, value) :: !json_records

let write_json path =
  let oc = open_out path in
  output_string oc "[\n";
  let rec emit = function
    | [] -> ()
    | (e, m, v) :: rest ->
      (* metric names are plain ASCII identifiers, so OCaml's %S escaping
         coincides with JSON's *)
      Printf.fprintf oc
        "  {\"experiment\": %S, \"metric\": %S, \"value\": %.6g}%s\n" e m v
        (if rest = [] then "" else ",");
      emit rest
  in
  emit (List.rev !json_records);
  output_string oc "]\n";
  close_out oc;
  say "wrote %d result record(s) to %s" (List.length !json_records) path

(* ------------------------------------------------------------------ *)
(* Shared fixtures. *)

(* The Figure 1(a) database + Reservation answer relation. *)
let fig1_system () =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iter
    (fun (f, d) ->
      ignore (Table.insert flights [| Value.Int f; Value.Str d |]))
    [ 122, "Paris"; 123, "Paris"; 134, "Paris"; 136, "Rome" ];
  let coord = Core.Coordinator.create db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "Reservation"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord

let pair_sql name friend =
  Printf.sprintf
    "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno FROM \
     Flights WHERE dest='Paris') AND ('%s', fno) IN ANSWER Reservation \
     CHOOSE 1"
    name friend

let fresh_travel ~seed ~n_flights () =
  Travel.Datagen.make_system ~seed ~n_flights ~n_hotels:8 ()

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the mutual-match primitive, microbenchmarked. *)

let e1_fig1 () =
  header
    "E1 (Figure 1) — pairwise mutual match: parse + compile + safety + \
     match + fulfil";
  let db, coord = fig1_system () in
  let cat = db.Database.catalog in
  let i = ref 0 in
  let submit_pair () =
    incr i;
    let a = Printf.sprintf "K%d" !i and b = Printf.sprintf "J%d" !i in
    (match
       Core.Coordinator.submit coord (Core.Translate.of_sql cat ~owner:a (pair_sql a b))
     with
    | Core.Coordinator.Registered _ -> ()
    | _ -> failwith "first of pair should wait");
    match
      Core.Coordinator.submit coord (Core.Translate.of_sql cat ~owner:b (pair_sql b a))
    with
    | Core.Coordinator.Answered _ -> ()
    | _ -> failwith "second of pair should match"
  in
  let ns = ols_ns "fig1_mutual_match" submit_pair in
  say "full pair coordination (2 queries, 1 match, atomic fulfilment):";
  say "  %12.0f ns/pair  (%.1f us)" ns (ns /. 1e3);
  (* decomposition *)
  let parse_ns = ols_ns "parse" (fun () -> ignore (Sql.Parser.parse_one (pair_sql "K" "J"))) in
  let translate_ns =
    ols_ns "translate" (fun () ->
        ignore (Core.Translate.of_sql cat ~owner:"K" (pair_sql "K" "J")))
  in
  say "  of which: parse %.0f ns, parse+compile %.0f ns" parse_ns translate_ns;
  say "  (choice among 3 Paris flights; both tuples get the same fno — \
       verified by the test suite)"

(* ------------------------------------------------------------------ *)
(* E4 — multiple simultaneous bookings: pair throughput sweep. *)

let e4_pairs { fast; seed } =
  header "E4 (§3.1 multiple simultaneous bookings) — pair throughput";
  say "%8s %10s %12s %14s %14s" "pairs" "queries" "elapsed(s)" "pairs/s"
    "mean lat(us)";
  let sizes = if fast then [ 1; 8; 32 ] else [ 1; 4; 16; 64; 256 ] in
  List.iter
    (fun n ->
      let sys = fresh_travel ~seed ~n_flights:64 () in
      let coordinator = Youtopia.System.coordinator sys in
      let cat = Youtopia.System.catalog sys in
      let arrivals =
        Travel.Workload.pair_arrivals
          ~seed:(Scenarios.Scengen.derive ~seed "pair_arrivals")
          ~n ~dests:Travel.Datagen.cities
      in
      let m = Travel.Workload.run_pairs coordinator cat arrivals in
      assert (m.Travel.Workload.fulfilled = 2 * n);
      say "%8d %10d %12.4f %14.0f %14.1f" n m.Travel.Workload.submitted
        m.Travel.Workload.elapsed
        (float_of_int n /. m.Travel.Workload.elapsed)
        (m.Travel.Workload.mean_arrival_latency *. 1e6))
    sizes

(* ------------------------------------------------------------------ *)
(* E5 — group size sweep: cost of closing a clique of size g. *)

let e5_groups { fast; seed } =
  header "E5/E6 (§3.1 group booking) — group-size sweep (clique constraints)";
  say "%8s %16s %16s %14s" "group" "close lat(us)" "search steps" "unify/group";
  let sizes = if fast then [ 2; 4; 8 ] else [ 2; 4; 6; 8; 12; 16 ] in
  List.iter
    (fun g ->
      let sys = fresh_travel ~seed ~n_flights:64 () in
      let coordinator = Youtopia.System.coordinator sys in
      let cat = Youtopia.System.catalog sys in
      let members = List.init g (fun i -> Printf.sprintf "m%d" i) in
      let queries = Travel.Workload.group_queries cat ~members ~dest:"Paris" in
      let stats = Core.Coordinator.stats coordinator in
      let rec submit_all = function
        | [] -> failwith "empty group"
        | [ last ] ->
          let steps0 = stats.Core.Stats.search_steps in
          let unify0 = stats.Core.Stats.unify_attempts in
          let elapsed, outcome =
            time_once (fun () -> Core.Coordinator.submit coordinator last)
          in
          (match outcome with
          | Core.Coordinator.Answered _ -> ()
          | _ -> failwith "group should close");
          ( elapsed,
            stats.Core.Stats.search_steps - steps0,
            stats.Core.Stats.unify_attempts - unify0 )
        | q :: rest ->
          ignore (Core.Coordinator.submit coordinator q);
          submit_all rest
      in
      let elapsed, steps, unify = submit_all queries in
      say "%8d %16.1f %16d %14d" g (elapsed *. 1e6) steps unify)
    sizes;
  say "(the last member's arrival pays the whole group search; growth is";
  say " polynomial in g because every member contributes g-1 constraints)"

(* ------------------------------------------------------------------ *)
(* E8 — loaded pending store: arrival latency vs pending size. *)

let run_pending_sweep ~seed sizes =
  let probes = 20 in
  List.map
    (fun n ->
      let sys = fresh_travel ~seed ~n_flights:64 () in
      let coordinator = Youtopia.System.coordinator sys in
      let cat = Youtopia.System.catalog sys in
      List.iter
        (fun q -> ignore (Core.Coordinator.submit coordinator q))
        (Travel.Workload.noise_queries cat ~n ~dests:Travel.Datagen.cities);
      (* measure the arrival latency of real matching pairs on top *)
      let total = ref 0. in
      for i = 1 to probes do
        let a = Printf.sprintf "probeA%d" i and b = Printf.sprintf "probeB%d" i in
        ignore
          (Core.Coordinator.submit coordinator
             (Travel.Workload.pair_query cat ~user:a ~friend:b ~dest:"Paris"));
        let elapsed, outcome =
          time_once (fun () ->
              Core.Coordinator.submit coordinator
                (Travel.Workload.pair_query cat ~user:b ~friend:a ~dest:"Paris"))
        in
        (match outcome with
        | Core.Coordinator.Answered _ -> ()
        | _ -> failwith "probe pair should match");
        total := !total +. elapsed
      done;
      n, !total /. float_of_int probes)
    sizes

let e8_pending { fast; seed } =
  header "E8 (§3 loaded system) — match latency vs pending-store size";
  let sizes = if fast then [ 16; 128; 1024 ] else [ 16; 64; 256; 1024; 4096 ] in
  say "%10s %20s" "pending" "pair match lat(us)";
  List.iter
    (fun (n, lat) -> say "%10d %20.1f" n (lat *. 1e6))
    (run_pending_sweep ~seed sizes);
  say "(head-indexed candidate lookup keeps arrival latency nearly flat";
  say " as unrelated pending queries accumulate)"

(* ------------------------------------------------------------------ *)
(* E9 — database size sensitivity of grounding. *)

let e9_dbsize { fast; seed } =
  header "E9 — grounding cost vs database size (|Flights| sweep)";
  let sizes = if fast then [ 16; 256 ] else [ 16; 128; 1024; 8192 ] in
  say "%10s %16s %20s" "flights" "paris flights" "pair match lat(us)";
  List.iter
    (fun f ->
      let sys = fresh_travel ~seed ~n_flights:f () in
      let coordinator = Youtopia.System.coordinator sys in
      let cat = Youtopia.System.catalog sys in
      let probes = 20 in
      let total = ref 0. in
      for i = 1 to probes do
        let a = Printf.sprintf "dA%d" i and b = Printf.sprintf "dB%d" i in
        ignore
          (Core.Coordinator.submit coordinator
             (Travel.Workload.pair_query cat ~user:a ~friend:b ~dest:"Paris"));
        let elapsed, _ =
          time_once (fun () ->
              Core.Coordinator.submit coordinator
                (Travel.Workload.pair_query cat ~user:b ~friend:a ~dest:"Paris"))
        in
        total := !total +. elapsed
      done;
      say "%10d %16d %20.1f" f
        (f / Array.length Travel.Datagen.cities)
        (!total /. float_of_int probes *. 1e6))
    sizes;
  say "(each pair enumerates the candidate Paris flights once: latency";
  say " grows linearly with the relevant fraction of the database)"

(* ------------------------------------------------------------------ *)
(* E10 — entangled coordination vs out-of-band baseline. *)

let e10_baseline { fast; seed } =
  header
    "E10 (§1 motivation) — entangled queries vs out-of-band polling baseline";
  say "%28s %8s %10s %8s %10s %12s" "mode" "pairs" "succeeded" "failed"
    "txns/match" "elapsed(ms)";
  let cases = if fast then [ 8, 4 ] else [ 8, 4; 32, 8; 64, 8 ] in
  List.iter
    (fun (pairs, seats) ->
      (* contention: all pairs want Paris; few flights, few seats *)
      let specs =
        List.init pairs (fun i ->
            Printf.sprintf "L%d" i, Printf.sprintf "P%d" i, "Paris")
      in
      (* baseline *)
      let data_seed = Scenarios.Scengen.derive ~seed "e10.data" in
      let sys_b =
        Travel.Datagen.make_system ~seed:data_seed ~n_flights:16 ~n_hotels:4
          ~seats_per_flight:seats ()
      in
      let elapsed_b, result =
        time_once (fun () ->
            Travel.Baseline.run (Youtopia.System.database sys_b) specs ())
      in
      say "%28s %8d %10d %8d %10d %12.2f" "out-of-band polling" pairs
        result.Travel.Baseline.succeeded result.Travel.Baseline.failed
        result.Travel.Baseline.txns (elapsed_b *. 1e3);
      (* entangled *)
      let social = Travel.Social.create () in
      List.iter (fun (a, b, _) -> Travel.Social.befriend social a b) specs;
      let app =
        Travel.App.create ~social ~seed:data_seed ~n_flights:16 ~n_hotels:4 ()
      in
      (* shrink seats to match *)
      let db = Youtopia.System.database (Travel.App.system app) in
      let flights = Database.find_table db "Flights" in
      Table.iter
        (fun row_id row ->
          let updated = Array.copy row in
          updated.(5) <- Value.Int seats;
          ignore (Table.update flights row_id updated))
        flights;
      let answered = ref 0 in
      let elapsed_e, () =
        time_once (fun () ->
            List.iter
              (fun (a, b, dest) ->
                ignore (Travel.App.coordinate_flight app a ~friends:[ b ] ~dest ()))
              specs;
            List.iter
              (fun (a, b, dest) ->
                match Travel.App.coordinate_flight app b ~friends:[ a ] ~dest () with
                | Core.Coordinator.Answered _ -> incr answered
                | _ -> ())
              specs)
      in
      let coordinator = Youtopia.System.coordinator (Travel.App.system app) in
      let stats = Core.Coordinator.stats coordinator in
      say "%28s %8d %10d %8d %10d %12.2f" "entangled queries" pairs !answered
        (pairs - !answered)
        stats.Core.Stats.match_attempts (elapsed_e *. 1e3))
    cases;
  say "(the baseline pays polling transactions and restarts under seat";
  say " contention and can strand pairs; entangled queries match exactly";
  say " when capacity allows, atomically, or wait — no partial bookings)"

(* ------------------------------------------------------------------ *)
(* E13 — cascade chains: one arrival unwinds a dependency chain. *)

let e13_cascade { fast; _ } =
  header "E13 (cascades) — one arrival fulfils a k-deep dependency chain";
  say "%8s %18s %16s" "depth" "arrival lat(us)" "fulfilled";
  let depths = if fast then [ 1; 8; 32 ] else [ 1; 4; 16; 64; 256 ] in
  List.iter
    (fun k ->
      let db, coord = fig1_system () in
      let cat = db.Database.catalog in
      (* chain: link_1 waits on Solo; link_i waits on link_{i-1} *)
      let waiter me target =
        Core.Translate.of_sql cat ~owner:me
          (Printf.sprintf
             "SELECT '%s', fno INTO ANSWER Reservation WHERE ('%s', fno) IN               ANSWER Reservation CHOOSE 1"
             me target)
      in
      for i = 1 to k do
        let me = Printf.sprintf "link_%d" i in
        let target = if i = 1 then "Solo" else Printf.sprintf "link_%d" (i - 1) in
        match Core.Coordinator.submit coord (waiter me target) with
        | Core.Coordinator.Registered _ -> ()
        | _ -> failwith "chain link should wait"
      done;
      let fulfilled = ref 0 in
      Core.Coordinator.subscribe coord (fun _ -> incr fulfilled);
      let solo =
        Core.Translate.of_sql cat ~owner:"Solo"
          "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT            fno FROM Flights WHERE dest='Paris') CHOOSE 1"
      in
      let elapsed, _ = time_once (fun () -> Core.Coordinator.submit coord solo) in
      assert (!fulfilled = k + 1);
      assert (Core.Pending.size (Core.Coordinator.pending coord) = 0);
      say "%8d %18.1f %16d" k (elapsed *. 1e6) !fulfilled)
    depths;
  say "(latency grows linearly with chain depth: the cascade retries only";
  say " the queries each fresh tuple can actually help)"

(* ------------------------------------------------------------------ *)
(* NET — the travel pair workload end-to-end over loopback TCP. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let e_net { fast; seed } =
  header
    "NET — travel pair workload over loopback TCP (wire protocol, pushed \
     answers)";
  let n = if fast then 32 else 256 in
  let n_workers = 8 in
  let sys = fresh_travel ~seed ~n_flights:64 () in
  let config = { Net.Server.default_config with Net.Server.port = 0 } in
  let server = Net.Server.start ~config sys in
  let port = Net.Server.port server in
  say "server on 127.0.0.1:%d; %d pairs across %d client connections" port n
    n_workers;
  let arrivals =
    Travel.Workload.pair_arrivals
      ~seed:(Scenarios.Scengen.derive ~seed "pair_arrivals")
      ~n ~dests:Travel.Datagen.cities
  in
  let shares = Array.make n_workers [] in
  List.iteri
    (fun i a -> shares.(i mod n_workers) <- a :: shares.(i mod n_workers))
    arrivals;
  Array.iteri (fun i l -> shares.(i) <- List.rev l) shares;
  let results = Array.make n_workers ([], 0) in
  let elapsed, () =
    time_once (fun () ->
        let workers =
          Array.init n_workers (fun w ->
              Thread.create
                (fun () ->
                  let client =
                    Net.Client.connect ~port
                      ~user:(Printf.sprintf "worker%d" w)
                      ()
                  in
                  let latencies =
                    List.map
                      (fun (user, friend, dest) ->
                        let s = Unix.gettimeofday () in
                        ignore
                          (Net.Client.submit client
                             (Travel.Workload.pair_sql ~user ~friend ~dest));
                        Unix.gettimeofday () -. s)
                      shares.(w)
                  in
                  (* every submitted query eventually matches (both halves
                     of every pair are in the workload), so this worker is
                     owed exactly one pushed answer per submission *)
                  let expected = List.length shares.(w) in
                  let rec collect got =
                    if got >= expected then got
                    else
                      match Net.Client.wait_notification ~timeout:30. client with
                      | Some _ -> collect (got + 1)
                      | None -> got
                  in
                  let pushes = collect (List.length (Net.Client.poll_notifications client)) in
                  Net.Client.close client;
                  results.(w) <- (latencies, pushes))
                ())
        in
        Array.iter Thread.join workers)
  in
  let latencies =
    Array.of_list (Array.fold_left (fun acc (l, _) -> l @ acc) [] results)
  in
  Array.sort compare latencies;
  let pushes = Array.fold_left (fun acc (_, p) -> acc + p) 0 results in
  let submits = Array.length latencies in
  say "%10s %12s %14s %12s %12s %12s" "queries" "elapsed(s)" "queries/s"
    "p50(us)" "p99(us)" "max(us)";
  say "%10d %12.4f %14.0f %12.1f %12.1f %12.1f" submits elapsed
    (float_of_int submits /. elapsed)
    (percentile latencies 0.50 *. 1e6)
    (percentile latencies 0.99 *. 1e6)
    (percentile latencies 1.0 *. 1e6);
  say "pushed answers received: %d (expected %d — every query matched)" pushes
    submits;
  (* server-side counters via the admin probe, over the wire *)
  let probe = Net.Client.connect ~port ~user:"bench-admin" () in
  say "server counters (ADMIN|server):";
  String.split_on_char '\n' (Net.Client.admin probe "server")
  |> List.iter (fun l -> say "  %s" l);
  Net.Client.close probe;
  Net.Server.stop server;
  if pushes <> submits then failwith "NET: missing pushed answers"

(* ------------------------------------------------------------------ *)
(* BATCH — group commit & batched coordination: write throughput and
   latency over loopback TCP, swept across server batching x WAL
   durability.  The batched rows and their per-request baselines run at
   EQUAL durability: a batched fsync-mode request is only acked after its
   batch's fsync, same promise as a per-request fsync, so any throughput
   gap is pure amortisation (one engine lock, one flush/fsync, one
   coordinator poke per batch instead of per statement). *)

let e_batch { fast; seed } =
  header
    "BATCH — server write batching x WAL durability (write-heavy travel \
     workload, loopback TCP)";
  let n_clients = if fast then 8 else 16 in
  let per_client = if fast then 50 else 100 in
  let n_parked = 16 in
  let total = n_clients * per_client in
  say "%d writer clients x %d INSERTs, %d parked entangled queries re-checked \
       per poke"
    n_clients per_client n_parked;
  let run_variant ~max_batch ~durability =
    let sys = fresh_travel ~seed ~n_flights:32 () in
    let db = Youtopia.System.database sys in
    let wal_path = Filename.temp_file "youtopia_batch" ".wal" in
    Database.attach_wal ~durability db wal_path;
    (* parked pairs over a flightless destination: every per-batch poke
       re-evaluates them against the mutated Flights table, none ever
       fulfils — the steady-state coordination work writes pay for *)
    let coordinator = Youtopia.System.coordinator sys in
    let cat = Youtopia.System.catalog sys in
    for i = 1 to n_parked do
      ignore
        (Core.Coordinator.submit coordinator
           (Travel.Workload.pair_query cat
              ~user:(Printf.sprintf "parked%d" i)
              ~friend:(Printf.sprintf "ghost%d" i)
              ~dest:"Nowhere"))
    done;
    let config =
      { Net.Server.default_config with Net.Server.port = 0; max_batch }
    in
    let server = Net.Server.start ~config sys in
    let port = Net.Server.port server in
    let lats = Array.make n_clients [] in
    let elapsed, () =
      time_once (fun () ->
          let workers =
            Array.init n_clients (fun w ->
                Thread.create
                  (fun () ->
                    let client =
                      Net.Client.connect ~port
                        ~user:(Printf.sprintf "writer%d" w)
                        ()
                    in
                    let acc = ref [] in
                    for i = 1 to per_client do
                      let fno = 100_000 + (w * 10_000) + i in
                      let s = Unix.gettimeofday () in
                      ignore
                        (Net.Client.submit client
                           (Printf.sprintf
                              "INSERT INTO Flights VALUES (%d, 'Lima', \
                               'Atlantis', %d, 99.0, 4)"
                              fno (i mod 30)));
                      acc := (Unix.gettimeofday () -. s) :: !acc
                    done;
                    Net.Client.close client;
                    lats.(w) <- !acc)
                  ())
          in
          Array.iter Thread.join workers)
    in
    let snap = Net.Server_stats.snapshot (Net.Server.stats server) in
    let io = Database.wal_io db in
    Net.Server.stop server;
    (try Sys.remove wal_path with Sys_error _ -> ());
    let latencies =
      Array.of_list (Array.fold_left (fun acc l -> l @ acc) [] lats)
    in
    Array.sort compare latencies;
    let fsyncs =
      match io with Some s -> s.Relational.Wal.fsyncs | None -> 0
    in
    ( float_of_int total /. elapsed,
      percentile latencies 0.50 *. 1e6,
      percentile latencies 0.99 *. 1e6,
      snap.Net.Server_stats.batch_size_mean,
      fsyncs )
  in
  (* per-request is the same batch executor at max_batch = 1 *)
  let variants =
    [
      ("flush_per_request", 1, Wal.Flush_per_commit);
      ("flush_batched32", 32, Wal.Flush_per_commit);
      ("fsync_per_request", 1, Wal.Fsync_per_commit);
      ("fsync_batched8", 8, Wal.Fsync_per_commit);
      ("fsync_batched32", 32, Wal.Fsync_per_commit);
    ]
  in
  say "%20s %10s %10s %10s %11s %8s" "variant" "writes/s" "p50(us)" "p99(us)"
    "batch mean" "fsyncs";
  let results =
    List.map
      (fun (label, max_batch, durability) ->
        (* best of two trials: fsync latency on a shared disk is noisy
           enough that a single cold run can misstate a variant by 2-3x *)
        let ((qps1, _, _, _, _) as trial1) =
          run_variant ~max_batch ~durability
        in
        let ((qps2, _, _, _, _) as trial2) =
          run_variant ~max_batch ~durability
        in
        let qps, p50, p99, bmean, fsyncs =
          if qps2 > qps1 then trial2 else trial1
        in
        say "%20s %10.0f %10.1f %10.1f %11.2f %8d" label qps p50 p99 bmean
          fsyncs;
        record ~experiment:"BATCH" ~metric:(label ^ "_qps") qps;
        record ~experiment:"BATCH" ~metric:(label ^ "_p50_us") p50;
        record ~experiment:"BATCH" ~metric:(label ^ "_p99_us") p99;
        record ~experiment:"BATCH" ~metric:(label ^ "_batch_mean") bmean;
        record ~experiment:"BATCH" ~metric:(label ^ "_fsyncs")
          (float_of_int fsyncs);
        label, qps)
      variants
  in
  let qps_of l = List.assoc l results in
  (* headline: best batched variant vs the per-request baseline at the
     same durability (the variants differ only in max_batch tuning) *)
  let fsync_speedup =
    Float.max (qps_of "fsync_batched8") (qps_of "fsync_batched32")
    /. qps_of "fsync_per_request"
  in
  let flush_speedup = qps_of "flush_batched32" /. qps_of "flush_per_request" in
  record ~experiment:"BATCH" ~metric:"fsync_speedup" fsync_speedup;
  record ~experiment:"BATCH" ~metric:"flush_speedup" flush_speedup;
  say "  batched vs per-request, equal durability: %.2fx (fsync), %.2fx \
       (flush)"
    fsync_speedup flush_speedup;
  say "  (the fsync gap is group commit: one disk barrier per batch instead";
  say "   of one per statement; the flush gap is lock + poke amortisation)"

(* ------------------------------------------------------------------ *)
(* Microbenchmarks of the engine primitives (supporting table). *)

let e_micro () =
  header "Microbenchmarks — engine primitives (OLS ns/op)";
  let db, _coord = fig1_system () in
  let cat = db.Database.catalog in
  let atom_a =
    Core.Atom.make "R" [ Core.Term.Const (Value.Str "Jerry"); Core.Term.Var "f" ]
  in
  let atom_b =
    Core.Atom.make "R" [ Core.Term.Var "n"; Core.Term.Const (Value.Int 122) ]
  in
  let unify_ns =
    ols_ns "unify" (fun () ->
        ignore (Core.Subst.unify_atoms Core.Subst.empty atom_a atom_b))
  in
  let plan =
    Sql.Compile.compile_select cat
      (match Sql.Parser.parse_one "SELECT fno FROM Flights WHERE dest = 'Paris'" with
      | Sql.Ast.Select s -> s
      | _ -> assert false)
  in
  let exec_ns = ols_ns "execute" (fun () -> ignore (Executor.run cat plan)) in
  let q = Core.Translate.of_sql cat ~owner:"K" (pair_sql "K" "J") in
  let stats = Core.Stats.create () in
  let ground_ns =
    ols_ns "ground" (fun () ->
        ignore (Core.Ground.first cat stats q Core.Subst.empty))
  in
  say "  atom unification:        %8.0f ns" unify_ns;
  say "  SPJ subplan execution:   %8.0f ns" exec_ns;
  say "  query grounding (first): %8.0f ns" ground_ns

(* ------------------------------------------------------------------ *)
(* INC — incremental matching: table-level poke.

   A loaded pending store under mutation-driven pokes.  [n_pending]
   never-fulfillable queries (each waits on a ghost partner) are spread
   across [n_tables] base tables; every query also reads a shared [Common]
   table that never changes.  Each measured iteration inserts one
   non-matching row into one base table (directly, so the tuple-level
   probe has nothing to add) and pokes.  Two retry policies:
   - [All], the baseline, retries everything;
   - [Tables] retries only the mutated table's readers (1/n_tables of the
     store).
   Every retry re-runs both of its query's sub-plans, the unchanged
   [Common] one included.  [poke_retry_speedup], the ratio of retries per
   poke, is a deterministic count ([n_tables] by construction) that CI
   gates; [poke_speedup] is the wall-clock ratio, recorded but not
   gated. *)
let inc_variant ~fast ~retry =
  let n_tables = 16 in
  let rows_per_table = if fast then 64 else 200 in
  let common_rows = if fast then 128 else 400 in
  let n_pending = if fast then 256 else 1024 in
  let n_pokes = if fast then 8 else 32 in
  let db = Database.create () in
  let make_table name rows =
    let t =
      Database.create_table db
        (Schema.make name
           [ Schema.column "id" Ctype.TInt; Schema.column "grp" Ctype.TInt ])
    in
    for i = 0 to rows - 1 do
      ignore (Table.insert t [| Value.Int i; Value.Int (i mod n_tables) |])
    done;
    t
  in
  let tables =
    Array.init n_tables (fun j ->
        make_table (Printf.sprintf "T%d" j) rows_per_table)
  in
  ignore (make_table "Common" common_rows);
  let config = { Core.Coordinator.default_config with Core.Coordinator.retry } in
  let coord = Core.Coordinator.create ~config db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "Res"
       [ Schema.column "name" Ctype.TText; Schema.column "x" Ctype.TInt ]);
  let cat = db.Database.catalog in
  for i = 1 to n_pending do
    let g = i mod n_tables in
    let sql =
      Printf.sprintf
        "SELECT 'u%d', x INTO ANSWER Res WHERE x IN (SELECT id FROM T%d \
         WHERE grp = %d) AND x IN (SELECT id FROM Common WHERE grp = %d) \
         AND ('ghost%d', x) IN ANSWER Res CHOOSE 1"
        i g g g i
    in
    match
      Core.Coordinator.submit coord
        (Core.Translate.of_sql cat ~owner:(Printf.sprintf "u%d" i) sql)
    with
    | Core.Coordinator.Registered _ -> ()
    | _ -> failwith "INC: query should park (ghost partner never arrives)"
  done;
  (* prime: first poke retries everything in every variant (empty version
     snapshot) — keep it out of the measured region *)
  ignore (Core.Coordinator.poke coord);
  let stats = Core.Coordinator.stats coord in
  let g0 = stats.Core.Stats.groundings in
  let r0 = stats.Core.Stats.dirty_retries in
  let elapsed, () =
    time_once (fun () ->
        for k = 1 to n_pokes do
          (* grp -1 matches no query's filter: the poke finds no new match,
             which is the common case incremental matching optimizes *)
          ignore
            (Table.insert
               tables.(k mod n_tables)
               [| Value.Int (rows_per_table + k); Value.Int (-1) |]);
          ignore (Core.Coordinator.poke coord)
        done)
  in
  let per_poke total = float_of_int total /. float_of_int n_pokes in
  ( elapsed *. 1e9 /. float_of_int n_pokes,
    per_poke (stats.Core.Stats.groundings - g0),
    per_poke (stats.Core.Stats.dirty_retries - r0) )

let e_inc { fast; _ } =
  header "INC — incremental matching: table-level poke";
  let variants =
    [
      "baseline (retry all)", "baseline", Core.Coordinator.All;
      "table-level", "full", Tables;
    ]
  in
  say "%32s %16s %18s %16s" "variant" "ns/poke" "groundings/poke"
    "retries/poke";
  let results =
    List.map
      (fun (label, slug, retry) ->
        let ns, groundings, retries = inc_variant ~fast ~retry in
        say "%32s %16.0f %18.1f %16.1f" label ns groundings retries;
        record ~experiment:"INC" ~metric:(slug ^ "_ns_per_poke") ns;
        record ~experiment:"INC" ~metric:(slug ^ "_groundings_per_poke")
          groundings;
        record ~experiment:"INC" ~metric:(slug ^ "_retries_per_poke") retries;
        ns, retries)
      variants
  in
  match results with
  | [ (baseline, baseline_retries); (full, full_retries) ] ->
    say "  poke speedup, table-level vs baseline: %.1fx" (baseline /. full);
    record ~experiment:"INC" ~metric:"poke_speedup" (baseline /. full);
    say "  retries per poke, baseline / table-level: %.1fx"
      (baseline_retries /. full_retries);
    record ~experiment:"INC" ~metric:"poke_retry_speedup"
      (baseline_retries /. full_retries)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* MATCH — retry targeting at scale: 100k (fast) / 1M pending queries with
   Zipf-skewed selection constants, bursty localized commits.  Three retry
   policies: [All] (retry everything), [Tables] (table-level
   reader set) and [Tuples] (constraint-index probing).  The headline
   metrics are retries-per-commit — deterministic counts given the seed, so the
   tuple-vs-table ratio is CI-gateable even on a noisy 1-core box — plus
   wall-clock ns/poke and end-to-end fulfilment latency. *)

(* One MATCH variant: build the pending population, drive bursty commits,
   measure.  Returns (ns/poke, retries/commit, fulfilment ms). *)
let match_variant ~fast ~seed ~retry =
  let n_tables = 8 in
  let n_consts = 10_000 in
  let n_pending = if fast then 100_000 else 1_000_000 in
  let burst = 8 in
  (* poke_all re-executes every pending query per poke; a couple of commits
     is plenty to measure it (and all it can show is the flat line) *)
  let n_commits =
    match retry with
    | Core.Coordinator.All -> 2
    | Tables | Tuples -> if fast then 24 else 32
  in
  let seed_rows = 32 in
  let db = Database.create () in
  let tables =
    Array.init n_tables (fun j ->
        let t =
          Database.create_table db
            (Schema.make
               (Printf.sprintf "T%d" j)
               [ Schema.column "id" Ctype.TInt; Schema.column "grp" Ctype.TInt ])
        in
        (* grp -1 matches no pending query: submissions park immediately *)
        for i = 0 to seed_rows - 1 do
          ignore (Table.insert t [| Value.Int i; Value.Int (-1) |])
        done;
        t)
  in
  let config = { Core.Coordinator.default_config with Core.Coordinator.retry } in
  let coord = Core.Coordinator.create ~config db in
  Core.Coordinator.declare_answer_relation coord
    (Schema.make "Res"
       [ Schema.column "name" Ctype.TText; Schema.column "x" Ctype.TInt ]);
  let cat = db.Database.catalog in
  let gen =
    Scenarios.Scengen.create ~seed ~label:"match.zipf" ~users:n_consts
      ~skew:0.7 ()
  in
  let zipf () = Scenarios.Scengen.user gen in
  for i = 1 to n_pending do
    let g = i mod n_tables in
    let c = zipf () in
    let sql =
      Printf.sprintf
        "SELECT 'u%d', x INTO ANSWER Res WHERE x IN (SELECT id FROM T%d \
         WHERE grp = %d) AND ('ghost%d', x) IN ANSWER Res CHOOSE 1"
        i g c i
    in
    match
      Core.Coordinator.submit coord
        (Core.Translate.of_sql cat ~owner:(Printf.sprintf "u%d" i) sql)
    with
    | Core.Coordinator.Registered _ -> ()
    | _ -> failwith "MATCH: query should park (ghost partner never arrives)"
  done;
  (* prime: the first poke retries everything in every mode (empty version
     snapshot) — keep it out of the measured region *)
  ignore (Core.Coordinator.poke coord);
  let stats = Core.Coordinator.stats coord in
  let r0 = stats.Core.Stats.dirty_retries in
  let next_id = ref 1_000_000 in
  let elapsed, () =
    time_once (fun () ->
        for k = 1 to n_commits do
          (* one bursty localized commit: [burst] rows into one table, all
             with Zipf-drawn constants — the locality tuple probing mines *)
          let t = tables.(k mod n_tables) in
          Database.with_txn db (fun txn ->
              for _ = 1 to burst do
                incr next_id;
                ignore
                  (Txn.insert txn t [| Value.Int !next_id; Value.Int (zipf ()) |])
              done);
          ignore (Core.Coordinator.poke coord)
        done)
  in
  let retries_per_commit =
    float_of_int (stats.Core.Stats.dirty_retries - r0)
    /. float_of_int n_commits
  in
  (* fulfilment latency: park a real pair on a fresh constant, commit the
     enabling row, time the poke that matches and notifies them *)
  let fulfil_ms =
    let probes = 3 in
    let total = ref 0.0 in
    for p = 1 to probes do
      let c = n_consts + p in
      let submit me partner =
        ignore
          (Core.Coordinator.submit coord
             (Core.Translate.of_sql cat ~owner:me
                (Printf.sprintf
                   "SELECT '%s', x INTO ANSWER Res WHERE x IN (SELECT id \
                    FROM T0 WHERE grp = %d) AND ('%s', x) IN ANSWER Res \
                    CHOOSE 1"
                   me c partner)))
      in
      let a = Printf.sprintf "lat_a%d" p and b = Printf.sprintf "lat_b%d" p in
      submit a b;
      submit b a;
      incr next_id;
      Database.with_txn db (fun txn ->
          ignore
            (Txn.insert txn tables.(0) [| Value.Int !next_id; Value.Int c |]));
      let dt, notifications = time_once (fun () -> Core.Coordinator.poke coord) in
      if List.length notifications <> 2 then
        failwith "MATCH: latency pair should fulfil";
      total := !total +. dt
    done;
    !total /. float_of_int probes *. 1e3
  in
  elapsed *. 1e9 /. float_of_int n_commits, retries_per_commit, fulfil_ms

let e_match { fast; seed } =
  header
    "MATCH — retry targeting at 100k-1M pending: none vs table-level vs \
     tuple-level";
  let variants =
    [
      "retry everything", "noindex", Core.Coordinator.All;
      "table-level reader set", "table", Tables;
      "tuple-level index", "tuple", Tuples;
    ]
  in
  say "%24s %16s %18s %14s" "variant" "ns/poke" "retries/commit" "fulfil(ms)";
  let results =
    List.map
      (fun (label, slug, retry) ->
        let ns, retries, fulfil_ms = match_variant ~fast ~seed ~retry in
        say "%24s %16.0f %18.1f %14.2f" label ns retries fulfil_ms;
        record ~experiment:"MATCH" ~metric:(slug ^ "_ns_per_poke") ns;
        record ~experiment:"MATCH"
          ~metric:(slug ^ "_retries_per_commit")
          retries;
        record ~experiment:"MATCH" ~metric:(slug ^ "_fulfil_ms") fulfil_ms;
        retries)
      variants
  in
  match results with
  | [ noindex_r; table_r; tuple_r ] ->
    let vs_table = table_r /. tuple_r and vs_none = noindex_r /. tuple_r in
    (* retry counts are deterministic given the seed, so these ratios are
       stable enough to gate in CI even on a noisy box *)
    record ~experiment:"MATCH" ~metric:"tuple_vs_table_retry_speedup" vs_table;
    record ~experiment:"MATCH" ~metric:"tuple_vs_noindex_retry_speedup" vs_none;
    say "  retries/commit reduction, tuple vs table: %.1fx; vs retry-all: \
         %.0fx"
      vs_table vs_none
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* SCEN — the scenario subsystem under load.  Part 1: k-way group
   formation with >=100k parked members (each waiting on ghost partners)
   spread over Zipf-popular (dest, day) buckets; commits are bursty
   under-capacity ride insertions into Zipf-drawn buckets, so tuple-level
   probing ([Tuples]) retries only the mutated bucket's members while the
   table-level reader set ([Tables]) retries every parked member on every
   commit.  Retry counts
   are deterministic given the seed, so the per-k tuple-vs-table ratios
   are the CI-gated metrics; clique-close latency at full load is the
   informational headline.  Part 2: a lock-lease soak driven by the shared
   generator (Zipf owners, bursty arrivals, weighted op mix) whose
   pass/fail is the I-L1/I-L2 invariant audit. *)

let scen_days = 30

(* rank -> (dest, day): 6 x 30 = 180 buckets, Zipf-popular by rank *)
let scen_bucket gen =
  let n_dests = Array.length Scenarios.Groups.dests in
  let rank = Scenarios.Scengen.user gen in
  Scenarios.Groups.dests.(rank mod n_dests), 1 + (rank / n_dests)

(* One group-formation variant: park the population, drive bursty
   commits, measure.  Returns (ns/poke, retries/commit, close-lat us,
   pending size). *)
let scen_group_variant ~fast ~seed ~k ~retry =
  let n_pending = if fast then 100_000 else 200_000 in
  let burst = 8 in
  (* the table-level reader set retries all of [n_pending] per commit, so a
     few commits are plenty to verify the flat line *)
  let n_commits =
    match retry with
    | Core.Coordinator.Tuples -> if fast then 12 else 24
    | Tables | All -> 4
  in
  let n_dests = Array.length Scenarios.Groups.dests in
  let config = { Core.Coordinator.default_config with Core.Coordinator.retry } in
  let sys =
    (* capacity k-1: real rides exist in every bucket but none can seat the
       whole clique, so parked members stay parked through the measurement *)
    Scenarios.Groups.make_system ~config
      ~seed:(Scenarios.Scengen.derive ~seed "scen.rides")
      ~n_rides:(n_dests * scen_days)
      ~capacity:(k - 1) ()
  in
  let coord = Youtopia.System.coordinator sys in
  let cat = Youtopia.System.catalog sys in
  let db = Youtopia.System.database sys in
  let rides = Database.find_table db "Rides" in
  (* same label for the tuple and table variants at one k: identical parked
     populations and commit targets, so the ratio compares like with like *)
  let gen =
    Scenarios.Scengen.create ~seed
      ~label:(Printf.sprintf "scen.buckets.k%d" k)
      ~users:(n_dests * scen_days) ~skew:0.9 ()
  in
  for i = 1 to n_pending do
    let dest, day = scen_bucket gen in
    let me = Printf.sprintf "p%d_%d" k i in
    let others =
      List.init (k - 1) (fun j -> Printf.sprintf "ghost%d_%d_%d" k i j)
    in
    let sql = Scenarios.Groups.member_sql ~me ~others ~day ~dest ~k () in
    match Core.Coordinator.submit coord (Core.Translate.of_sql cat ~owner:me sql) with
    | Core.Coordinator.Registered _ -> ()
    | _ -> failwith "SCEN: member should park (ghost partners never arrive)"
  done;
  (* prime: the first poke retries everything in every mode (empty version
     snapshot) — keep it out of the measured region *)
  ignore (Core.Coordinator.poke coord);
  let stats = Core.Coordinator.stats coord in
  let r0 = stats.Core.Stats.dirty_retries in
  let next_rid = ref 1_000_000 in
  let elapsed, () =
    time_once (fun () ->
        for _ = 1 to n_commits do
          (* one bursty localized commit: [burst] zero-seat rides into one
             Zipf-drawn bucket — nothing fulfils, but the bucket's parked
             members must be re-checked *)
          let dest, day = scen_bucket gen in
          Database.with_txn db (fun txn ->
              for _ = 1 to burst do
                incr next_rid;
                ignore
                  (Txn.insert txn rides
                     [|
                       Value.Int !next_rid; Value.Str dest; Value.Int day;
                       Value.Int 0;
                     |])
              done);
          ignore (Core.Coordinator.poke coord)
        done)
  in
  let retries_per_commit =
    float_of_int (stats.Core.Stats.dirty_retries - r0)
    /. float_of_int n_commits
  in
  (* clique-close latency at full load: a fresh k-seat ride in a bucket no
     parked member watches, then the whole clique — the k-th submission
     pays the close *)
  let close_us =
    let probes = 3 in
    let total = ref 0.0 in
    for p = 1 to probes do
      let dest = Scenarios.Groups.dests.(0) in
      let day = scen_days + 10 + p in
      incr next_rid;
      Database.with_txn db (fun txn ->
          ignore
            (Txn.insert txn rides
               [|
                 Value.Int !next_rid; Value.Str dest; Value.Int day;
                 Value.Int k;
               |]));
      let members = List.init k (fun j -> Printf.sprintf "probe%d_%d_%d" k p j) in
      let submit me =
        let others = List.filter (fun o -> o <> me) members in
        Core.Coordinator.submit coord
          (Core.Translate.of_sql cat ~owner:me
             (Scenarios.Groups.member_sql ~me ~others ~day ~dest ~k ()))
      in
      let rec go = function
        | [] -> failwith "SCEN: empty probe group"
        | [ last ] ->
          let dt, outcome = time_once (fun () -> submit last) in
          (match outcome with
          | Core.Coordinator.Answered _ -> ()
          | _ -> failwith "SCEN: probe clique should close");
          dt
        | m :: rest ->
          (match submit m with
          | Core.Coordinator.Registered _ -> ()
          | _ -> failwith "SCEN: early probe member should park");
          go rest
      in
      total := !total +. go members
    done;
    !total /. float_of_int probes *. 1e6
  in
  ( elapsed *. 1e9 /. float_of_int n_commits,
    retries_per_commit,
    close_us,
    n_pending )

let e_scen { fast; seed } =
  header
    "SCEN — scenario subsystem: k-way group formation at 100k+ pending; \
     lock-lease soak";
  (* -------- part 1: k-way formation, tuple vs table retry targeting ---- *)
  (* the table-level reader set retries every parked member per commit
     regardless of k, so one measured run (at k = 2) is the shared
     denominator for every ratio *)
  let _, table_retries, _, np =
    scen_group_variant ~fast ~seed ~k:2 ~retry:Tables
  in
  say
    "table-level reader set, k=2: %.0f retries/commit over %d parked members"
    table_retries np;
  if int_of_float table_retries <> np then
    failwith "SCEN: table-level reader set should retry every parked member";
  record ~experiment:"SCEN" ~metric:"table_retries_per_commit" table_retries;
  say "%6s %10s %14s %18s %16s %10s" "k" "pending" "ns/poke"
    "tuple retr/commit" "close lat(us)" "vs table";
  List.iter
    (fun k ->
      let ns, retries, close_us, np =
        scen_group_variant ~fast ~seed ~k ~retry:Tuples
      in
      let speedup = table_retries /. retries in
      say "%6d %10d %14.0f %18.1f %16.1f %9.0fx" k np ns retries close_us
        speedup;
      let m metric v = record ~experiment:"SCEN" ~metric v in
      m (Printf.sprintf "k%d_tuple_ns_per_poke" k) ns;
      m (Printf.sprintf "k%d_tuple_retries_per_commit" k) retries;
      m (Printf.sprintf "k%d_close_latency_us" k) close_us;
      (* retry counts are deterministic given the seed: gateable in CI *)
      m (Printf.sprintf "k%d_tuple_vs_table_retry_speedup" k) speedup)
    [ 2; 3; 5; 8 ];
  say "(tuple-level probing pays per mutated (dest, day) bucket, not per";
  say " parked member — and the clique close stays flat as k grows because";
  say " the k-th member's search touches only its own group's partners)";
  (* -------- part 2: lock-lease soak under the shared generator -------- *)
  let n_locks = 64 in
  let app = Scenarios.Locks.create ~n_locks () in
  let gen =
    Scenarios.Scengen.create ~seed ~label:"scen.locks" ~users:400 ()
  in
  let n_ops = if fast then 2_000 else 10_000 in
  let tick = ref 0 in
  let granted = ref 0 and waited = ref 0 and reclaimed = ref 0 in
  let one_op () =
    incr tick;
    let name =
      Scenarios.Locks.lock_name (Scenarios.Scengen.uniform gen n_locks)
    in
    let ttl () = 5 + Scenarios.Scengen.uniform gen 40 in
    match
      Scenarios.Scengen.pick gen
        [ 50, `Acquire; 25, `Release; 15, `Renew; 10, `Sweep ]
    with
    | `Acquire -> (
      let owner = Scenarios.Scengen.user_name gen in
      match Scenarios.Locks.acquire app ~owner ~name ~now:!tick ~ttl:(ttl ()) with
      | Scenarios.Locks.Granted _ -> incr granted
      | Scenarios.Locks.Waiting _ -> incr waited
      | Scenarios.Locks.Refused r -> failwith ("SCEN: acquire refused: " ^ r))
    | `Release -> (
      match Scenarios.Locks.holder app ~name with
      | Some (owner, _, _) -> ignore (Scenarios.Locks.release app ~owner ~name)
      | None -> ())
    | `Renew -> (
      match Scenarios.Locks.holder app ~name with
      | Some (owner, _, _) ->
        ignore (Scenarios.Locks.renew app ~owner ~name ~now:!tick ~ttl:(ttl ()))
      | None -> ())
    | `Sweep -> reclaimed := !reclaimed + Scenarios.Locks.sweep app ~now:!tick ()
  in
  let elapsed, () =
    time_once (fun () ->
        List.iter
          (fun b -> for _ = 1 to b do one_op () done)
          (Scenarios.Scengen.bursts gen ~n:n_ops ()))
  in
  (match Scenarios.Locks.audit (Scenarios.Locks.system app) with
  | [] -> ()
  | errs ->
    List.iter (fun e -> say "  AUDIT VIOLATION: %s" e) errs;
    failwith "SCEN: lock-lease invariants violated");
  let op_us = elapsed /. float_of_int n_ops *. 1e6 in
  say
    "lock-lease soak: %d ops over %d locks (%d grants, %d waits, %d \
     reclaims) at %.1f us/op; I-L1/I-L2 invariants clean"
    n_ops n_locks !granted !waited !reclaimed op_us;
  record ~experiment:"SCEN" ~metric:"locks_ops" (float_of_int n_ops);
  record ~experiment:"SCEN" ~metric:"locks_grants" (float_of_int !granted);
  record ~experiment:"SCEN" ~metric:"locks_reclaims" (float_of_int !reclaimed);
  record ~experiment:"SCEN" ~metric:"locks_op_us" op_us

(* ------------------------------------------------------------------ *)
(* REPL — checkpoint + WAL-shipping replication.  Part 1: 8 point-read
   clients against the primary alone vs routed across 2 read replicas,
   both under a continuous UPDATE stream (the writer holds the primary's
   exclusive lock; replicas serve reads off their own engines).  Part 2:
   recovery time of an update-heavy WAL with vs without a checkpoint —
   replay re-applies every historical update while the snapshot holds
   only the final rows, so the suffix-only path wins by construction and
   the ratio is the gated metric. *)

let e_repl { fast; seed } =
  header
    "REPL — replication: read scale-out across replicas + checkpointed \
     recovery";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_repl_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* -------- part 1: read scale-out under write load --------

     The servers run as separate OS processes (the server binary, like a
     real deployment): OCaml 5 systhreads share one domain, so an
     in-process primary + replicas would multiplex every engine scan over
     a single core and scale-out could never show.  Only the clients
     (readers + one writer) live in the bench process. *)
  let wal_path = Filename.concat dir "primary.wal" in
  let n_rows = if fast then 2048 else 8192 in
  let n_readers = 8 in
  let reads_each = if fast then 100 else 400 in
  let server_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/youtopia_server.exe"
  in
  if not (Sys.file_exists server_exe) then
    failwith ("REPL: server binary not built at " ^ server_exe);
  let free_port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close fd;
    port
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawn args =
    Unix.create_process server_exe
      (Array.of_list (server_exe :: args))
      devnull devnull devnull
  in
  let await_server port =
    let deadline = Unix.gettimeofday () +. 30. in
    let rec go () =
      match Net.Client.connect ~port ~user:"probe" () with
      | c -> Net.Client.close c
      | exception (Unix.Unix_error _ | Net.Wire.Closed) ->
        if Unix.gettimeofday () > deadline then
          failwith "REPL: server did not come up"
        else begin
          Thread.delay 0.05;
          go ()
        end
    in
    go ()
  in
  let pport = free_port () in
  let ppid =
    spawn [ "--port"; string_of_int pport; "--wal"; wal_path ]
  in
  await_server pport;
  let seeder = Net.Client.connect ~port:pport ~user:"seed" () in
  ignore (Net.Client.submit seeder "CREATE TABLE Kv (k INT PRIMARY KEY, v TEXT)");
  for k = 0 to n_rows - 1 do
    ignore
      (Net.Client.submit seeder
         (Printf.sprintf "INSERT INTO Kv VALUES (%d, 'v%d')" k k))
  done;
  let start_replica i =
    let port = free_port () in
    let pid =
      spawn
        [
          "--port"; string_of_int port;
          "--replica-of"; Printf.sprintf "127.0.0.1:%d" pport;
          "--replica-id"; Printf.sprintf "bench-replica-%d" i;
        ]
    in
    await_server port;
    (pid, port)
  in
  let replicas = [ start_replica 1; start_replica 2 ] in
  let synced (_, port) =
    match Net.Client.connect ~port ~user:"sync-probe" () with
    | exception (Unix.Unix_error _ | Net.Wire.Closed) -> false
    | c ->
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
            at 0
          in
          match Net.Client.submit c "SELECT count(*) AS n FROM Kv" with
          | Net.Wire.Sql_result s -> contains s (string_of_int n_rows)
          | _ | (exception Net.Client.Server_error _) -> false)
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    (not (List.for_all synced replicas)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.05
  done;
  if not (List.for_all synced replicas) then
    failwith "REPL: replicas never caught up with the seed data";
  let replica_addrs = List.map (fun (_, p) -> ("127.0.0.1", p)) replicas in
  say
    "primary on :%d; replicas on %s (separate processes); %d rows, %d \
     readers x %d aggregate scans"
    pport
    (String.concat ", "
       (List.map (fun (_, p) -> Printf.sprintf ":%d" p) replica_addrs))
    n_rows n_readers reads_each;
  let run_variant ?(port = pport) ?(with_writer = true) ~label ~routes () =
    let stop_writer = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          if not with_writer then () else
          let c = Net.Client.connect ~port:pport ~user:"writer" () in
          let rng = Scenarios.Scengen.stream ~seed "repl.writer" in
          while not (Atomic.get stop_writer) do
            let k = Random.State.int rng n_rows in
            ignore
              (Net.Client.submit c
                 (Printf.sprintf "UPDATE Kv SET v = 'w%d' WHERE k = %d" k k));
            (* fixed offered write rate (~250/s): unthrottled, the writer
               speeds up exactly when readers leave the primary, flooding
               the replicas' writer-preferring locks with applies and
               measuring the write stream instead of read scale-out *)
            Thread.delay 0.004
          done;
          Net.Client.close c)
        ()
    in
    let elapsed, () =
      time_once (fun () ->
          (* each reader is its own forked process: in-process reader
             threads all serialize on this process's runtime lock and cap
             throughput below what even one server can sustain, hiding
             any scale-out.  Children only open fresh sockets and
             [Unix._exit] — nothing of the parent's state is touched. *)
          let pids =
            List.init n_readers (fun w ->
                match Unix.fork () with
                | 0 ->
                  (try
                     let c =
                       Net.Client.connect ~port ~replicas:routes
                         ~user:(Printf.sprintf "reader%d" w)
                         ()
                     in
                     let rng =
                       Scenarios.Scengen.stream ~seed
                         (Printf.sprintf "repl.reader%d" w)
                     in
                     (* engine-bound reads: an aggregate scan, so serving
                        them is real work a replica can take off the
                        primary (point lookups are RTT-bound and show
                        routing cost, not scale-out) *)
                     for _ = 1 to reads_each do
                       let k = Random.State.int rng n_rows in
                       ignore
                         (Net.Client.submit c
                            (Printf.sprintf
                               "SELECT count(*) AS n, sum(k) AS s FROM Kv \
                                WHERE k >= %d"
                               k))
                     done;
                     Net.Client.close c
                   with _ -> Unix._exit 1);
                  Unix._exit 0
                | pid -> pid)
          in
          List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids)
    in
    Atomic.set stop_writer true;
    Thread.join writer;
    let qps = float_of_int (n_readers * reads_each) /. elapsed in
    say "  %-16s %7d reads in %7.3f s = %9.0f reads/s" label
      (n_readers * reads_each) elapsed qps;
    qps
  in
  let qps_primary = run_variant ~label:"primary only" ~routes:[] () in
  let qps_replicas = run_variant ~label:"+2 replicas" ~routes:replica_addrs () in
  let cores = Domain.recommended_domain_count () in
  say "  read scale-out speedup: %.2fx (%d core(s) on this host%s)"
    (qps_replicas /. qps_primary)
    cores
    (if cores <= 2 then
       "; the servers and readers share the core(s): on 2 cores --fast \
        measured 0.82-1.04x, full size 1.22x"
     else "");
  record ~experiment:"REPL" ~metric:"read_primary_only_qps" qps_primary;
  record ~experiment:"REPL" ~metric:"read_with_replicas_qps" qps_replicas;
  record ~experiment:"REPL" ~metric:"read_scaleout_speedup"
    (qps_replicas /. qps_primary);
  Net.Client.close seeder;
  let reap pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  List.iter (fun (pid, _) -> reap pid) replicas;
  reap ppid;
  Unix.close devnull;

  (* -------- part 2: recovery with vs without a checkpoint -------- *)
  let rwal = Filename.concat dir "recovery.wal" in
  let n_base = if fast then 1_000 else 5_000 in
  let n_updates = if fast then 8_000 else 50_000 in
  let db = Database.create () in
  Database.attach_wal db rwal;
  let t =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Accounts"
         [ Schema.column "id" Ctype.TInt; Schema.column "balance" Ctype.TInt ])
  in
  for i = 0 to n_base - 1 do
    Database.with_txn db (fun txn ->
        ignore (Txn.insert txn t [| Value.Int i; Value.Int 0 |]))
  done;
  let rng = Scenarios.Scengen.stream ~seed "repl.updates" in
  for u = 1 to n_updates do
    let k = Random.State.int rng n_base in
    Database.with_txn db (fun txn ->
        match Table.lookup_pk t [| Value.Int k |] with
        | Some id -> ignore (Txn.update txn t id [| Value.Int k; Value.Int u |])
        | None -> ())
  done;
  Database.close db;
  let t_full, db_full = time_once (fun () -> Database.recover rwal) in
  (* the load-bearing configuration: snapshot + prefix truncation, so the
     next recovery neither reads nor replays the checkpointed history *)
  ignore (Database.checkpoint ~truncate_wal:true db_full);
  Database.close db_full;
  let t_ckpt, db_ckpt = time_once (fun () -> Database.recover rwal) in
  (match Database.recovery_stats db_ckpt with
  | Some { Database.snapshot_lsn = Some _; replayed_batches; _ } ->
    say "  checkpointed recovery replayed %d suffix batch(es)" replayed_batches
  | _ -> failwith "REPL: checkpointed recovery did not use the snapshot");
  Database.close db_ckpt;
  say
    "  recovery of %d-batch WAL: full replay %8.1f ms | from checkpoint \
     %8.1f ms | %.1fx"
    (n_base + n_updates + 1)
    (t_full *. 1e3) (t_ckpt *. 1e3)
    (t_full /. t_ckpt);
  record ~experiment:"REPL" ~metric:"recovery_full_ms" (t_full *. 1e3);
  record ~experiment:"REPL" ~metric:"recovery_ckpt_ms" (t_ckpt *. 1e3);
  record ~experiment:"REPL" ~metric:"recovery_speedup" (t_full /. t_ckpt)

(* ------------------------------------------------------------------ *)
(* CONN — connection scalability of the event loop.  Phase 1 parks a
   wall of idle connections (each held open after a completed HELLO);
   phase 2 runs active submitters through the wall and measures exact p99
   submit latency.  Three walls: none (the latency floor), the matched
   wall (the most a thread-per-connection server held here, two OS
   threads per connection — EXPERIMENTS.md CONN), and the capacity wall
   derived from RLIMIT_NOFILE — each loopback connection costs this
   process two fds (client + server end) — minus a reserve for the WAL
   and listeners. *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let proc_status () =
  (* (VmRSS kB, Threads) of this process; (0, 0) off-Linux *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0, 0
  | ic ->
    let rss = ref 0 and threads = ref 0 in
    (try
       while true do
         let line =
           String.map
             (fun c -> if c = '\t' then ' ' else c)
             (input_line ic)
         in
         let num () =
           match
             String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
           with
           | _ :: v :: _ -> int_of_string_opt v |> Option.value ~default:0
           | _ -> 0
         in
         if has_prefix "VmRSS:" line then rss := num ()
         else if has_prefix "Threads:" line then threads := num ()
       done
     with End_of_file -> ());
    close_in ic;
    !rss, !threads

(* [proc_status] once [Threads:] stops falling — two equal reads 50 ms
   apart, waiting at most 2 s — so threads a previous phase joined but
   the kernel has not yet reaped do not count against the next one *)
let settled_status () =
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go (_, th) =
    Thread.delay 0.05;
    let ((_, th') as cur) = proc_status () in
    if th' >= th || Unix.gettimeofday () >= deadline then cur else go cur
  in
  go (proc_status ())

let nofile_limit () =
  (* soft RLIMIT_NOFILE via /proc/self/limits; 1024 when unreadable *)
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> 1024
  | ic ->
    let limit = ref 1024 in
    (try
       while true do
         let line = input_line ic in
         if has_prefix "Max open files" line then
           match
             String.split_on_char ' '
               (String.map (fun c -> if c = '\t' then ' ' else c) line)
             |> List.filter (fun s -> s <> "")
           with
           | "Max" :: "open" :: "files" :: soft :: _ ->
             limit := int_of_string_opt soft |> Option.value ~default:1024
           | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !limit

let e_conn { fast; seed } =
  header "CONN — idle-connection capacity + active p99 of the event loop";
  let nofile = nofile_limit () in
  let submitters = if fast then 128 else 1000 in
  let per_submitter = 10 in
  (* the thread-per-connection ceiling the matched wall was sized by *)
  let thread_ceiling = if fast then 1024 else 2048 in
  let hello_frame user =
    Net.Wire.encode_request
      (Net.Wire.Hello { version = Net.Wire.protocol_version; user })
  in
  let open_idle port user =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Net.Wire.write_frame fd (hello_frame user);
      Net.Wire.decode_response_kind (Net.Wire.read_frame_kind fd)
    with
    | Net.Wire.Welcome _ -> Some fd
    | _ | (exception _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
  in
  let run_wall ~label ~idle_target =
    let sys = fresh_travel ~seed ~n_flights:32 () in
    let config = { Net.Server.default_config with Net.Server.port = 0 } in
    let rss0, th0 = settled_status () in
    let server = Net.Server.start ~config sys in
    let port = Net.Server.port server in
    (* phase 1: the idle wall *)
    let idle = ref [] in
    let held = ref 0 in
    (try
       for i = 1 to idle_target do
         match open_idle port (Printf.sprintf "%s-idle%d" label i) with
         | Some fd ->
           idle := fd :: !idle;
           incr held
         | None -> raise Exit
       done
     with Exit -> ());
    let rss1, th1 = proc_status () in
    (* the server must still answer promptly at full capacity *)
    let probe = Net.Client.connect ~port ~user:(label ^ "-probe") () in
    if Net.Client.ping ~payload:"up" probe <> "up" then
      failwith "CONN: server unresponsive at capacity";
    (* phase 2: active submitters through the wall *)
    let lats = Array.make submitters [] in
    let workers =
      Array.init submitters (fun w ->
          Thread.create
            (fun () ->
              let c =
                Net.Client.connect ~port
                  ~user:(Printf.sprintf "%s-sub%d" label w)
                  ()
              in
              let acc = ref [] in
              for i = 1 to per_submitter do
                let fno = 300_000 + (w * 100) + i in
                let s = Unix.gettimeofday () in
                ignore
                  (Net.Client.submit c
                     (Printf.sprintf
                        "INSERT INTO Flights VALUES (%d, 'Lima', 'Atlantis', \
                         %d, 42.0, 4)"
                        fno (i mod 30)));
                acc := (Unix.gettimeofday () -. s) :: !acc
              done;
              Net.Client.close c;
              lats.(w) <- !acc)
            ())
    in
    Array.iter Thread.join workers;
    Net.Client.close probe;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      !idle;
    Net.Server.stop server;
    let latencies =
      Array.of_list (Array.fold_left (fun acc l -> l @ acc) [] lats)
    in
    Array.sort compare latencies;
    let p99 = percentile latencies 0.99 *. 1e6 in
    let p50 = percentile latencies 0.50 *. 1e6 in
    (!held, p50, p99, max 0 (rss1 - rss0), max 0 (th1 - th0))
  in
  let event_target =
    max 256 (min 12_000 (((nofile - 768) / 2) - submitters))
  in
  let matched_target = max 64 (thread_ceiling - submitters - 4) in
  say
    "fd limit %d; %d active submitters x %d INSERTs; idle walls: \
     none, matched %d, capacity %d"
    nofile submitters per_submitter matched_target event_target;
  say "%14s %12s %10s %10s %12s %12s" "wall" "idle conns" "p50(us)"
    "p99(us)" "rss(kB)" "threads";
  let report label (held, p50, p99, rss, th) =
    say "%14s %12d %10.1f %10.1f %12d %12d" label held p50 p99 rss th;
    record ~experiment:"CONN" ~metric:(label ^ "_idle_conns")
      (float_of_int held);
    record ~experiment:"CONN" ~metric:(label ^ "_p50_us") p50;
    record ~experiment:"CONN" ~metric:(label ^ "_p99_us") p99;
    record ~experiment:"CONN" ~metric:(label ^ "_rss_kb") (float_of_int rss);
    record ~experiment:"CONN" ~metric:(label ^ "_threads") (float_of_int th)
  in
  let run label ~idle_target =
    let row = run_wall ~label ~idle_target in
    report label row;
    row
  in
  let _, _, nowall_p99, _, _ = run "nowall" ~idle_target:0 in
  (* the matched wall isolates what idle connections cost the active
     path; the capacity wall is ~10x bigger, where poll(2)'s O(n) kernel
     scan (~250ns/fd, so ~2.4ms per wait at 10k fds) dominates the
     latency floor *)
  let evm_held, _, evm_p99, _, _ =
    run "event_matched" ~idle_target:matched_target
  in
  let ev_held, _, _, _, _ = run "event" ~idle_target:event_target in
  let capacity_speedup = float_of_int ev_held /. float_of_int evm_held in
  let wall_p99_speedup = nowall_p99 /. evm_p99 in
  record ~experiment:"CONN" ~metric:"conn_capacity_speedup" capacity_speedup;
  record ~experiment:"CONN" ~metric:"conn_wall_p99_speedup" wall_p99_speedup;
  say
    "  capacity wall vs matched wall: %.2fx the held connections; p99 with \
     no wall / p99 at the matched wall: %.2fx"
    capacity_speedup wall_p99_speedup

let experiments =
  [
    "E1", ("Figure 1 mutual match (bechamel)", fun (_ : opts) -> e1_fig1 ());
    "E4", ("pair throughput sweep", e4_pairs);
    "E5", ("group size sweep", e5_groups);
    "E8", ("pending store sweep", e8_pending);
    "E9", ("database size sweep", e9_dbsize);
    "E10", ("baseline comparison", e10_baseline);
    "E13", ("cascade chain depth", e13_cascade);
    "INC", ("incremental matching: table-level poke", e_inc);
    "MATCH", ("retry targeting at 100k-1M pending queries", e_match);
    "SCEN", ("scenario subsystem: k-way formation + lock-lease soak", e_scen);
    "BATCH", ("write batching x durability over loopback TCP", e_batch);
    "REPL", ("read replicas + checkpointed recovery", e_repl);
    "NET", ("travel workload over loopback TCP", e_net);
    "CONN", ("connection scalability of the event loop", e_conn);
    "MICRO", ("engine primitive microbenchmarks", fun (_ : opts) -> e_micro ());
  ]

let run only fast seed net json list_exps =
  if list_exps then begin
    List.iter
      (fun (id, (desc, _)) -> Printf.printf "%-8s %s\n" id desc)
      experiments;
    0
  end
  else
  let only = if net && only = [] then [ "NET" ] else only in
  let chosen =
    match only with
    | [] -> experiments
    | names ->
      List.filter
        (fun (id, _) ->
          List.exists
            (fun n -> String.uppercase_ascii n = id)
            names)
        experiments
  in
  if chosen = [] then begin
    Printf.eprintf "unknown experiment; available: %s\n"
      (String.concat ", " (List.map fst experiments));
    1
  end
  else begin
    say "Youtopia benchmark harness — experiments: %s (seed %d)"
      (String.concat ", " (List.map fst chosen))
      seed;
    List.iter (fun (_, (_, f)) -> f { fast; seed }) chosen;
    say "@.%s" hrule;
    (match json with Some path -> write_json path | None -> ());
    say "done.";
    0
  end

open Cmdliner

let only_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all).")

let fast_flag =
  Arg.(value & flag & info [ "fast" ] ~doc:"Smaller sweeps (CI-friendly).")

let seed_opt =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Data-generator and workload seed (reproducible runs).")

let net_flag =
  Arg.(
    value & flag
    & info [ "net" ]
        ~doc:"Run the networked experiment only (travel workload over loopback TCP).")

let json_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write machine-readable results (experiment, metric, value \
           records) to $(docv).")

let list_flag =
  Arg.(
    value & flag
    & info [ "experiments" ]
        ~doc:"List the available experiments (id and description) and exit.")

let cmd =
  let doc = "Regenerate every table/figure-equivalent of the Youtopia demo paper" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ only_arg $ fast_flag $ seed_opt $ net_flag $ json_opt
      $ list_flag)

let () = exit (Cmd.eval' cmd)
