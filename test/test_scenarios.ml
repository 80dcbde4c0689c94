(* The scenario subsystem: lock-lease service, k-way group formation, and
   the shared workload generator.

   The lock tests drive the service through its public operations and keep
   re-running the invariant audit (I-L1 single holder, I-L2 exactly-once
   reclaim) after every transition — the same audit the torture harness
   runs across crashes.  The group tests pin the all-or-nothing property
   for cliques beyond pairs. *)

open Relational

let check_clean what errors =
  Alcotest.(check (list string)) (what ^ " audit clean") [] errors

let lock_audit app = Scenarios.Locks.audit (Scenarios.Locks.system app)

(* ------------------------------------------------------------------ *)
(* Lock-lease service. *)

let test_acquire_release () =
  let app = Scenarios.Locks.create ~n_locks:4 () in
  (match Scenarios.Locks.acquire app ~owner:"alice" ~name:"lock0" ~now:0 ~ttl:10 with
  | Scenarios.Locks.Granted g ->
    Alcotest.(check string) "lock name" "lock0" g.Scenarios.Locks.g_name;
    Alcotest.(check int) "expiry" 10 g.Scenarios.Locks.g_expires
  | _ -> Alcotest.fail "expected immediate grant");
  (match Scenarios.Locks.holder app ~name:"lock0" with
  | Some (owner, _, 10) -> Alcotest.(check string) "holder" "alice" owner
  | _ -> Alcotest.fail "expected alice to hold lock0");
  check_clean "held" (lock_audit app);
  Alcotest.(check bool) "release" true
    (Scenarios.Locks.release app ~owner:"alice" ~name:"lock0");
  Alcotest.(check bool) "double release refused" false
    (Scenarios.Locks.release app ~owner:"alice" ~name:"lock0");
  Alcotest.(check (option (triple string int int))) "free again" None
    (Scenarios.Locks.holder app ~name:"lock0");
  check_clean "released" (lock_audit app)

let test_contention_waiter_woken () =
  let app = Scenarios.Locks.create ~n_locks:1 () in
  (match Scenarios.Locks.acquire app ~owner:"alice" ~name:"lock0" ~now:0 ~ttl:10 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "alice should get the free lock");
  (* bob's acquire parks: the lock is held, so there is no match *)
  (match Scenarios.Locks.acquire app ~owner:"bob" ~name:"lock0" ~now:0 ~ttl:10 with
  | Scenarios.Locks.Waiting _ -> ()
  | _ -> Alcotest.fail "bob should wait");
  Alcotest.(check int) "no grant yet" 0
    (List.length (Scenarios.Locks.inbox app "bob"));
  check_clean "while parked" (lock_audit app);
  (* release pokes; bob's parked acquire matches and he becomes holder *)
  Alcotest.(check bool) "alice releases" true
    (Scenarios.Locks.release app ~owner:"alice" ~name:"lock0");
  (match Scenarios.Locks.inbox app "bob" with
  | [ n ] ->
    Alcotest.(check string) "grant owner" "bob" n.Core.Events.owner
  | l -> Alcotest.failf "expected one grant for bob, got %d" (List.length l));
  (match Scenarios.Locks.holder app ~name:"lock0" with
  | Some ("bob", _, _) -> ()
  | _ -> Alcotest.fail "bob should now hold lock0");
  check_clean "handover" (lock_audit app)

let test_renew () =
  let app = Scenarios.Locks.create ~n_locks:1 () in
  (match Scenarios.Locks.acquire app ~owner:"alice" ~name:"lock0" ~now:0 ~ttl:5 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "grant expected");
  (match Scenarios.Locks.renew app ~owner:"alice" ~name:"lock0" ~now:3 ~ttl:5 with
  | Some g -> Alcotest.(check int) "extended" 8 g.Scenarios.Locks.g_expires
  | None -> Alcotest.fail "live lease should renew");
  (match Scenarios.Locks.holder app ~name:"lock0" with
  | Some (_, _, expires) -> Alcotest.(check int) "lease row extended" 8 expires
  | None -> Alcotest.fail "holder expected");
  (* an expired lease cannot renew — and the failed renewal leaves nothing
     parked behind (a stale waiter must not steal a future grant) *)
  Alcotest.(check (option (triple string int int)))
    "renew after expiry fails" None
    (Option.map
       (fun (g : Scenarios.Locks.grant) -> g.g_name, g.g_token, g.g_expires)
       (Scenarios.Locks.renew app ~owner:"alice" ~name:"lock0" ~now:20 ~ttl:5));
  Alcotest.(check int) "nothing parked" 0
    (Core.Pending.size
       (Core.Coordinator.pending
          (Youtopia.System.coordinator (Scenarios.Locks.system app))));
  check_clean "after failed renew" (lock_audit app)

let test_sweep_exactly_once () =
  let app = Scenarios.Locks.create ~n_locks:3 () in
  List.iter
    (fun i ->
      match
        Scenarios.Locks.acquire app ~owner:(Printf.sprintf "u%d" i)
          ~name:(Scenarios.Locks.lock_name i) ~now:0 ~ttl:5
      with
      | Scenarios.Locks.Granted _ -> ()
      | _ -> Alcotest.fail "grant expected")
    [ 0; 1; 2 ];
  (* nothing expired yet: the sweeper finds no lease and reclaims none *)
  Alcotest.(check int) "early sweep is empty" 0
    (Scenarios.Locks.sweep app ~now:3 ());
  (* all three expire; one sweep reclaims each exactly once *)
  Alcotest.(check int) "sweep reclaims all" 3
    (Scenarios.Locks.sweep app ~now:7 ());
  check_clean "after sweep" (lock_audit app);
  (* idempotence: a second sweep finds nothing *)
  Alcotest.(check int) "re-sweep is empty" 0
    (Scenarios.Locks.sweep app ~now:7 ());
  check_clean "after re-sweep" (lock_audit app);
  (* the freed locks are acquirable again *)
  (match Scenarios.Locks.acquire app ~owner:"late" ~name:"lock1" ~now:8 ~ttl:5 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "swept lock should be free")

let test_sweep_wakes_waiter () =
  let app = Scenarios.Locks.create ~n_locks:1 () in
  (match Scenarios.Locks.acquire app ~owner:"alice" ~name:"lock0" ~now:0 ~ttl:5 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "grant expected");
  (match Scenarios.Locks.acquire app ~owner:"bob" ~name:"lock0" ~now:1 ~ttl:5 with
  | Scenarios.Locks.Waiting _ -> ()
  | _ -> Alcotest.fail "bob should wait");
  (* alice crashes (never releases); the sweeper reclaims her expired lease
     and the release-poke hands the lock straight to bob *)
  Alcotest.(check int) "one reclaim" 1 (Scenarios.Locks.sweep app ~now:10 ());
  (match Scenarios.Locks.holder app ~name:"lock0" with
  | Some ("bob", _, _) -> ()
  | _ -> Alcotest.fail "bob should inherit the swept lock");
  Alcotest.(check int) "bob notified" 1
    (List.length (Scenarios.Locks.inbox app "bob"));
  check_clean "after sweep handover" (lock_audit app)

let test_locks_wire_sql () =
  (* the whole acquire path as wire SQL: a THEN-clause entangled statement
     through the session front end, no middle-tier code involved *)
  let sys = Scenarios.Locks.make_system ~n_locks:1 () in
  let session = Youtopia.System.session sys "carol" in
  let sql =
    Scenarios.Locks.acquire_sql ~owner:"carol" ~name:"lock0" ~token:99
      ~expires:50
  in
  (match Youtopia.System.exec_sql sys session sql with
  | Youtopia.System.Coordination (Core.Coordinator.Answered n) ->
    Alcotest.(check string) "owner" "carol" n.Core.Events.owner
  | _ -> Alcotest.fail "wire acquire should fulfil immediately");
  let app = Scenarios.Locks.attach sys in
  (match Scenarios.Locks.holder app ~name:"lock0" with
  | Some ("carol", 99, 50) -> ()
  | _ -> Alcotest.fail "carol should hold lock0 with token 99");
  Alcotest.(check bool) "token counter restarts above history" true
    (Scenarios.Locks.fresh_token app > 99);
  check_clean "wire acquire" (lock_audit app)

let test_locks_recovery () =
  let wal = Filename.temp_file "scen_locks" ".wal" in
  let app =
    Scenarios.Locks.create ~wal_path:wal ~n_locks:4 ()
  in
  (match Scenarios.Locks.acquire app ~owner:"alice" ~name:"lock0" ~now:0 ~ttl:5 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "grant expected");
  (match Scenarios.Locks.acquire app ~owner:"bob" ~name:"lock1" ~now:0 ~ttl:50 with
  | Scenarios.Locks.Granted _ -> ()
  | _ -> Alcotest.fail "grant expected");
  Alcotest.(check int) "sweep alice" 1 (Scenarios.Locks.sweep app ~now:10 ());
  (* crash: drop the in-memory system, rebuild from the WAL *)
  let recovered = Scenarios.Locks.recover_system ~wal_path:wal () in
  let app2 = Scenarios.Locks.attach recovered in
  check_clean "recovered" (lock_audit app2);
  (match Scenarios.Locks.holder app2 ~name:"lock1" with
  | Some ("bob", _, _) -> ()
  | _ -> Alcotest.fail "bob's lease should survive the crash");
  Alcotest.(check (option (triple string int int))) "lock0 stays reclaimed"
    None
    (Scenarios.Locks.holder app2 ~name:"lock0");
  (* the replayed reclaim must not be repeatable after recovery *)
  Alcotest.(check int) "re-sweep after recovery is empty" 0
    (Scenarios.Locks.sweep app2 ~now:10 ());
  check_clean "post-recovery sweep" (lock_audit app2);
  Sys.remove wal

(* A seeded mini-soak with the SCEN bench's op mix (acquire, release,
   renew, sweep over bursty arrivals).  Returns the grant/wait/reclaim
   counts, the final [Leases] and [Reclaims] rows, and the audit. *)
let lock_soak ~retry =
  let n_locks = 16 in
  let config = { Core.Coordinator.default_config with Core.Coordinator.retry } in
  let app = Scenarios.Locks.create ~config ~n_locks () in
  let gen = Scenarios.Scengen.create ~seed:3 ~label:"test.locks" ~users:64 () in
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
      | Scenarios.Locks.Refused r -> Alcotest.fail ("acquire refused: " ^ r))
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
  List.iter
    (fun b -> for _ = 1 to b do one_op () done)
    (Scenarios.Scengen.bursts gen ~n:500 ());
  let sys = Scenarios.Locks.system app in
  let rows name =
    Table.fold
      (fun acc _ row -> Array.to_list (Array.map Value.to_string row) :: acc)
      [] (Database.find_table (Youtopia.System.database sys) name)
    |> List.sort compare
  in
  ( (!granted, !waited, !reclaimed),
    rows "Leases",
    rows "Reclaims",
    Scenarios.Locks.audit sys )

let test_lock_soak_policies () =
  let counts = Alcotest.(triple int int int) in
  let rows = Alcotest.(list (list string)) in
  let tuples, leases, reclaims, audit = lock_soak ~retry:Tuples in
  check_clean "soak under Tuples" audit;
  let _, waited, reclaimed = tuples in
  Alcotest.(check bool) "soak waits and reclaims" true (waited > 0 && reclaimed > 0);
  let all, leases', reclaims', audit' = lock_soak ~retry:All in
  check_clean "soak under All" audit';
  Alcotest.check counts "grants, waits, reclaims" tuples all;
  Alcotest.check rows "final Leases" leases leases';
  Alcotest.check rows "final Reclaims" reclaims reclaims'

(* The sweeper's subquery reads only live leases through [leases_by_active];
   a full scan would re-read the whole append-only lease history. *)
let test_sweep_uses_active_index () =
  let app = Scenarios.Locks.create ~n_locks:4 () in
  let sys = Scenarios.Locks.system app in
  let q =
    Core.Translate.of_sql (Youtopia.System.catalog sys) ~owner:"sweeper"
      (Scenarios.Locks.sweep_sql ~now:10 ~limit:1)
  in
  match q.Core.Equery.db_atoms with
  | [ atom ] ->
    let plan = Plan.explain atom.Core.Equery.plan in
    Alcotest.(check bool)
      ("index lookup in: " ^ plan) true
      (Astring.String.is_infix ~affix:"index_lookup Leases[4]" plan)
  | _ -> Alcotest.fail "the sweep query has one database atom"

(* ------------------------------------------------------------------ *)
(* k-way group formation. *)

let bookings_count sys =
  let db = Youtopia.System.database sys in
  Table.fold (fun n _ _ -> n + 1) 0 (Database.find_table db "RideBookings")

let test_kway_all_or_nothing k () =
  let app = Scenarios.Groups.create ~seed:11 ~n_rides:6 ~capacity:8 () in
  let sys = Scenarios.Groups.system app in
  let members = List.init k (Printf.sprintf "rider%d") in
  let outcomes = Scenarios.Groups.submit_group app ~members ~dest:"campus" in
  let parked, answered =
    List.partition
      (function Core.Coordinator.Registered _ -> true | _ -> false)
      outcomes
  in
  (* the first k-1 members park with nothing booked; the k-th closes the
     clique and fulfils everyone at once *)
  Alcotest.(check int) "k-1 parked" (k - 1) (List.length parked);
  (match answered with
  | [ Core.Coordinator.Answered n ] ->
    Alcotest.(check int) "whole clique in one group" k
      (List.length n.Core.Events.group)
  | _ -> Alcotest.fail "last member should fulfil the clique");
  Alcotest.(check int) "k bookings" k (bookings_count sys);
  List.iter
    (fun m ->
      Alcotest.(check int)
        (m ^ " notified once") 1
        (List.length (Scenarios.Groups.inbox app m)))
    members;
  check_clean "groups" (Scenarios.Groups.audit sys ~capacity:8);
  (* seats dropped by exactly k on exactly one ride *)
  let db = Youtopia.System.database sys in
  let drained =
    Table.fold
      (fun acc _ row -> if Value.as_int row.(3) = 8 - k then acc + 1 else acc)
      0 (Database.find_table db "Rides")
  in
  Alcotest.(check int) "one ride carries the clique" 1 drained

let test_kway_insufficient_capacity () =
  (* capacity 3 < k = 5: the clique must never form, nobody is booked *)
  let app = Scenarios.Groups.create ~seed:12 ~n_rides:4 ~capacity:3 () in
  let members = List.init 5 (Printf.sprintf "rider%d") in
  let outcomes = Scenarios.Groups.submit_group app ~members ~dest:"campus" in
  List.iter
    (function
      | Core.Coordinator.Registered _ -> ()
      | _ -> Alcotest.fail "no member may fulfil")
    outcomes;
  Alcotest.(check int) "nothing booked" 0
    (bookings_count (Scenarios.Groups.system app));
  check_clean "starved clique" (Scenarios.Groups.audit (Scenarios.Groups.system app) ~capacity:3)

(* ------------------------------------------------------------------ *)
(* The shared workload generator. *)

let test_scengen_determinism () =
  let mk () = Scenarios.Scengen.create ~seed:42 ~label:"det" ~users:1000 () in
  let a = mk () and b = mk () in
  let sample g = List.init 50 (fun _ -> Scenarios.Scengen.user g) in
  Alcotest.(check (list int)) "same seed, same stream" (sample a) (sample b);
  let c = Scenarios.Scengen.create ~seed:42 ~label:"other" ~users:1000 () in
  Alcotest.(check bool) "labels separate streams" true (sample a <> sample c)

let test_scengen_zipf_skew () =
  let g = Scenarios.Scengen.create ~seed:7 ~label:"zipf" ~users:10_000 ~skew:1.2 () in
  let n = 20_000 in
  let hot = ref 0 and cold = ref 0 in
  for _ = 1 to n do
    let u = Scenarios.Scengen.user g in
    if u < 10 then incr hot;
    if u >= 5_000 then incr cold
  done;
  (* the 10 hottest of 10k users draw far more traffic than the entire
     colder half of the population *)
  Alcotest.(check bool) "head is heavy" true (!hot > n / 4);
  Alcotest.(check bool) "tail is light" true (!cold < !hot)

let test_scengen_bursts_and_mix () =
  let g = Scenarios.Scengen.create ~seed:3 ~label:"bursts" ~users:10 () in
  let batches = Scenarios.Scengen.bursts g ~n:5_000 ~burstiness:0.2 () in
  Alcotest.(check int) "batches cover the arrivals exactly" 5_000
    (List.fold_left ( + ) 0 batches);
  Alcotest.(check bool) "some slots burst" true
    (List.exists (fun b -> b > 1) batches);
  let picks =
    List.init 1000 (fun _ ->
        Scenarios.Scengen.pick g [ 8, `Common; 2, `Rare ])
  in
  let common = List.length (List.filter (( = ) `Common) picks) in
  Alcotest.(check bool) "mix respects weights" true
    (common > 600 && common < 950);
  let ms = Scenarios.Scengen.distinct_users g 8 in
  Alcotest.(check int) "distinct group members" 8
    (List.length (List.sort_uniq compare ms))

let suite =
  [
    Alcotest.test_case "locks: acquire/holder/release" `Quick test_acquire_release;
    Alcotest.test_case "locks: waiter woken on release" `Quick
      test_contention_waiter_woken;
    Alcotest.test_case "locks: renew live, refuse dead" `Quick test_renew;
    Alcotest.test_case "locks: sweep reclaims exactly once" `Quick
      test_sweep_exactly_once;
    Alcotest.test_case "locks: sweep hands lock to waiter" `Quick
      test_sweep_wakes_waiter;
    Alcotest.test_case "locks: acquire over wire SQL (THEN clause)" `Quick
      test_locks_wire_sql;
    Alcotest.test_case "locks: invariants survive WAL recovery" `Quick
      test_locks_recovery;
    Alcotest.test_case "locks: soak equal under Tuples and All" `Quick
      test_lock_soak_policies;
    Alcotest.test_case "locks: sweep probes the active-lease index" `Quick
      test_sweep_uses_active_index;
    Alcotest.test_case "groups: 3-way all-or-nothing" `Quick
      (test_kway_all_or_nothing 3);
    Alcotest.test_case "groups: 5-way all-or-nothing" `Quick
      (test_kway_all_or_nothing 5);
    Alcotest.test_case "groups: 8-way all-or-nothing" `Quick
      (test_kway_all_or_nothing 8);
    Alcotest.test_case "groups: under-capacity clique never forms" `Quick
      test_kway_insufficient_capacity;
    Alcotest.test_case "scengen: deterministic labelled streams" `Quick
      test_scengen_determinism;
    Alcotest.test_case "scengen: zipf head is heavy" `Quick test_scengen_zipf_skew;
    Alcotest.test_case "scengen: bursts and op mixes" `Quick
      test_scengen_bursts_and_mix;
  ]
