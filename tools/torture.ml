(* Crash-recovery torture harness.

   Each cycle forks the real server binary over a fresh WAL, drives a
   seeded entangled workload against it over TCP, arms one randomly
   chosen [kill] failpoint through the ADMIN wire command, and lets the
   server SIGKILL itself mid-operation.  It then restarts the server
   over the surviving files and checks the durability invariants:

     I0  seed data intact (32 flights recovered)
     I1  no lost writes: every acknowledged insert / coordination answer
         is present after recovery
     I2  no phantom or duplicated writes: every recovered row was either
         acknowledged or the (at most one) operation in flight at the
         crash
     I3  group atomicity: a coordination group's answer rows are all
         present or all absent — never torn
     I4  the pending store is empty after recovery (pending entangled
         queries are documented non-durable) and re-submission re-parks
         and re-answers them
     I5  a fresh replica attached to the recovered primary converges to
         an identical dump

   Cycles rotate over two scenarios by seed residue mod 2.  Residue 0
   runs the travel dataset (the workload above).  Residue 1 runs the
   lock-lease scenario (`--scenario locks`): acquires, renewals and
   sweeps as THEN-clause entangled SQL over the wire, driven by the
   shared Scengen generator, with the crash landing anywhere in the
   grant/reclaim machinery.  Its invariants:

     L0  seed data intact (32 locks recovered)
     L1  no lock held by two owners across the crash: at most one active
         lease per lock, and Locks.free agrees with the lease table
     L2  expired leases reclaimed exactly once: no duplicate reclaim
         receipt, none pointing at a still-active or unknown lease
     L3  no lost grants (every acknowledged grant's lease row survives)
         and no phantom leases (every recovered lease was issued)
     L4  post-crash, a full sweep reclaims exactly the active leases,
         once each, and the locks are grantable again

   Every cycle prints its derived seed; `--cycle-seed N` re-runs exactly
   one cycle from such a seed.  The workload and failpoint arming are
   fully determined by the seed; the precise crash instant additionally
   depends on OS thread scheduling, but the invariants hold for every
   schedule, so a violating seed stays a strong reproducer.

   Exit status: 0 when all cycles pass, 1 on the first violation
   (artifacts — WAL, checkpoints, server logs — are copied to
   `--artifacts DIR` if given), 2 on usage errors. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

let kill_points =
  [
    "wal.commit";
    "wal.append";
    "wal.flush";
    "wal.fsync";
    "txn.commit";
    "server.batch";
    "server.batch.fanout";
    "checkpoint.write";
  ]

let durabilities = [ "fsync"; "flush" ]

(* ---------------- small utilities ---------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

(* ---------------- child processes ---------------- *)

type child = {
  pid : int;
  fd : Unix.file_descr;  (* read end of merged stdout+stderr *)
  log : Buffer.t;
  name : string;
  mutable status : Unix.process_status option;
}

let spawn ~name ~prog ~args ~env_extra =
  let r, w = Unix.pipe () in
  Unix.set_close_on_exec r;
  let env = Array.append (Unix.environment ()) (Array.of_list env_extra) in
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      env Unix.stdin w w
  in
  Unix.close w;
  { pid; fd = r; log = Buffer.create 1024; name; status = None }

(** Pull whatever the child has written so far into its log buffer. *)
let drain ?(timeout = 0.) ch =
  let rec go timeout =
    match Unix.select [ ch.fd ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
      let b = Bytes.create 4096 in
      match Unix.read ch.fd b 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes ch.log b 0 n;
        go 0.
      | exception Unix.Unix_error _ -> ())
  in
  go timeout

let alive ch =
  match ch.status with
  | Some _ -> false
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] ch.pid with
    | 0, _ -> true
    | _, st ->
      ch.status <- Some st;
      false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      ch.status <- Some (Unix.WEXITED 255);
      false)

(** Wait (bounded) for the child to exit, SIGKILLing it past the deadline. *)
let reap ?(patience = 10.) ch =
  let deadline = Unix.gettimeofday () +. patience in
  let rec go () =
    drain ch;
    if alive ch then
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill ch.pid Sys.sigkill with Unix.Unix_error _ -> ());
        match Unix.waitpid [] ch.pid with
        | _, st -> ch.status <- Some st
        | exception Unix.Unix_error _ -> ch.status <- Some (Unix.WEXITED 255)
      end
      else begin
        Thread.delay 0.02;
        go ()
      end
  in
  go ();
  drain ch

let kill_child ch =
  if alive ch then (try Unix.kill ch.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap ch

let terminate ch =
  if alive ch then (try Unix.kill ch.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap ~patience:5. ch

let dispose ch =
  kill_child ch;
  try Unix.close ch.fd with Unix.Unix_error _ -> ()

(** Scan the child's stdout for "listening on HOST:PORT"; [None] when the
    child dies (or stays silent) without printing it. *)
let wait_port ch ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let parse () =
    let s = Buffer.contents ch.log in
    match find_sub s "listening on " with
    | None -> None
    | Some i -> (
      let start = i + String.length "listening on " in
      let stop = ref start in
      while
        !stop < String.length s && s.[!stop] <> ' ' && s.[!stop] <> '\n'
      do
        incr stop
      done;
      let hostport = String.sub s start (!stop - start) in
      match String.rindex_opt hostport ':' with
      | Some j ->
        int_of_string_opt
          (String.sub hostport (j + 1) (String.length hostport - j - 1))
      | None -> None)
  in
  let rec go () =
    drain ~timeout:0.05 ch;
    match parse () with
    | Some p -> Some p
    | None ->
      if not (alive ch) then (drain ch; parse ())
      else if Unix.gettimeofday () > deadline then None
      else go ()
  in
  go ()

(* ---------------- SQL result parsing ---------------- *)

(* Rendered rows look like "('w17-3', 104)"; the trailing count line is
   "(2 row(s))".  Our data never contains the "row(s))" marker. *)
let rows_of_body = function
  | Net.Wire.Sql_result s ->
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           String.length l > 0 && l.[0] = '(' && not (contains l "row(s))"))
  | _ -> violation "expected a plain SQL result"

let select c q = rows_of_body (Net.Client.submit c q)

(** "('pa17-3', 104)" -> "pa17-3" *)
let name_of_row row =
  match String.index_opt row '\'' with
  | None -> row
  | Some i -> (
    match String.index_from_opt row (i + 1) '\'' with
    | None -> row
    | Some j -> String.sub row (i + 1) (j - i - 1))

let fno_of_notification (n : Core.Events.notification) =
  let rec go = function
    | (_, t) :: rest -> (
      match Array.to_list t with
      | [ _; Relational.Value.Int f ] -> Some f
      | _ -> go rest)
    | [] -> None
  in
  go n.Core.Events.answers

(** "('lock3', 42)" -> 42 (the trailing integer column). *)
let last_int_of_row row =
  match String.rindex_opt row ',' with
  | None -> violation "unparseable row: %s" row
  | Some i -> (
    let s = String.trim (String.sub row (i + 1) (String.length row - i - 2)) in
    match int_of_string_opt s with
    | Some v -> v
    | None -> violation "unparseable row: %s" row)

(** A sweep instance's answer tuple: SweepRes(name, token). *)
let sweep_receipt (n : Core.Events.notification) =
  let rec go = function
    | (_, t) :: rest -> (
      match Array.to_list t with
      | [ Relational.Value.Str nm; Relational.Value.Int tok ] -> Some (nm, tok)
      | _ -> go rest)
    | [] -> None
  in
  go n.Core.Events.answers

(* ---------------- artifacts ---------------- *)

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  let b = Bytes.create 65536 in
  let rec go () =
    match input ic b 0 65536 with
    | 0 -> ()
    | n ->
      output oc b 0 n;
      go ()
  in
  go ();
  close_in_noerr ic;
  close_out_noerr oc

let save_artifacts ~artifacts ~cycle_seed ~dir ~children =
  match artifacts with
  | None -> ()
  | Some root ->
    let dst = Filename.concat root (Printf.sprintf "cycle-%d" cycle_seed) in
    (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (try Unix.mkdir dst 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (try
       Array.iter
         (fun f ->
           try copy_file (Filename.concat dir f) (Filename.concat dst f)
           with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    List.iter
      (fun ch ->
        let oc = open_out (Filename.concat dst (ch.name ^ ".log")) in
        output_string oc (Buffer.contents ch.log);
        close_out_noerr oc)
      children;
    Printf.printf "artifacts saved to %s\n%!" dst

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* ---------------- one cycle ---------------- *)

let run_cycle ~prog ~artifacts ~keep_tmp ~ops_target ~verbose ~cycle_seed =
  let rng = Random.State.make [| cycle_seed |] in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "torture-%d-%d" (Unix.getpid ()) cycle_seed)
  in
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "y.wal" in
  let durability =
    List.nth durabilities (Random.State.int rng (List.length durabilities))
  in
  let server_args port_opt =
    [
      "--travel"; "--seed"; "7"; "--wal"; wal; "--host"; "127.0.0.1";
      "--port"; port_opt; "--durability"; durability;
    ]
  in
  let children = ref [] in
  let track ch =
    children := ch :: !children;
    ch
  in
  let say fmt =
    Printf.ksprintf (fun m -> if verbose then Printf.printf "  %s\n%!" m) fmt
  in
  let finish ~failed =
    List.iter dispose !children;
    if failed then
      save_artifacts ~artifacts ~cycle_seed ~dir ~children:!children;
    if not (keep_tmp || failed) then rm_rf dir
  in
  match
    (* ---- phase 1: primary + seeded workload + crash ---- *)
    let primary =
      track
        (spawn ~name:"primary" ~prog ~args:(server_args "0")
           ~env_extra:[ Printf.sprintf "YOUTOPIA_FAULT_SEED=%d" cycle_seed ])
    in
    let port =
      match wait_port primary ~timeout:20. with
      | Some p -> p
      | None ->
        violation "primary did not start:\n%s" (Buffer.contents primary.log)
    in
    let c = Net.Client.connect ~port ~user:"torture" () in
    let kill_pt =
      List.nth kill_points (Random.State.int rng (List.length kill_points))
    in
    let kill_hit = 1 + Random.State.int rng 30 in
    let arm_cmd = Printf.sprintf "failpoint arm %s %d->kill" kill_pt kill_hit in
    let reply = Net.Client.admin c arm_cmd in
    if not (contains reply "armed") then
      violation "failpoint arming failed: %s" reply;
    say "durability=%s armed %s=%d->kill" durability kill_pt kill_hit;
    (* workload state: what the server has ACKED (must survive) and the
       at-most-one operation in flight when the crash hits (may or may
       not survive — but never partially) *)
    let acked_rows = ref [] in
    let inflight_row = ref None in
    let acked_pairs = ref [] in
    (* (pa, pb, expected FlightRes rows) *)
    let inflight_pair = ref None in
    let registered = ref [] in
    (* (pa, pb, dest): first half registered, second half not yet acked *)
    let crashed = ref false in
    let booking_k = ref 0 and pair_k = ref 0 and ops = ref 0 in
    let city () =
      Travel.Datagen.cities.(Random.State.int rng
                               (Array.length Travel.Datagen.cities))
    in
    (try
       while (not !crashed) && !ops < ops_target do
         incr ops;
         if not (alive primary) then crashed := true
         else begin
           let dice = Random.State.int rng 100 in
           if dice < 55 then begin
             incr booking_k;
             let who = Printf.sprintf "w%d-%d" cycle_seed !booking_k in
             let fno = 100 + Random.State.int rng 32 in
             let row = Printf.sprintf "('%s', %d)" who fno in
             inflight_row := Some row;
             ignore
               (Net.Client.submit c
                  (Printf.sprintf
                     "INSERT INTO FlightBookings VALUES ('%s', %d)" who fno));
             acked_rows := row :: !acked_rows;
             inflight_row := None
           end
           else if dice < 85 then begin
             incr pair_k;
             let pa = Printf.sprintf "pa%d-%d" cycle_seed !pair_k in
             let pb = Printf.sprintf "pb%d-%d" cycle_seed !pair_k in
             let dest = city () in
             (match
                Net.Client.submit c
                  (Travel.Workload.pair_sql ~user:pa ~friend:pb ~dest)
              with
             | Net.Wire.Registered _ -> registered := (pa, pb, dest) :: !registered
             | _ -> ());
             (* half the pairs complete immediately; the rest stay parked
                so the crash catches a loaded pending store *)
             if Random.State.bool rng then begin
               inflight_pair := Some (pa, pb);
               (match
                  Net.Client.submit c
                    (Travel.Workload.pair_sql ~user:pb ~friend:pa ~dest)
                with
               | Net.Wire.Answered n -> (
                 registered := List.filter (fun (a, _, _) -> a <> pa) !registered;
                 match fno_of_notification n with
                 | Some fno ->
                   acked_pairs :=
                     ( pa,
                       pb,
                       [
                         Printf.sprintf "('%s', %d)" pa fno;
                         Printf.sprintf "('%s', %d)" pb fno;
                       ] )
                     :: !acked_pairs
                 | None -> acked_pairs := (pa, pb, []) :: !acked_pairs)
               | _ -> ());
               inflight_pair := None
             end
           end
           else if dice < 95 then ignore (Net.Client.admin c "checkpoint")
           else ignore (Net.Client.admin c "failpoint list")
         end
       done
     with _ -> crashed := true);
    (try Net.Client.close c with _ -> ());
    if not !crashed then begin
      (* the armed point never fired within the op budget (e.g. a
         checkpoint point with no checkpoint op drawn): the parent plays
         executioner — an any-instant SIGKILL is a crash point too *)
      say "failpoint never fired; parent SIGKILL";
      kill_child primary
    end
    else reap primary;
    say "crashed after %d op(s): %d booking(s) acked, %d pair(s) answered"
      !ops (List.length !acked_rows) (List.length !acked_pairs);

    (* ---- phase 2: recovery + invariants ---- *)
    let recovered =
      track (spawn ~name:"recovered" ~prog ~args:(server_args "0") ~env_extra:[])
    in
    let port2 =
      match wait_port recovered ~timeout:20. with
      | Some p -> p
      | None ->
        violation "server failed to recover from the crash:\n%s"
          (Buffer.contents recovered.log)
    in
    let c2 = Net.Client.connect ~port:port2 ~user:"checker" () in
    (* I0: seed data *)
    let flights = select c2 "SELECT fno FROM Flights" in
    if List.length flights <> 32 then
      violation "I0: expected 32 flights after recovery, found %d"
        (List.length flights);
    (* I1/I2 over plain writes *)
    let bookings = select c2 "SELECT who, fno FROM FlightBookings" in
    List.iter
      (fun row ->
        if not (List.mem row bookings) then
          violation "I1: acknowledged write %s lost by recovery" row)
      !acked_rows;
    let allowed =
      !acked_rows @ (match !inflight_row with Some r -> [ r ] | None -> [])
    in
    List.iter
      (fun row ->
        if not (List.mem row allowed) then
          violation "I2: phantom row %s after recovery" row)
      bookings;
    let rec first_dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: rest -> first_dup rest
      | [] -> None
    in
    (match first_dup (List.sort compare bookings) with
    | Some row -> violation "I2: row %s duplicated by recovery" row
    | None -> ());
    (* I1/I3 over coordination answers *)
    let fres = select c2 "SELECT name, fno FROM FlightRes" in
    List.iter
      (fun (_, _, rows) ->
        List.iter
          (fun r ->
            if not (List.mem r fres) then
              violation "I1: committed coordination answer %s lost" r)
          rows)
      !acked_pairs;
    let all_pairs =
      List.map (fun (pa, pb, _) -> (pa, pb)) !acked_pairs
      @ List.map (fun (pa, pb, _) -> (pa, pb)) !registered
      @ (match !inflight_pair with Some p -> [ p ] | None -> [])
    in
    List.iter
      (fun row ->
        let nm = name_of_row row in
        if not (List.exists (fun (pa, pb) -> nm = pa || nm = pb) all_pairs)
        then violation "I2: phantom answer row %s after recovery" row)
      fres;
    List.iter
      (fun (pa, pb) ->
        let has u = List.exists (fun r -> name_of_row r = u) fres in
        if has pa <> has pb then
          violation "I3: torn group (%s, %s): one answer row without the other"
            pa pb)
      all_pairs;
    (* I4: pending store is empty; resubmission re-parks and re-answers *)
    let pending = Net.Client.admin c2 "pending" in
    if not (contains pending "no pending") then
      violation "I4: pending store survived the crash: %s" pending;
    (match !registered with
    | (pa, pb, dest) :: _ -> (
      let r1 =
        Net.Client.submit c2 (Travel.Workload.pair_sql ~user:pa ~friend:pb ~dest)
      in
      let r2 =
        Net.Client.submit c2 (Travel.Workload.pair_sql ~user:pb ~friend:pa ~dest)
      in
      match r1, r2 with
      | Net.Wire.Registered _, Net.Wire.Answered _ -> ()
      | Net.Wire.Answered _, Net.Wire.Answered _ ->
        () (* the pre-crash second half committed before dying *)
      | _ -> violation "I4: post-crash resubmission of (%s, %s) failed" pa pb)
    | [] -> ());
    (* ---- phase 3: replica catch-up ---- *)
    let replica =
      track
        (spawn ~name:"replica" ~prog
           ~args:
             [
               "--host"; "127.0.0.1"; "--port"; "0";
               "--replica-of"; "127.0.0.1:" ^ string_of_int port2;
               "--replica-id"; "torture-replica";
             ]
           ~env_extra:[])
    in
    let rport =
      match wait_port replica ~timeout:20. with
      | Some p -> p
      | None ->
        violation "replica did not start:\n%s" (Buffer.contents replica.log)
    in
    let c3 = Net.Client.connect ~port:rport ~user:"replica-checker" () in
    let dump c =
      ( List.sort compare (select c "SELECT who, fno FROM FlightBookings"),
        List.sort compare (select c "SELECT name, fno FROM FlightRes"),
        List.length (select c "SELECT fno FROM Flights") )
    in
    let primary_dump = dump c2 in
    let deadline = Unix.gettimeofday () +. 20. in
    let rec wait_sync () =
      let replica_dump = try Some (dump c3) with _ -> None in
      if replica_dump = Some primary_dump then ()
      else if Unix.gettimeofday () > deadline then
        violation "I5: replica failed to converge with the recovered primary"
      else begin
        Thread.delay 0.1;
        wait_sync ()
      end
    in
    wait_sync ();
    say "replica converged";
    (try Net.Client.close c2 with _ -> ());
    (try Net.Client.close c3 with _ -> ());
    terminate replica;
    terminate recovered
  with
  | () -> finish ~failed:false
  | exception e ->
    finish ~failed:true;
    raise e

(* ---------------- one lock-lease cycle ---------------- *)

let run_locks_cycle ~prog ~artifacts ~keep_tmp ~ops_target ~verbose ~cycle_seed =
  let rng = Random.State.make [| cycle_seed |] in
  let n_locks = 32 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "torture-%d-%d" (Unix.getpid ()) cycle_seed)
  in
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "y.wal" in
  let durability =
    List.nth durabilities (Random.State.int rng (List.length durabilities))
  in
  let server_args port_opt =
    [
      "--scenario"; "locks"; "--wal"; wal; "--host"; "127.0.0.1";
      "--port"; port_opt; "--durability"; durability;
    ]
  in
  let children = ref [] in
  let track ch =
    children := ch :: !children;
    ch
  in
  let say fmt =
    Printf.ksprintf (fun m -> if verbose then Printf.printf "  %s\n%!" m) fmt
  in
  let finish ~failed =
    List.iter dispose !children;
    if failed then
      save_artifacts ~artifacts ~cycle_seed ~dir ~children:!children;
    if not (keep_tmp || failed) then rm_rf dir
  in
  match
    (* ---- phase 1: primary + seeded lock workload + crash ---- *)
    let primary =
      track
        (spawn ~name:"primary" ~prog ~args:(server_args "0")
           ~env_extra:[ Printf.sprintf "YOUTOPIA_FAULT_SEED=%d" cycle_seed ])
    in
    let port =
      match wait_port primary ~timeout:20. with
      | Some p -> p
      | None ->
        violation "primary did not start:\n%s" (Buffer.contents primary.log)
    in
    let c = Net.Client.connect ~port ~user:"torture" () in
    let kill_pt =
      List.nth kill_points (Random.State.int rng (List.length kill_points))
    in
    let kill_hit = 1 + Random.State.int rng 30 in
    let arm_cmd = Printf.sprintf "failpoint arm %s %d->kill" kill_pt kill_hit in
    let reply = Net.Client.admin c arm_cmd in
    if not (contains reply "armed") then
      violation "failpoint arming failed: %s" reply;
    say "locks: durability=%s armed %s=%d->kill" durability kill_pt kill_hit;
    (* the shared workload generator: Zipf owners, weighted op mix — the
       same distributions the SCEN bench drives *)
    let gen =
      Scenarios.Scengen.create ~seed:cycle_seed ~label:"torture.locks"
        ~users:24 ()
    in
    let tick = ref 0 and next_token = ref 1 in
    (* tokens are client-issued, so recovered state is fully checkable:
       every lease must carry an issued token (no phantoms), every
       acknowledged grant must keep its lease row (no lost writes) *)
    let issued = Hashtbl.create 64 in
    let acked_grants = ref [] (* (token, name) with an Answered receipt *)
    and acked_reclaims = ref [] (* (name, token) with an Answered receipt *)
    and live_grants = ref [] (* (token, owner, name), renewal candidates *) in
    let crashed = ref false and ops = ref 0 in
    (try
       while (not !crashed) && !ops < ops_target do
         incr ops;
         incr tick;
         if not (alive primary) then crashed := true
         else begin
           match
             Scenarios.Scengen.pick gen
               [ 45, `Acquire; 10, `Renew; 25, `Sweep; 12, `Checkpoint;
                 8, `Probe ]
           with
           | `Acquire -> (
             let owner = Scenarios.Scengen.user_name gen in
             let name =
               Scenarios.Locks.lock_name (Scenarios.Scengen.uniform gen n_locks)
             in
             let token = !next_token in
             incr next_token;
             Hashtbl.replace issued token ();
             let expires = !tick + 2 + Scenarios.Scengen.uniform gen 6 in
             match
               Net.Client.submit c
                 (Scenarios.Locks.acquire_sql ~owner ~name ~token ~expires)
             with
             | Net.Wire.Answered _ ->
               acked_grants := (token, name) :: !acked_grants;
               live_grants := (token, owner, name) :: !live_grants
             | _ -> () (* parked waiter: grant may land any time, or never *))
           | `Renew -> (
             match !live_grants with
             | [] -> ()
             | grants -> (
               let _, owner, name =
                 List.nth grants (Scenarios.Scengen.uniform gen (List.length grants))
               in
               let token = !next_token in
               incr next_token;
               let expires = !tick + 2 + Scenarios.Scengen.uniform gen 6 in
               match
                 Net.Client.submit c
                   (Scenarios.Locks.renew_sql ~owner ~name ~token ~now:!tick
                      ~expires)
               with
               | Net.Wire.Answered _ | Net.Wire.Registered _ | _ -> ()))
           | `Sweep -> (
             match
               Net.Client.submit c (Scenarios.Locks.sweep_sql ~now:!tick ~limit:1)
             with
             | Net.Wire.Answered n -> (
               match sweep_receipt n with
               | Some (name, token) ->
                 acked_reclaims := (name, token) :: !acked_reclaims;
                 live_grants :=
                   List.filter (fun (t, _, _) -> t <> token) !live_grants
               | None -> ())
             | _ -> () (* nothing expired; the parked instance stays inert *))
           | `Checkpoint -> ignore (Net.Client.admin c "checkpoint")
           | `Probe -> ignore (Net.Client.admin c "failpoint list")
         end
       done
     with _ -> crashed := true);
    (try Net.Client.close c with _ -> ());
    if not !crashed then begin
      say "failpoint never fired; parent SIGKILL";
      kill_child primary
    end
    else reap primary;
    say "crashed after %d op(s): %d grant(s), %d reclaim(s) acked" !ops
      (List.length !acked_grants)
      (List.length !acked_reclaims);

    (* ---- phase 2: recovery + lock invariants ---- *)
    let recovered =
      track (spawn ~name:"recovered" ~prog ~args:(server_args "0") ~env_extra:[])
    in
    let port2 =
      match wait_port recovered ~timeout:20. with
      | Some p -> p
      | None ->
        violation "server failed to recover from the crash:\n%s"
          (Buffer.contents recovered.log)
    in
    let c2 = Net.Client.connect ~port:port2 ~user:"checker" () in
    (* L0: seed data *)
    let lock_rows = select c2 "SELECT name, free FROM Locks" in
    if List.length lock_rows <> n_locks then
      violation "L0: expected %d locks after recovery, found %d" n_locks
        (List.length lock_rows);
    let lease_rows = select c2 "SELECT name, token FROM Leases" in
    let active_rows =
      select c2 "SELECT name, token FROM Leases WHERE active = 1"
    in
    let reclaim_rows = select c2 "SELECT name, token FROM Reclaims" in
    let active_names = List.map name_of_row active_rows in
    let active_tokens = List.map last_int_of_row active_rows in
    let lease_tokens = List.map last_int_of_row lease_rows in
    (* L1: at most one active lease per lock; Locks.free agrees *)
    let rec first_dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: rest -> first_dup rest
      | [] -> None
    in
    (match first_dup (List.sort compare active_names) with
    | Some name -> violation "L1: lock %s held by two owners after recovery" name
    | None -> ());
    List.iter
      (fun row ->
        let name = name_of_row row in
        let free = last_int_of_row row in
        let held = List.mem name active_names in
        if free = 1 && held then
          violation "L1: lock %s free but has an active lease" name;
        if free = 0 && not held then
          violation "L1: lock %s busy but has no active lease" name)
      lock_rows;
    (* L2: reclaims exactly-once, each pointing at a real, inactive lease *)
    (match first_dup (List.sort compare reclaim_rows) with
    | Some row -> violation "L2: lease %s reclaimed twice" row
    | None -> ());
    List.iter
      (fun row ->
        let token = last_int_of_row row in
        if not (List.mem token lease_tokens) then
          violation "L2: reclaim of unknown lease %s" row;
        if List.mem token active_tokens then
          violation "L2: reclaimed lease %s still active" row)
      reclaim_rows;
    (* L3: no lost grants, no phantom leases *)
    List.iter
      (fun (token, name) ->
        if not (List.mem token lease_tokens) then
          violation "L3: acknowledged grant (token %d, %s) lost by recovery"
            token name)
      !acked_grants;
    List.iter
      (fun token ->
        if not (Hashtbl.mem issued token) then
          violation "L3: phantom lease token %d after recovery" token)
      lease_tokens;
    List.iter
      (fun (name, token) ->
        if not (List.mem (name, token)
                  (List.map (fun r -> (name_of_row r, last_int_of_row r))
                     reclaim_rows))
        then
          violation "L2: acknowledged reclaim (%s, %d) lost by recovery" name
            token)
      !acked_reclaims;
    (* pending store is documented non-durable *)
    let pending = Net.Client.admin c2 "pending" in
    if not (contains pending "no pending") then
      violation "L?: pending store survived the crash: %s" pending;
    (* L4: a far-future sweep reclaims exactly the active leases, once
       each, and the locks become grantable again *)
    let far = !tick + 1000 in
    let expected = List.length active_rows in
    let swept = ref 0 in
    let rec drain_sweeps () =
      match
        Net.Client.submit c2 (Scenarios.Locks.sweep_sql ~now:far ~limit:1)
      with
      | Net.Wire.Answered _ ->
        incr swept;
        if !swept > expected then
          violation "L4: sweep reclaimed more leases than were active (%d > %d)"
            !swept expected
        else drain_sweeps ()
      | _ -> ()
    in
    drain_sweeps ();
    if !swept <> expected then
      violation "L4: sweep reclaimed %d of %d active leases" !swept expected;
    let reclaims_after = select c2 "SELECT name, token FROM Reclaims" in
    (match first_dup (List.sort compare reclaims_after) with
    | Some row -> violation "L4: lease %s reclaimed twice by the drain" row
    | None -> ());
    let post_token = !next_token + 1000 in
    (match
       Net.Client.submit c2
         (Scenarios.Locks.acquire_sql ~owner:"post-crash"
            ~name:(Scenarios.Locks.lock_name 0) ~token:post_token
            ~expires:(far + 10))
     with
    | Net.Wire.Answered _ -> ()
    | _ ->
      violation "L4: lock0 not grantable after the post-crash sweep");
    say "locks: recovery clean (%d active lease(s) re-swept exactly once)"
      expected;
    (try Net.Client.close c2 with _ -> ());
    terminate recovered
  with
  | () -> finish ~failed:false
  | exception e ->
    finish ~failed:true;
    raise e

(* ---------------- command line ---------------- *)

let run cycles seed cycle_seed server artifacts keep_tmp ops verbose =
  if not (Sys.file_exists server) then begin
    Printf.eprintf
      "server binary not found: %s (run `dune build` first, or pass \
       --server)\n"
      server;
    exit 2
  end;
  let seeds =
    match cycle_seed with
    | Some cs -> [ cs ]
    | None -> List.init cycles (fun i -> (seed * 1_000_003) + i + 1)
  in
  let total = List.length seeds in
  let result = ref 0 in
  (try
     List.iteri
       (fun i cs ->
         (* scenario by seed residue, so --cycle-seed reproduces it too *)
         let scenario, cycle_fn =
           match cs mod 2 with
           | 0 -> "travel", run_cycle
           | _ -> "locks", run_locks_cycle
         in
         Printf.printf "torture cycle %d/%d: seed=%d (%s)\n%!" (i + 1) total cs
           scenario;
         match
           cycle_fn ~prog:server ~artifacts ~keep_tmp ~ops_target:ops
             ~verbose ~cycle_seed:cs
         with
         | () -> ()
         | exception Violation msg ->
           Printf.printf "VIOLATION (cycle seed %d):\n  %s\n" cs msg;
           Printf.printf "reproduce with: torture.exe --cycle-seed %d\n%!" cs;
           result := 1;
           raise Exit)
       seeds
   with Exit -> ());
  if !result = 0 then
    Printf.printf "torture: %d cycle(s) completed, zero invariant violations\n"
      total;
  !result

open Cmdliner

let cycles_opt =
  Arg.(
    value & opt int 25
    & info [ "cycles" ] ~docv:"N" ~doc:"Number of crash-recovery cycles.")

let seed_opt =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Master seed; each cycle derives and prints its own seed.")

let cycle_seed_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "cycle-seed" ] ~docv:"N"
        ~doc:
          "Run exactly one cycle from this printed seed (reproduce a \
           failure).")

let server_opt =
  Arg.(
    value
    & opt string "_build/default/bin/youtopia_server.exe"
    & info [ "server" ] ~docv:"PATH" ~doc:"Server binary to torture.")

let artifacts_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR"
        ~doc:
          "On violation, copy the WAL, checkpoints and server logs under \
           $(docv).")

let keep_tmp_flag =
  Arg.(
    value & flag
    & info [ "keep-tmp" ] ~doc:"Keep each cycle's scratch directory.")

let ops_opt =
  Arg.(
    value & opt int 60
    & info [ "ops" ] ~docv:"N" ~doc:"Workload operations per cycle.")

let verbose_flag =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Narrate each cycle.")

let cmd =
  let doc = "seeded crash-recovery torture for the Youtopia server" in
  Cmd.v
    (Cmd.info "torture" ~doc)
    Term.(
      const run $ cycles_opt $ seed_opt $ cycle_seed_opt $ server_opt
      $ artifacts_opt $ keep_tmp_flag $ ops_opt $ verbose_flag)

let () = exit (Cmd.eval' cmd)
