(* The failpoint subsystem: arming modes (Nth hit, one-shot, seeded
   probability), hit/fired accounting, spec and env parsing, zero-cost
   behaviour when disabled, injected faults at the WAL / txn / checkpoint
   / wire seams (recovery keeps exactly the committed prefix), a
   fork-based SIGKILL check, the ADMIN|…|failpoint wire control, and a
   qcheck property: one random injected storage fault, then crash —
   recovery ≡ fault-free replay of the committed prefix. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string_t = Alcotest.string

(* the registry is global: every test starts and ends clean, with the
   RNG back on a known seed *)
let with_clean f =
  Fault.disarm_all ();
  Fault.set_seed 0;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Fault.set_seed 0)
    f

let raises_injected f =
  match f () with
  | _ -> false
  | exception Fault.Injected _ -> true

(* ---------------- arming modes ---------------- *)

let test_disabled_is_free () =
  with_clean (fun () ->
      check bool "nothing armed" false (Fault.enabled ());
      Fault.point "wal.fsync";
      check bool "cut passes" true (Fault.cut "wal.append" ~len:100 = None);
      check bool "skip passes" false (Fault.skip "wire.send.drop");
      (* a disarmed point is not even tracked *)
      check int "no hit accounting" 0 (Fault.hits "wal.fsync"))

let test_from_hit () =
  with_clean (fun () ->
      Fault.arm ~from_hit:3 "p" (Fault.Error "late");
      Fault.point "p";
      Fault.point "p";
      check bool "third hit fires" true (raises_injected (fun () -> Fault.point "p"));
      check bool "fourth too (not one-shot)" true
        (raises_injected (fun () -> Fault.point "p"));
      check int "hits" 4 (Fault.hits "p");
      check int "fired" 2 (Fault.fired "p"))

let test_one_shot () =
  with_clean (fun () ->
      (match Fault.arm_spec "p" "error(once)!" with
      | Ok () -> ()
      | Result.Error e -> Alcotest.fail e);
      check bool "first hit fires" true (raises_injected (fun () -> Fault.point "p"));
      Fault.point "p";
      (* spent, not disarmed: hits keep counting *)
      Fault.point "p";
      check int "hits" 3 (Fault.hits "p");
      check int "fired once" 1 (Fault.fired "p"))

let test_probability_seed_determinism () =
  with_clean (fun () ->
      let pattern () =
        Fault.arm ~probability:0.4 "p" (Fault.Error "");
        Fault.set_seed 7;
        List.init 60 (fun _ -> raises_injected (fun () -> Fault.point "p"))
      in
      let a = pattern () in
      let b = pattern () in
      check bool "same seed, same firings" true (a = b);
      let fired = List.length (List.filter Fun.id a) in
      check bool "fires sometimes, not always" true (fired > 0 && fired < 60);
      Fault.set_seed 8;
      Fault.arm ~probability:0.4 "p" (Fault.Error "");
      let c = List.init 60 (fun _ -> raises_injected (fun () -> Fault.point "p")) in
      check bool "different seed, different firings" true (a <> c))

(* ---------------- spec / env parsing ---------------- *)

let test_spec_roundtrip () =
  with_clean (fun () ->
      List.iter
        (fun spec ->
          match Fault.arm_spec "p" spec with
          | Ok () ->
            check string_t ("spec " ^ spec)
              (Printf.sprintf "p=%s hits=0 fired=0" spec)
              (String.concat ";" (Fault.list ()))
          | Result.Error e -> Alcotest.failf "spec %s rejected: %s" spec e)
        [
          "kill";
          "drop";
          "error";
          "error(disk gone)";
          "partial(17)";
          "delay(0.25)";
          "3->kill";
          "50%drop";
          "2->partial(17)!";
        ])

let test_spec_malformed () =
  with_clean (fun () ->
      List.iter
        (fun spec ->
          match Fault.arm_spec "p" spec with
          | Ok () -> Alcotest.failf "spec %S must be rejected" spec
          | Result.Error _ -> ())
        [ ""; "nope"; "partial(x)"; "partial(-1)"; "delay(abc)"; "delay(-1)"; "0->kill" ];
      check bool "nothing armed by rejects" false (Fault.enabled ()))

let test_parse_pairs () =
  with_clean (fun () ->
      (match Fault.parse_pairs "x=error; y=2->drop!" with
      | Ok summary -> check string_t "summary names both" "x,y" summary
      | Result.Error e -> Alcotest.fail e);
      check int "both armed" 2 (List.length (Fault.list ()));
      (match Fault.parse_pairs "bad-entry" with
      | Ok _ -> Alcotest.fail "missing '=' must be rejected"
      | Result.Error _ -> ());
      (match Fault.parse_pairs "=kill" with
      | Ok _ -> Alcotest.fail "missing name must be rejected"
      | Result.Error _ -> ());
      match Fault.parse_pairs "x=wat" with
      | Ok _ -> Alcotest.fail "bad action must be rejected"
      | Result.Error _ -> ())

let test_env_init () =
  with_clean (fun () ->
      Unix.putenv "YOUTOPIA_FAILPOINTS" "envpt=error(env-armed)";
      Unix.putenv "YOUTOPIA_FAULT_SEED" "123";
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "YOUTOPIA_FAILPOINTS" "";
          Unix.putenv "YOUTOPIA_FAULT_SEED" "")
        (fun () ->
          Fault.init_from_env ();
          match Fault.point "envpt" with
          | _ -> Alcotest.fail "env-armed point must fire"
          | exception Fault.Injected (p, detail) ->
            check string_t "point name" "envpt" p;
            check string_t "detail" "env-armed" detail))

(* ---------------- storage seams ---------------- *)

let schema () =
  Schema.make ~primary_key:[ 0 ] "Accounts"
    [ Schema.column "id" Ctype.TInt; Schema.column "balance" Ctype.TInt ]

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "youtopia_fault_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let rm_rf () =
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:rm_rf (fun () -> f (Filename.concat dir "db.wal"))

let dump db =
  List.map
    (fun name ->
      let t = Catalog.find db.Database.catalog name in
      name :: List.sort compare (List.map Wal.encode_tuple (Table.rows t)))
    (List.sort compare (Catalog.table_names db.Database.catalog))

let insert db i =
  Database.with_txn db (fun txn ->
      ignore
        (Txn.insert txn (Database.find_table db "Accounts")
           [| Value.Int i; Value.Int (i * 100) |]))

let seeded path n =
  let db = Database.create () in
  Database.attach_wal db path;
  ignore (Database.create_table db (schema ()));
  for i = 1 to n do
    insert db i
  done;
  db

(* a torn WAL append: the failed txn rolls back, the crash drops the torn
   tail, and recovery yields exactly the pre-fault rows *)
let test_wal_partial_write_recovers_prefix () =
  with_clean (fun () ->
      with_tmp_dir (fun path ->
          let db = seeded path 5 in
          let expect = dump db in
          (match Fault.arm_spec "wal.append" "partial(4)!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          check bool "torn append surfaces" true
            (raises_injected (fun () -> insert db 6));
          check bool "in-memory state rolled back" true (expect = dump db);
          (* the log is poisoned: appending after the torn line would
             bury the tear mid-file, so later commits must fail too *)
          check bool "log poisoned after the tear" true
            (raises_injected (fun () -> insert db 7));
          check bool "poisoned commit also rolled back" true (expect = dump db);
          Database.crash db;
          let recovered = Database.recover path in
          check bool "recovery = committed prefix" true (expect = dump recovered);
          Database.close recovered))

(* DDL after a torn append: it takes the same append as a commit, so the
   poisoned log refuses it too, and the catalog change is undone.  Were it
   written after the torn bytes, recovery would fail on the tear
   mid-file. *)
let test_ddl_after_torn_append_refused () =
  with_clean (fun () ->
      with_tmp_dir (fun path ->
          let db = seeded path 5 in
          let expect = dump db in
          (match Fault.arm_spec "wal.append" "partial(4)!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          check bool "torn append surfaces" true
            (raises_injected (fun () -> insert db 6));
          let b =
            Schema.make ~primary_key:[ 0 ] "B" [ Schema.column "id" Ctype.TInt ]
          in
          check bool "DDL refused by the poisoned log" true
            (raises_injected (fun () -> ignore (Database.create_table db b)));
          check bool "refused DDL undone in memory" true (expect = dump db);
          Database.crash db;
          let recovered = Database.recover path in
          check bool "recovery = committed prefix" true (expect = dump recovered);
          Database.close recovered))

(* a failed batch-scope sync: the scope raises the sync's own error (not
   a [Fun.Finally_raised] wrapper) and poisons the log like a failed
   per-commit sync; a body's own exception still wins over the sync's *)
let test_batch_scope_sync_failure_sticky () =
  let scope_with_failing_fsync body =
    with_tmp_dir (fun path ->
        let db = seeded path 2 in
        Database.set_durability db Wal.Fsync_per_commit;
        (match Fault.arm_spec "wal.fsync" "error(EIO)!" with
        | Ok () -> ()
        | Result.Error e -> Alcotest.fail e);
        let outcome =
          match Database.with_wal_batch db (fun () -> body db) with
          | () -> "returned"
          | exception Fault.Injected ("wal.fsync", _) -> "sync error"
          | exception Exit -> "body error"
          | exception e -> Printexc.to_string e
        in
        let commit_refused = raises_injected (fun () -> insert db 9) in
        let scope_refused =
          raises_injected (fun () -> Database.with_wal_batch db (fun () -> ()))
        in
        Database.close db;
        (outcome, commit_refused, scope_refused))
  in
  with_clean (fun () ->
      let outcome, commit_refused, scope_refused =
        scope_with_failing_fsync (fun db -> insert db 3)
      in
      check string_t "scope raises the sync's own error" "sync error" outcome;
      check bool "later commit refused" true commit_refused;
      check bool "later scope refused" true scope_refused);
  with_clean (fun () ->
      let outcome, commit_refused, _ =
        scope_with_failing_fsync (fun db ->
            insert db 3;
            raise Exit)
      in
      check string_t "body's exception wins" "body error" outcome;
      check bool "log poisoned all the same" true commit_refused)

(* an injected commit error: with_txn rolls back and the engine stays
   usable (the manager mutex is released) *)
let test_txn_commit_error_rolls_back () =
  with_clean (fun () ->
      let db = Database.create () in
      ignore (Database.create_table db (schema ()));
      insert db 1;
      let expect = dump db in
      (match Fault.arm_spec "txn.commit" "error(no commit for you)!" with
      | Ok () -> ()
      | Result.Error e -> Alcotest.fail e);
      check bool "commit raises" true (raises_injected (fun () -> insert db 2));
      check bool "rolled back" true (expect = dump db);
      insert db 3;
      check bool "engine usable afterwards" true (expect <> dump db);
      Database.close db)

(* a snapshot torn in place: load_latest must reject it and fall back to
   the older snapshot *)
let test_checkpoint_torn_falls_back () =
  with_clean (fun () ->
      with_tmp_dir (fun path ->
          let db = seeded path 3 in
          let good_lsn, _ = Database.checkpoint db ~keep:10 in
          insert db 4;
          let expect = dump db in
          (match Fault.arm_spec "checkpoint.lines" "partial(2)!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          check bool "torn checkpoint surfaces" true
            (raises_injected (fun () -> ignore (Database.checkpoint db ~keep:10)));
          Database.crash db;
          let recovered = Database.recover path in
          check bool "state intact" true (expect = dump recovered);
          (match Database.recovery_stats recovered with
          | Some { snapshot_lsn = Some l; _ } ->
            check int "older snapshot used, torn one rejected" good_lsn l
          | _ -> Alcotest.fail "expected snapshot-based recovery");
          Database.close recovered))

let test_checkpoint_write_error_leaves_no_file () =
  with_clean (fun () ->
      with_tmp_dir (fun path ->
          let db = seeded path 3 in
          ignore (Database.checkpoint db ~keep:10);
          let before = List.length (Checkpoint.list ~wal_path:path) in
          (match Fault.arm_spec "checkpoint.write" "error!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          check bool "checkpoint fails" true
            (raises_injected (fun () -> ignore (Database.checkpoint db ~keep:10)));
          check int "no snapshot added" before
            (List.length (Checkpoint.list ~wal_path:path));
          Database.close db))

(* ---------------- wire seams ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_send_drop () =
  with_clean (fun () ->
      with_socketpair (fun a b ->
          (match Fault.arm_spec "wire.send.drop" "drop!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          Net.Wire.write_frame a "lost";
          Net.Wire.write_frame a "kept";
          check string_t "dropped frame never arrives" "kept"
            (Net.Wire.read_frame b)))

let test_wire_send_truncated_is_reset () =
  with_clean (fun () ->
      with_socketpair (fun a b ->
          (match Fault.arm_spec "wire.send" "partial(3)!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          (match Net.Wire.write_frame a "hello" with
          | _ -> Alcotest.fail "truncated send must raise Closed"
          | exception Net.Wire.Closed -> ());
          (* the peer sees a half frame then EOF: a dead connection *)
          Unix.close a;
          match Net.Wire.read_frame b with
          | _ -> Alcotest.fail "peer must see Closed"
          | exception Net.Wire.Closed -> ()))

let test_wire_recv_faults () =
  with_clean (fun () ->
      with_socketpair (fun a b ->
          (* an injected recv error surfaces as a dead connection, never
             as Fault.Injected escaping into protocol code *)
          (match Fault.arm_spec "wire.recv" "error!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          Net.Wire.write_frame a "x";
          match Net.Wire.read_frame b with
          | _ -> Alcotest.fail "injected recv error must raise Closed"
          | exception Net.Wire.Closed -> ());
      Fault.disarm_all ();
      (* recv-side drop on a FRESH pair (the aborted read above left its
         frame queued): swallow one delivered frame, return the next *)
      with_socketpair (fun a b ->
          (match Fault.arm_spec "wire.recv.drop" "drop!" with
          | Ok () -> ()
          | Result.Error e -> Alcotest.fail e);
          Net.Wire.write_frame a "swallowed";
          Net.Wire.write_frame a "second";
          check string_t "first frame dropped on receive" "second"
            (Net.Wire.read_frame b)))

(* ---------------- kill ---------------- *)

(* Kill must be a SIGKILL — no exit handlers, no flushes.  Fork a child
   that arms and hits a kill point; the parent checks how it died. *)
let test_kill_is_sigkill () =
  with_clean (fun () ->
      match Unix.fork () with
      | 0 ->
        Fault.disarm_all ();
        Fault.arm "die.here" Fault.Kill;
        (try Fault.point "die.here" with _ -> ());
        (* unreachable unless the kill failed *)
        Unix._exit 7
      | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WSIGNALED s ->
          check int "died of SIGKILL" Sys.sigkill s
        | _, Unix.WEXITED n -> Alcotest.failf "child exited %d instead of dying" n
        | _, Unix.WSTOPPED _ -> Alcotest.fail "child stopped?"))

(* ---------------- admin wire control ---------------- *)

let with_server f =
  let sys = Travel.Datagen.make_system ~seed:1 ~n_flights:4 ~n_hotels:2 () in
  let config = { Net.Server.default_config with Net.Server.port = 0 } in
  let server = Net.Server.start ~config sys in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop server)
    (fun () -> f (Net.Server.port server))

let test_admin_failpoint_roundtrip () =
  with_clean (fun () ->
      with_server (fun port ->
          let c = Net.Client.connect ~port ~user:"ops" () in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c)
            (fun () ->
              check string_t "arm" "armed fp.test=error(boom)"
                (Net.Client.admin c "failpoint arm fp.test error(boom)");
              let listing = Net.Client.admin c "failpoint list" in
              check bool "listed" true
                (Astring.String.is_infix ~affix:"fp.test=error(boom)" listing);
              check bool "count line" true
                (Astring.String.is_prefix ~affix:"failpoints=1" listing);
              (* the server shares this process's registry: the armed
                 point is genuinely live *)
              (match Fault.point "fp.test" with
              | _ -> Alcotest.fail "wire-armed point must fire"
              | exception Fault.Injected (_, d) -> check string_t "detail" "boom" d);
              check string_t "seed" "seed=99"
                (Net.Client.admin c "failpoint seed 99");
              check string_t "disarm" "disarmed fp.test"
                (Net.Client.admin c "failpoint disarm fp.test");
              check string_t "clear" "cleared"
                (Net.Client.admin c "failpoint clear");
              check bool "registry empty" false (Fault.enabled ());
              (match Net.Client.admin c "failpoint arm onlyname" with
              | _ -> Alcotest.fail "arm without a spec must error"
              | exception Net.Client.Server_error m ->
                check bool "usage reported" true
                  (Astring.String.is_infix ~affix:"failpoint" m));
              match Net.Client.admin c "failpoint arm p wat" with
              | _ -> Alcotest.fail "bad spec must error"
              | exception Net.Client.Server_error m ->
                check bool "parse error reported" true
                  (Astring.String.is_infix ~affix:"unknown action" m))))

(* ---------------- property: one fault, crash, recover ---------------- *)

type op = Ins of int | Upd of int * int | Del of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Ins k) (int_range 1 30));
        (2, map2 (fun k b -> Upd (k, b)) (int_range 1 30) (int_range 0 999));
        (1, map (fun k -> Del k) (int_range 1 30));
      ])

let apply_op db = function
  | Ins k ->
    if Table.lookup_pk (Database.find_table db "Accounts") [| Value.Int k |] = None
    then insert db k
  | Upd (k, b) ->
    Database.with_txn db (fun txn ->
        let t = Database.find_table db "Accounts" in
        match Table.lookup_pk t [| Value.Int k |] with
        | None -> ()
        | Some id -> ignore (Txn.update txn t id [| Value.Int k; Value.Int b |]))
  | Del k ->
    Database.with_txn db (fun txn ->
        let t = Database.find_table db "Accounts" in
        match Table.lookup_pk t [| Value.Int k |] with
        | None -> ()
        | Some id -> ignore (Txn.delete txn t id))

(* the faults a single crash-recovery cycle must shrug off; all one-shot
   so exactly one fires *)
let fault_specs =
  [|
    ("wal.append", "partial(1)!");
    ("wal.append", "partial(9)!");
    ("wal.append", "drop!");
    ("wal.flush", "error(flush lost)!");
    ("wal.commit", "error(commit refused)!");
    ("txn.commit", "error(txn refused)!");
    ("checkpoint.lines", "partial(2)!");
    ("checkpoint.write", "error!");
  |]

let prop_single_fault_recovery_equals_committed_prefix =
  QCheck.Test.make
    ~name:"one injected storage fault + crash = fault-free committed prefix"
    ~count:40
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 20) (make op_gen))
        (int_bound 20)
        (int_bound (Array.length fault_specs - 1)))
    (fun (ops, at, which) ->
      with_clean (fun () ->
          with_tmp_dir (fun path ->
              let at = min at (List.length ops) in
              let point, spec = fault_specs.(which) in
              let db = seeded path 0 in
              let shadow = Database.create () in
              ignore (Database.create_table shadow (schema ()));
              (* committed prefix: everything before the armed step *)
              List.iteri
                (fun i op ->
                  if i < at then begin
                    apply_op db op;
                    apply_op shadow op
                  end)
                ops;
              (match Fault.arm_spec point spec with
              | Ok () -> ()
              | Result.Error e -> Alcotest.fail e);
              (* the faulted step: a checkpoint for checkpoint faults,
                 the next op otherwise; if the fault never fires (e.g. a
                 no-op update writes nothing) the step commits normally *)
              let faulted_step () =
                if String.length point >= 10 && String.sub point 0 10 = "checkpoint"
                then ignore (Database.checkpoint db ~keep:10)
                else
                  match List.nth_opt ops at with
                  | Some op ->
                    apply_op db op;
                    apply_op shadow op
                  | None -> ()
              in
              (try faulted_step () with Fault.Injected _ -> ());
              Database.crash db;
              let recovered = Database.recover path in
              let ok = dump recovered = dump shadow in
              Database.close recovered;
              Database.close shadow;
              ok)))

let suite =
  [
    Alcotest.test_case "disabled points are free" `Quick test_disabled_is_free;
    Alcotest.test_case "trigger on the Nth hit" `Quick test_from_hit;
    Alcotest.test_case "one-shot disarms after firing" `Quick test_one_shot;
    Alcotest.test_case "probability is seed-deterministic" `Quick
      test_probability_seed_determinism;
    Alcotest.test_case "spec grammar round-trips" `Quick test_spec_roundtrip;
    Alcotest.test_case "malformed specs rejected" `Quick test_spec_malformed;
    Alcotest.test_case "env-format pair lists" `Quick test_parse_pairs;
    Alcotest.test_case "arming from the environment" `Quick test_env_init;
    Alcotest.test_case "torn WAL append: recovery keeps the prefix" `Quick
      test_wal_partial_write_recovers_prefix;
    Alcotest.test_case "DDL after a torn WAL append is refused" `Quick
      test_ddl_after_torn_append_refused;
    Alcotest.test_case "failed batch-scope sync is sticky" `Quick
      test_batch_scope_sync_failure_sticky;
    Alcotest.test_case "injected commit error rolls back" `Quick
      test_txn_commit_error_rolls_back;
    Alcotest.test_case "torn checkpoint falls back to older snapshot" `Quick
      test_checkpoint_torn_falls_back;
    Alcotest.test_case "checkpoint write error leaves no snapshot" `Quick
      test_checkpoint_write_error_leaves_no_file;
    Alcotest.test_case "wire send drop swallows one frame" `Quick
      test_wire_send_drop;
    Alcotest.test_case "wire truncated send is a reset" `Quick
      test_wire_send_truncated_is_reset;
    Alcotest.test_case "wire recv faults are Closed" `Quick test_wire_recv_faults;
    Alcotest.test_case "kill is a real SIGKILL" `Quick test_kill_is_sigkill;
    Alcotest.test_case "ADMIN failpoint wire control" `Quick
      test_admin_failpoint_roundtrip;
    QCheck_alcotest.to_alcotest prop_single_fault_recovery_equals_committed_prefix;
  ]
