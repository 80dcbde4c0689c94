(* The Youtopia server daemon: one shared system behind a TCP endpoint.

   Usage:
     dune exec bin/youtopia_server.exe                       # empty system
     dune exec bin/youtopia_server.exe -- --travel           # demo dataset
     dune exec bin/youtopia_server.exe -- --port 7077 --wal /tmp/y.wal
     dune exec bin/youtopia_server.exe -- --read-timeout 300
     dune exec bin/youtopia_server.exe -- --replica-of 10.0.0.1:7077  # read replica

   Connect with bin/youtopia_client.exe (or any speaker of
   docs/PROTOCOL.md).  Ctrl-C shuts down gracefully: in-flight responses
   are flushed before connections close. *)

(* Point fd 1 at /dev/null.  Started with stdout closed, the process
   would otherwise hand fd 1 to the next file it opens — the WAL, say —
   and console lines would land there; once stdout's reader has gone,
   every later flush (the exit-time one included) would raise EPIPE. *)
let park_stdout () =
  let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  if fd <> Unix.stdout then begin
    Unix.dup2 fd Unix.stdout;
    Unix.close fd
  end

let ensure_stdout () =
  match Unix.fstat Unix.stdout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> park_stdout ()

(* Console output is best-effort: a server whose stdout reader has gone
   must still serve and shut down cleanly. *)
let say fmt =
  Printf.ksprintf
    (fun s ->
      try
        print_string s;
        flush stdout
      with Sys_error _ -> (
        park_stdout ();
        try flush stdout with Sys_error _ -> ()))
    fmt

let run ~host ~port ~travel ~scenario ~seed ~wal ~read_timeout ~max_frame
    ~durability ~max_batch ~replica_of ~replica_id ~max_conns ~verbose =
  ensure_stdout ();
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.Src.set_level Net.Server.log_src (Some Logs.Debug);
    Logs.Src.set_level Net.Replication.log_src (Some Logs.Debug)
  end;
  let replica_of =
    match replica_of with
    | None -> None
    | Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
        let h = String.sub spec 0 i in
        let p = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt p with
        | Some p when h <> "" -> Some (h, p)
        | _ ->
          prerr_endline ("bad --replica-of '" ^ spec ^ "' (expected HOST:PORT)");
          exit 2)
      | None ->
        prerr_endline ("bad --replica-of '" ^ spec ^ "' (expected HOST:PORT)");
        exit 2)
  in
  (* before the WAL is opened: a rejected port leaves no file behind *)
  (try
     Net.Wire.check_port ~what:"--port" ~min:0 port;
     Option.iter
       (fun (_, p) -> Net.Wire.check_port ~what:"--replica-of" ~min:1 p)
       replica_of
   with Invalid_argument m ->
     prerr_endline m;
     exit 2);
  (match scenario with
  | None | Some "locks" | Some "groups" -> ()
  | Some s ->
    prerr_endline ("unknown --scenario '" ^ s ^ "' (expected locks|groups)");
    exit 2);
  if travel && scenario <> None then begin
    prerr_endline "--travel and --scenario load different datasets; pick one";
    exit 2
  end;
  if replica_of <> None && (travel || scenario <> None || wal <> None) then begin
    prerr_endline
      "--replica-of is incompatible with --travel/--scenario/--wal: a \
       replica's state comes from the primary";
    exit 2
  end;
  let report_recovery wal_path sys =
    let db = Youtopia.System.database sys in
    (match Relational.Database.recovery_stats db with
    | Some { Relational.Database.snapshot_lsn; replayed_batches; _ } ->
      say "recovered %s: %s%d batch(es) replayed\n" wal_path
        (match snapshot_lsn with
        | Some lsn -> Printf.sprintf "snapshot at lsn %d + " lsn
        | None -> "")
        replayed_batches
    | None -> ());
    sys
  in
  (* restart: replay an existing log (checkpoint + suffix) instead of
     coming up empty next to our own history *)
  let existing_wal =
    match wal with
    | Some p when Sys.file_exists p && (Unix.stat p).Unix.st_size > 0 -> Some p
    | _ -> None
  in
  let sys =
    match travel, scenario, existing_wal with
    | true, _, Some wal_path ->
      (* a travel server restarting over its own log: recover (adopting
         the travel answer relations) rather than re-populating *)
      report_recovery wal_path (Travel.Datagen.recover_system ~wal_path ())
    | true, _, None ->
      Travel.Datagen.make_system ?wal_path:wal ~seed ~n_flights:32
        ~n_hotels:16 ()
    | false, Some "locks", Some wal_path ->
      report_recovery wal_path (Scenarios.Locks.recover_system ~wal_path ())
    | false, Some "locks", None ->
      Scenarios.Locks.make_system ?wal_path:wal ~n_locks:32 ()
    | false, Some _, Some wal_path ->
      report_recovery wal_path (Scenarios.Groups.recover_system ~wal_path ())
    | false, Some _, None ->
      Scenarios.Groups.make_system ?wal_path:wal ~seed ~n_rides:32 ~capacity:8 ()
    | false, None, Some wal_path ->
      report_recovery wal_path
        (Youtopia.System.recover ~wal_path ~answer_relations:[] ())
    | false, None, None -> Youtopia.System.create ?wal_path:wal ()
  in
  let fresh_travel = travel && existing_wal = None in
  let fresh_scenario =
    if travel || existing_wal <> None then None else scenario
  in
  let durability =
    match durability with
    | None -> None
    | Some s ->
      (match Relational.Wal.durability_of_string s with
      | Some d -> Some d
      | None ->
        prerr_endline
          ("unknown durability mode '" ^ s
         ^ "' (expected never|flush|fsync)");
        exit 2)
  in
  if max_batch < 1 then begin
    prerr_endline "--max-batch must be at least 1";
    exit 2
  end;
  let config =
    {
      Net.Server.default_config with
      host;
      port;
      read_timeout;
      max_frame;
      durability;
      max_batch;
      replica_of;
      replica_id;
      max_conns;
    }
  in
  (* Signal handlers only run at safepoints in a thread executing OCaml
     code; a main thread parked in Condition.wait never reaches one, so a
     Ctrl-C would stay pending forever.  Poll a flag instead — Thread.delay
     returns to OCaml code regularly, giving the runtime a safepoint to run
     the handler at.  Installed before the socket listens, so a signal
     that races start-up still takes the clean path. *)
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  let server = Net.Server.start ~config sys in
  say "youtopia server listening on %s:%d (protocol v%d)%s\n" host
    (Net.Server.port server) Net.Wire.protocol_version
    (match replica_of with
    | Some (h, p) -> Printf.sprintf " — read replica of %s:%d" h p
    | None -> "");
  if fresh_travel then say "travel dataset loaded (32 flights, 16 hotels)\n";
  (match fresh_scenario with
  | Some "locks" -> say "lock-lease scenario loaded (32 locks)\n"
  | Some _ -> say "group-formation scenario loaded (32 rides)\n"
  | None -> ());
  while not (Atomic.get stop) do
    Thread.delay 0.2
  done;
  Net.Server.stop server;
  say "shut down\n%s\n" (Net.Server_stats.render (Net.Server.stats server));
  0

open Cmdliner

let host_opt =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_opt =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.port
    & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let travel_flag =
  Arg.(value & flag & info [ "travel" ] ~doc:"Serve the demo travel dataset.")

let scenario_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Serve a coordination scenario dataset: $(b,locks) (the lock-lease \
           service — acquire/renew/sweep as THEN-clause entangled SQL) or \
           $(b,groups) (k-way ride formation).")

let seed_opt =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"Travel dataset generator seed.")

let wal_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"PATH" ~doc:"Attach a write-ahead log at $(docv).")

let read_timeout_opt =
  Arg.(
    value & opt float 0.
    & info [ "read-timeout" ] ~docv:"SECONDS"
        ~doc:"Close connections idle for $(docv) seconds (0 = never).")

let max_frame_opt =
  Arg.(
    value
    & opt int Net.Wire.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Maximum frame payload size.")

let durability_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "durability" ] ~docv:"MODE"
        ~doc:
          "WAL commit durability: $(b,never), $(b,flush) (no crash \
           durability) or $(b,fsync).  A write batch syncs once at its end \
           (see $(b,--max-batch)).  Default: leave the database's mode \
           untouched.")

let max_batch_opt =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.max_batch
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Most write requests one batch executes: the writes the event loop \
           decodes in one poll iteration run together, under one engine \
           lock, one WAL flush and one coordinator poke.  1 runs every \
           write alone (the per-request baseline).")

let replica_of_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a read replica of the primary at $(docv): serve SELECTs \
           locally, redirect writes, and tail the primary's WAL (snapshot \
           bootstrap + live stream, reconnecting with backoff).")

let replica_id_opt =
  Arg.(
    value
    & opt string Net.Server.default_config.Net.Server.replica_id
    & info [ "replica-id" ] ~docv:"NAME"
        ~doc:"Name announced to the primary in the replica handshake.")

let max_conns_opt =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.max_conns
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Refuse accepts beyond $(docv) live connections (0 = unlimited).")

let verbose_flag =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log connection events.")

let cmd =
  let doc = "Youtopia TCP server (shared system, pushed coordination answers)" in
  Cmd.v
    (Cmd.info "youtopia_server" ~doc)
    Term.(
      const
        (fun host port travel scenario seed wal read_timeout max_frame
             durability max_batch replica_of replica_id max_conns verbose ->
          run ~host ~port ~travel ~scenario ~seed ~wal ~read_timeout ~max_frame
            ~durability ~max_batch ~replica_of ~replica_id ~max_conns ~verbose)
      $ host_opt $ port_opt $ travel_flag $ scenario_opt $ seed_opt $ wal_opt
      $ read_timeout_opt $ max_frame_opt $ durability_opt $ max_batch_opt
      $ replica_of_opt $ replica_id_opt $ max_conns_opt $ verbose_flag)

let () = exit (Cmd.eval' cmd)
