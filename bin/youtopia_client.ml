(* The Youtopia network REPL: SQL over TCP against a running
   youtopia_server, with pushed coordination answers.

   Usage:
     dune exec bin/youtopia_client.exe -- --user jerry
     dune exec bin/youtopia_client.exe -- --host 10.0.0.5 --port 7077

   Besides SQL (sent verbatim to the server), the REPL accepts:
     \inbox              drain pushed coordination answers
     \wait [secs]        block until an answer is pushed
     \cancel <id>        withdraw pending query Q<id>
     \server             server/wire counters
     \stats \pending \answers \tables \report    engine dumps
     \ping               round-trip check
     \quit

   Pushed answers also surface before every prompt, so a second terminal's
   matching query shows up here without any command. *)

let print_notification n =
  Printf.printf "<< pushed answer: %s\n" (Core.Events.notification_to_string n)

let rec print_body = function
  | Net.Wire.Sql_result s | Net.Wire.Listing s -> print_endline s
  | Net.Wire.Registered id ->
    Printf.printf "query registered as Q%d; answer will be pushed when the group closes\n" id
  | Net.Wire.Answered n ->
    print_endline (Core.Events.notification_to_string n)
  | Net.Wire.Rejected m -> Printf.printf "rejected: %s\n" m
  | Net.Wire.Multi bodies -> List.iter print_body bodies

let parse_replica spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
    let h = String.sub spec 0 i in
    let p = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt p with
    | Some p when h <> "" -> (h, p)
    | _ ->
      prerr_endline ("bad --replica '" ^ spec ^ "' (expected HOST:PORT)");
      exit 2)
  | None ->
    prerr_endline ("bad --replica '" ^ spec ^ "' (expected HOST:PORT)");
    exit 2

let run ~host ~port ~user ~replicas scripts =
  let replicas = List.map parse_replica replicas in
  match Net.Client.connect ~host ~port ~replicas ~user () with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot connect to %s:%d: %s\n" host port (Unix.error_message e);
    1
  | exception Net.Client.Server_error m ->
    Printf.eprintf "server rejected the connection: %s\n" m;
    1
  | exception Invalid_argument m ->
    prerr_endline m;
    2
  | client ->
    Printf.printf "connected to %s:%d as %s (server: %s)%s\n%!" host port user
      (Net.Client.banner client)
      (match Net.Client.replica_count client with
      | 0 -> ""
      | n -> Printf.sprintf "; routing reads across %d replica(s)" n);
    let execute line =
      match String.trim line with
      | "" -> ()
      | "\\quit" | "\\q" -> raise Exit
      | "\\inbox" -> (
        match Net.Client.poll_notifications client with
        | [] -> print_endline "(inbox empty)"
        | ns -> List.iter print_notification ns)
      | "\\wait" -> (
        match Net.Client.wait_notification client with
        | Some n -> print_notification n
        | None -> print_endline "(connection closed)")
      | "\\server" -> print_endline (Net.Client.admin client "server")
      | "\\stats" -> print_endline (Net.Client.admin client "stats")
      | "\\pending" -> print_endline (Net.Client.admin client "pending")
      | "\\answers" -> print_endline (Net.Client.admin client "answers")
      | "\\tables" -> print_endline (Net.Client.admin client "tables")
      | "\\report" -> print_endline (Net.Client.admin client "report")
      | "\\ping" ->
        let t0 = Unix.gettimeofday () in
        ignore (Net.Client.ping client);
        Printf.printf "pong (%.1f us)\n" ((Unix.gettimeofday () -. t0) *. 1e6)
      | line when String.length line > 6 && String.sub line 0 6 = "\\wait " -> (
        match float_of_string_opt (String.trim (String.sub line 6 (String.length line - 6))) with
        | None -> print_endline "usage: \\wait [seconds]"
        | Some secs -> (
          match Net.Client.wait_notification ~timeout:secs client with
          | Some n -> print_notification n
          | None -> print_endline "(no answer yet)"))
      | line when String.length line > 7 && String.sub line 0 7 = "\\admin " -> (
        (* raw admin probe passthrough, e.g.
           \admin failpoint arm wal.fsync 3->kill *)
        let what = String.trim (String.sub line 7 (String.length line - 7)) in
        match Net.Client.admin client what with
        | m -> print_endline m
        | exception Net.Client.Server_error m -> Printf.printf "error: %s\n" m)
      | line when String.length line > 8 && String.sub line 0 8 = "\\cancel " -> (
        match int_of_string_opt (String.trim (String.sub line 8 (String.length line - 8))) with
        | None -> print_endline "usage: \\cancel <query id>"
        | Some qid -> (
          match Net.Client.cancel client qid with
          | m -> print_endline m
          | exception Net.Client.Server_error m -> Printf.printf "error: %s\n" m))
      | sql -> (
        match Net.Client.submit client sql with
        | body -> print_body body
        | exception Net.Client.Server_error m -> Printf.printf "error: %s\n" m)
    in
    (match scripts with
    | [] ->
      (try
         while true do
           List.iter print_notification (Net.Client.poll_notifications client);
           Printf.printf "youtopia@%s(%s)> " host user;
           flush stdout;
           match input_line stdin with
           | line -> execute line
           | exception End_of_file -> raise Exit
         done
       with
      | Exit -> ()
      | Net.Wire.Closed ->
        print_endline "connection closed by server")
    | files ->
      List.iter
        (fun path ->
          let ic = open_in path in
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          close_in ic;
          execute text)
        files);
    Net.Client.close client;
    0

open Cmdliner

let host_opt =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let port_opt =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.port
    & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server port.")

let user_opt =
  Arg.(
    value
    & opt string (try Sys.getenv "USER" with Not_found -> "client")
    & info [ "user" ] ~docv:"NAME" ~doc:"Session owner (entangled-query owner).")

let replicas_opt =
  Arg.(
    value
    & opt_all string []
    & info [ "replica" ] ~docv:"HOST:PORT"
        ~doc:
          "Read replica to route read-only SQL to (repeatable; round-robin \
           with fallback to the primary).")

let scripts_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"SCRIPT" ~doc:"SQL script files.")

let cmd =
  let doc = "Youtopia network REPL (SQL over TCP, pushed coordination answers)" in
  Cmd.v
    (Cmd.info "youtopia_client" ~doc)
    Term.(
      const (fun host port user replicas scripts ->
          run ~host ~port ~user ~replicas scripts)
      $ host_opt $ port_opt $ user_opt $ replicas_opt $ scripts_arg)

let () = exit (Cmd.eval' cmd)
