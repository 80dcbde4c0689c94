(* WAL torn-write recovery: a crash can cut the log anywhere — mid-record,
   mid-line, or between records of an uncommitted batch.  Recovery must
   replay every complete (commit-terminated) batch and discard the torn
   tail, at EVERY truncation offset, without erroring. *)

open Relational

let check = Alcotest.check
let int = Alcotest.int

let schema () =
  Schema.make ~primary_key:[ 0 ] "Accounts"
    [
      Schema.column "id" Ctype.TInt;
      Schema.column "owner" Ctype.TText;
      Schema.column "balance" Ctype.TInt;
    ]

let with_tmp f =
  let path = Filename.temp_file "youtopia_torn" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(** Write [n_batches] committed batches (schema creation + one insert
    each); return the byte offset of each batch boundary, in order. *)
let write_batches path n_batches =
  let log = Wal.open_log path in
  let boundaries = ref [] in
  let record_boundary () =
    let ic = open_in path in
    let len = in_channel_length ic in
    close_in ic;
    boundaries := len :: !boundaries
  in
  Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
  record_boundary ();
  for i = 1 to n_batches do
    Wal.append_commit log ~txn_id:i
      [
        Wal.Insert
          ( "Accounts",
            [| Value.Int i; Value.Str (Printf.sprintf "owner%d" i); Value.Int (i * 100) |]
          );
      ];
    record_boundary ()
  done;
  Wal.close log;
  List.rev !boundaries

let truncate_copy path n =
  let ic = open_in_bin path in
  let data = really_input_string ic (min n (in_channel_length ic)) in
  close_in ic;
  let copy = Filename.temp_file "youtopia_torn_cut" ".wal" in
  let oc = open_out_bin copy in
  output_string oc data;
  close_out oc;
  copy

let rows_after_replay path =
  let cat = Wal.replay path in
  match Catalog.find_opt cat "Accounts" with
  | None -> -1 (* even the schema batch was discarded *)
  | Some t -> Table.row_count t

(** Truncate at every byte offset spanning the last batch (from the end of
    the second-to-last batch through the full file) and check the replayed
    row count: only at the final boundary does the last batch survive. *)
let test_every_offset_of_last_batch () =
  with_tmp (fun path ->
      let boundaries = write_batches path 3 in
      let full = List.nth boundaries 3 in
      let prev = List.nth boundaries 2 in
      for cut = prev to full do
        let copy = truncate_copy path cut in
        let rows =
          Fun.protect
            ~finally:(fun () -> try Sys.remove copy with Sys_error _ -> ())
            (fun () -> rows_after_replay copy)
        in
        (* a commit line whose trailing newline was cut is still a
           complete marker, so the batch survives from [full - 1] on *)
        let expected = if cut >= full - 1 then 3 else 2 in
        check int (Printf.sprintf "rows after cut at byte %d" cut) expected rows
      done)

(** Truncation inside EARLIER batches: every complete batch before the cut
    replays; everything at or after the torn batch is gone. *)
let test_cuts_across_all_batches () =
  with_tmp (fun path ->
      let boundaries = write_batches path 3 in
      let full = List.nth boundaries 3 in
      (* sample a spread of offsets over the whole file *)
      let offsets = List.init 16 (fun i -> (i + 1) * full / 16) in
      List.iter
        (fun cut ->
          let copy = truncate_copy path cut in
          let rows =
            Fun.protect
              ~finally:(fun () -> try Sys.remove copy with Sys_error _ -> ())
              (fun () -> rows_after_replay copy)
          in
          (* a batch survives once its commit marker's characters are all
             present — the marker's trailing newline is dispensable *)
          let expected =
            match List.filter (fun b -> b - 1 <= cut) boundaries with
            | [] -> -1 (* schema batch torn: no table at all *)
            | survivors -> List.length survivors - 1
          in
          check int
            (Printf.sprintf "rows after cut at byte %d/%d" cut full)
            expected rows)
        offsets)

(** A cut exactly at a batch boundary loses nothing that was committed. *)
let test_cut_at_boundaries () =
  with_tmp (fun path ->
      let boundaries = write_batches path 3 in
      List.iteri
        (fun i b ->
          let copy = truncate_copy path b in
          let rows =
            Fun.protect
              ~finally:(fun () -> try Sys.remove copy with Sys_error _ -> ())
              (fun () -> rows_after_replay copy)
          in
          check int (Printf.sprintf "boundary %d" i) i rows)
        boundaries)

(* ---------------- batch-scope writes ---------------- *)

(** Byte offset just past each commit-marker line (including its newline),
    in order — the durable batch boundaries of any log, however the bytes
    were buffered when written. *)
let commit_line_ends path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let ends = ref [] in
  let pos = ref 0 in
  let buf = Buffer.create 64 in
  while !pos < len do
    Buffer.clear buf;
    let fin = ref false in
    while (not !fin) && !pos < len do
      let c = input_char ic in
      incr pos;
      if c = '\n' then fin := true else Buffer.add_char buf c
    done;
    let line = Buffer.contents buf in
    if String.length line >= 2 && String.sub line 0 2 = "C|" then
      ends := !pos :: !ends
  done;
  close_in ic;
  List.rev !ends

(** A batch scope writes several commits before ONE flush, so a torn tail
    can cut across multiple records and commit markers at once.  Truncate
    a scope-written log at EVERY byte: recovery must always yield
    exactly the batches whose commit markers survived (prefix-of-batches),
    never an error. *)
let test_every_offset_of_group_batch () =
  with_tmp (fun path ->
      let log = Wal.open_log ~durability:Wal.Never path in
      Wal.append_commit log ~txn_id:0 [ Wal.Create_table (schema ()) ];
      (* one deferred scope: 3 commits land in a single buffered write *)
      Wal.with_batch log (fun () ->
          for i = 1 to 3 do
            Wal.append_commit log ~txn_id:i
              [
                Wal.Insert
                  ( "Accounts",
                    [|
                      Value.Int i;
                      Value.Str (Printf.sprintf "owner%d" i);
                      Value.Int (i * 100);
                    |] );
              ]
          done);
      Wal.close log;
      let boundaries = commit_line_ends path in
      check int "4 commit markers" 4 (List.length boundaries);
      let full = List.nth boundaries 3 in
      for cut = 0 to full do
        let copy = truncate_copy path cut in
        let rows =
          Fun.protect
            ~finally:(fun () -> try Sys.remove copy with Sys_error _ -> ())
            (fun () -> rows_after_replay copy)
        in
        let expected =
          match List.filter (fun b -> b - 1 <= cut) boundaries with
          | [] -> -1
          | survivors -> List.length survivors - 1
        in
        check int
          (Printf.sprintf "rows after group cut at byte %d/%d" cut full)
          expected rows
      done)

(** The append-after-torn-tail hazard: reopening a torn log in append mode
    would write the next batch directly after the stale fragment, merging
    pre-crash bytes into a committed batch.  {!Database.recover} must
    physically truncate the tail so post-recovery commits replay cleanly. *)
let test_recover_truncates_torn_tail () =
  with_tmp (fun path ->
      ignore (write_batches path 2);
      (* simulate a crash mid-append: a record fragment, no newline *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "I|Accounts|i99";
      close_out oc;
      let db = Database.recover path in
      check int "torn tail ignored on recovery" 2
        (Table.row_count (Database.find_table db "Accounts"));
      (* a fresh commit after recovery must not absorb the stale fragment *)
      let table = Database.find_table db "Accounts" in
      Database.with_txn db (fun txn ->
          ignore
            (Txn.insert txn table [| Value.Int 3; Value.Str "owner3"; Value.Int 300 |]));
      Database.close db;
      let cat = Wal.replay path in
      check int "post-recovery commit replays cleanly" 3
        (Table.row_count (Catalog.find cat "Accounts")))

(** Corruption that is NOT a torn tail — an undecodable line with complete
    batches after it — must still fail loudly, not be skipped. *)
let test_mid_log_corruption_still_fails () =
  with_tmp (fun path ->
      ignore (write_batches path 2);
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc "garbage-not-a-record\n";
      output_string oc data;
      close_out oc;
      match Wal.replay path with
      | _ -> Alcotest.fail "mid-log corruption must not replay silently"
      | exception Errors.Db_error (Errors.Wal_error _) -> ())

let suite =
  [
    Alcotest.test_case "every offset of last batch" `Quick
      test_every_offset_of_last_batch;
    Alcotest.test_case "cuts across all batches" `Quick
      test_cuts_across_all_batches;
    Alcotest.test_case "cuts at batch boundaries" `Quick test_cut_at_boundaries;
    Alcotest.test_case "every offset of a group-commit batch" `Quick
      test_every_offset_of_group_batch;
    Alcotest.test_case "recover truncates the torn tail" `Quick
      test_recover_truncates_torn_tail;
    Alcotest.test_case "mid-log corruption still fails" `Quick
      test_mid_log_corruption_still_fails;
  ]
