(** Redo-only write-ahead log.

    The transaction manager appends one batch of redo records per committed
    transaction, terminated by a commit marker, and flushes.  Recovery
    replays every *complete* batch into a fresh catalog; a trailing batch
    without its commit marker (torn write) is discarded.

    The format is line-oriented and text-based:
    {v
      S|<schema>          create table
      X|<name>            drop table
      I|<table>|<tuple>   insert
      D|<table>|<tuple>   delete (by full tuple)
      U|<table>|<old>|<new>
      C|<txn id>          commit marker
      L|<lsn>             base marker: the log starts after this LSN
    v}
    Field values are percent-escaped so [|] and newlines never appear raw.

    Every commit-terminated batch carries a monotone {e log sequence
    number} (LSN): batch [n] of the database's history has LSN [n],
    counted from 1.  A log whose pre-checkpoint prefix was truncated
    starts with an [L|<lsn>] base marker recording how many batches were
    cut; replay of such a log is only possible on top of a checkpoint at
    or past that LSN. *)

type record =
  | Create_table of Schema.t
  | Drop_table of string
  | Insert of string * Tuple.t
  | Delete of string * Tuple.t
  | Update of string * Tuple.t * Tuple.t
  | Commit of int
  | Lsn_base of int

(* ---------------- escaping ---------------- *)

let is_special = function
  | '%' | '|' | '\n' | '\r' | ';' | ',' -> true
  | _ -> false

(* the two hex digits a special byte escapes to *)
let escape_code = function
  | '%' -> "25"
  | '|' -> "7C"
  | '\n' -> "0A"
  | '\r' -> "0D"
  | ';' -> "3B"
  | _ -> "2C"

(* Escaping a special byte [depth] times over gives ['%'], then ["25"]
   for every round after the first (each round escapes the previous
   round's ['%']), then the byte's own code; other bytes stay literal at
   every depth.  So a field nested in a field nested in a message is
   written once, straight into the message's buffer. *)
let add_escaped_char buf ~depth c =
  if depth = 0 || not (is_special c) then Buffer.add_char buf c
  else begin
    Buffer.add_char buf '%';
    for _ = 2 to depth do
      Buffer.add_string buf "25"
    done;
    Buffer.add_string buf (escape_code c)
  end

let add_escaped buf ~depth s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else if not (is_special s.[i]) then go start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      add_escaped_char buf ~depth s.[i];
      go (i + 1) (i + 1)
    end
  in
  if depth = 0 then Buffer.add_string buf s else go 0 0

let to_string_with f x =
  let buf = Buffer.create 64 in
  f buf x;
  Buffer.contents buf

let escape s = to_string_with (add_escaped ~depth:1) s

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then ()
    else if s.[i] = '%' && i + 2 < n && hex_digit s.[i + 1] >= 0
            && hex_digit s.[i + 2] >= 0 then begin
      Buffer.add_char buf (Char.chr ((hex_digit s.[i + 1] * 16) + hex_digit s.[i + 2]));
      loop (i + 3)
    end
    else begin
      (* not a well-formed escape (truncated, or non-hex as in "%zz"):
         keep the bytes literally so decoding is total on any input —
         both WAL recovery and the wire decoder feed this untrusted data *)
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

(* ---------------- value / tuple / schema codecs ---------------- *)

(* Decoders run on torn log tails and on wire payloads from peers, so a
   malformed field must surface as [Wal_error] — never as the stdlib's
   [Failure]/[Invalid_argument] from int/float/bool_of_string. *)
let codec_guard what f s =
  try f s with
  | Failure _ | Invalid_argument _ ->
    Errors.fail (Errors.Wal_error (Printf.sprintf "unparsable %s: %s" what s))

let add_value buf ~depth = function
  | Value.Null -> Buffer.add_char buf 'n'
  | Value.Int i ->
    Buffer.add_char buf 'i';
    Buffer.add_string buf (string_of_int i)
  | Value.Float f ->
    Buffer.add_char buf 'f';
    Buffer.add_string buf (Value.float_to_exact f)
  | Value.Bool b -> Buffer.add_string buf (if b then "btrue" else "bfalse")
  | Value.Str s ->
    Buffer.add_char buf 's';
    add_escaped buf ~depth:(depth + 1) s

let add_tuple buf ~depth (t : Tuple.t) =
  Array.iteri
    (fun i v ->
      if i > 0 then add_escaped_char buf ~depth ',';
      add_value buf ~depth v)
    t

let encode_value v = to_string_with (add_value ~depth:0) v

let decode_value_exn s =
  if s = "" then Errors.fail (Errors.Wal_error "empty value field");
  let body = String.sub s 1 (String.length s - 1) in
  match s.[0] with
  | 'n' -> Value.Null
  | 'i' -> Value.Int (int_of_string body)
  | 'f' -> Value.Float (float_of_string body)
  | 'b' -> Value.Bool (bool_of_string body)
  | 's' -> Value.Str (unescape body)
  | c -> Errors.fail (Errors.Wal_error (Printf.sprintf "bad value tag %c" c))

let decode_value s = codec_guard "value" decode_value_exn s

let encode_tuple t = to_string_with (add_tuple ~depth:0) t

let decode_tuple s : Tuple.t =
  if s = "" then [||]
  else Tuple.of_list (List.map decode_value (String.split_on_char ',' s))

let add_schema buf (s : Schema.t) =
  add_escaped buf ~depth:1 s.Schema.name;
  Buffer.add_char buf ';';
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int k))
    s.Schema.primary_key;
  Buffer.add_char buf ';';
  Array.iteri
    (fun i (c : Schema.column) ->
      if i > 0 then Buffer.add_char buf ';';
      add_escaped buf ~depth:1 c.Schema.col_name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Ctype.to_string c.Schema.col_type);
      Buffer.add_string buf (if c.Schema.nullable then ":true" else ":false"))
    s.Schema.columns

let encode_schema s = to_string_with add_schema s

let decode_schema_exn s =
  match String.split_on_char ';' s with
  | name :: pk :: cols ->
    let primary_key =
      if pk = "" then []
      else List.map int_of_string (String.split_on_char ',' pk)
    in
    let column c =
      match String.split_on_char ':' c with
      | [ n; ty; nul ] ->
        let col_type =
          match Ctype.of_string ty with
          | Some t -> t
          | None -> Errors.fail (Errors.Wal_error ("bad column type " ^ ty))
        in
        Schema.column ~nullable:(bool_of_string nul) (unescape n) col_type
      | _ -> Errors.fail (Errors.Wal_error ("bad column spec " ^ c))
    in
    Schema.make ~primary_key (unescape name) (List.map column cols)
  | _ -> Errors.fail (Errors.Wal_error ("bad schema record " ^ s))

let decode_schema s = codec_guard "schema" decode_schema_exn s

(* ---------------- record codec ---------------- *)

let add_record buf r =
  let row tag t tup =
    Buffer.add_string buf tag;
    add_escaped buf ~depth:1 t;
    Buffer.add_char buf '|';
    add_tuple buf ~depth:0 tup
  in
  match r with
  | Create_table s ->
    Buffer.add_string buf "S|";
    add_schema buf s
  | Drop_table n ->
    Buffer.add_string buf "X|";
    add_escaped buf ~depth:1 n
  | Insert (t, tup) -> row "I|" t tup
  | Delete (t, tup) -> row "D|" t tup
  | Update (t, o, n) ->
    row "U|" t o;
    Buffer.add_char buf '|';
    add_tuple buf ~depth:0 n
  | Commit id ->
    Buffer.add_string buf "C|";
    Buffer.add_string buf (string_of_int id)
  | Lsn_base lsn ->
    Buffer.add_string buf "L|";
    Buffer.add_string buf (string_of_int lsn)

let encode_record r = to_string_with add_record r

let decode_record_exn line =
  match String.split_on_char '|' line with
  | [ "S"; s ] -> Create_table (decode_schema s)
  | [ "X"; n ] -> Drop_table (unescape n)
  | [ "I"; t; row ] -> Insert (unescape t, decode_tuple row)
  | [ "D"; t; row ] -> Delete (unescape t, decode_tuple row)
  | [ "U"; t; o; n ] -> Update (unescape t, decode_tuple o, decode_tuple n)
  | [ "C"; id ] -> Commit (int_of_string id)
  | [ "L"; lsn ] -> Lsn_base (int_of_string lsn)
  | _ -> Errors.fail (Errors.Wal_error ("unparsable record: " ^ line))

let decode_record line = codec_guard "record" decode_record_exn line

(* ---------------- durability ---------------- *)

type durability = Never | Flush_per_commit | Fsync_per_commit

let durability_to_string = function
  | Never -> "never"
  | Flush_per_commit -> "flush"
  | Fsync_per_commit -> "fsync"

let durability_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "never" -> Some Never
  | "flush" -> Some Flush_per_commit
  | "fsync" -> Some Fsync_per_commit
  | _ -> None

type io_stats = {
  commits_logged : int;
  flushes : int;
  fsyncs : int;
  batched_scopes : int;
  batched_commits : int;
}

(* ---------------- log handle ---------------- *)

type t = {
  path : string;
  mutable oc : out_channel option;
  mu : Mutex.t;  (* guards every field below *)
  mutable durability : durability;
  (* io counters *)
  mutable commits_logged : int;
  mutable flushes : int;
  mutable fsyncs : int;
  mutable batched_scopes : int;
  mutable batched_commits : int;
  mutable poisoned : exn option;
      (* sticky: an append or sync failed part-way, so a torn line may sit
         at the tail.  Appending after it would bury the tear mid-file,
         where recovery's torn-tail truncation cannot see it, and acking a
         commit after a failed sync would pretend durability — so every
         later append re-raises this error instead *)
  (* deferred-sync batch scope, see [with_batch] *)
  mutable deferring : bool;
  mutable deferred_dirty : bool;
  (* log sequence numbers *)
  mutable base_lsn : int;  (** batches truncated away before this log's start *)
  mutable last_lsn : int;  (** LSN of the last commit-terminated batch *)
  mutable on_append : (lsn:int -> record list -> unit) option;
      (** shipping hook: called under [mu] with each complete batch
          (records + commit marker) as it reaches the log, in strict LSN
          order.  Must not call back into the log. *)
}

let channel t =
  match t.oc with
  | Some oc -> oc
  | None -> Errors.fail (Errors.Wal_error ("log closed: " ^ t.path))

(* flush and/or fsync under [mu]; fsync failures become Wal_error *)
let do_flush t =
  Fault.point "wal.flush";
  flush (channel t);
  t.flushes <- t.flushes + 1

let do_fsync t =
  Fault.point "wal.fsync";
  let oc = channel t in
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error (e, _, _) ->
     Errors.fail
       (Errors.Wal_error
          (Printf.sprintf "fsync %s: %s" t.path (Unix.error_message e))));
  t.fsyncs <- t.fsyncs + 1

(* the barrier the mode promises at commit (or at batch-scope end) *)
let sync_per_mode t =
  match t.durability with
  | Never -> ()
  | Flush_per_commit -> do_flush t
  | Fsync_per_commit ->
    do_flush t;
    do_fsync t

(* Scan an existing log for its LSN position without building a catalog:
   base from a leading [Lsn_base] line (written by prefix truncation), plus
   one LSN per decodable commit marker.  A torn tail is cut from the end of
   a single buffered batch write, so its commit marker (the last line) is
   never complete — torn tails cannot inflate the count. *)
let scan_lsns path =
  if not (Sys.file_exists path) then (0, 0)
  else begin
    let ic = open_in path in
    let base = ref 0 and commits = ref 0 and first = ref true in
    (try
       while true do
         let line = input_line ic in
         if line <> "" then begin
           (match decode_record line with
           | Lsn_base n -> if !first then base := n
           | Commit _ -> incr commits
           | _ -> ()
           | exception _ -> ());
           first := false
         end
       done
     with End_of_file -> close_in ic);
    (!base, !base + !commits)
  end

let open_log ?(durability = Flush_per_commit) path =
  let base_lsn, last_lsn = scan_lsns path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  {
    path;
    oc = Some oc;
    mu = Mutex.create ();
    durability;
    commits_logged = 0;
    flushes = 0;
    fsyncs = 0;
    batched_scopes = 0;
    batched_commits = 0;
    poisoned = None;
    deferring = false;
    deferred_dirty = false;
    base_lsn;
    last_lsn;
    on_append = None;
  }

let durability t = Mutex.protect t.mu (fun () -> t.durability)
let set_durability t d = Mutex.protect t.mu (fun () -> t.durability <- d)

let io_stats t =
  Mutex.protect t.mu (fun () ->
      {
        commits_logged = t.commits_logged;
        flushes = t.flushes;
        fsyncs = t.fsyncs;
        batched_scopes = t.batched_scopes;
        batched_commits = t.batched_commits;
      })

(** [reset_io_stats t] zeroes the io counters.  Recovery replay and
    re-creation of answer relations go through the same log, so a freshly
    recovered database would otherwise start life with their flushes
    already on the meter — bench and admin deltas must start from zero. *)
let reset_io_stats t =
  Mutex.protect t.mu (fun () ->
      t.commits_logged <- 0;
      t.flushes <- 0;
      t.fsyncs <- 0;
      t.batched_scopes <- 0;
      t.batched_commits <- 0)

let path t = t.path

let last_lsn t =
  Mutex.lock t.mu;
  let n = t.last_lsn in
  Mutex.unlock t.mu;
  n

let base_lsn t =
  Mutex.lock t.mu;
  let n = t.base_lsn in
  Mutex.unlock t.mu;
  n

let set_on_append t hook =
  Mutex.lock t.mu;
  t.on_append <- hook;
  Mutex.unlock t.mu

let write_records t records =
  (* [mu] held by caller *)
  let oc = channel t in
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      add_record buf r;
      Buffer.add_char buf '\n')
    records;
  let payload = Buffer.contents buf in
  match Fault.cut "wal.append" ~len:(String.length payload) with
  | None -> output_string oc payload
  | Some n ->
    (* a write torn at byte [n]: the prefix reaches the file (flushed past
       the channel buffer so the torn bytes really land), the rest never
       does.  The caller poisons the handle exactly as a real torn write
       poisons a log — recover by reopening the path after
       [truncate_torn_tail]. *)
    output_string oc (String.sub payload 0 n);
    (try flush oc with Sys_error _ -> ());
    raise
      (Fault.Injected
         ( "wal.append",
           Printf.sprintf "write torn at byte %d/%d" n (String.length payload)
         ))

(** [sync t] forces everything appended so far onto disk: one flush + one
    fsync.  Raises [Wal_error] on a closed log or an fsync failure. *)
let sync t =
  Mutex.protect t.mu (fun () ->
      do_flush t;
      do_fsync t)

(** [append_commit t ~txn_id records] is the log's one way in: it refuses
    a poisoned log, writes the records and a commit marker in one buffered
    write, assigns the batch the next LSN, hands it to the shipping hook,
    then syncs as the mode promises — or, inside a {!with_batch} scope,
    leaves that to the scope end.  Any failure past the refusal poisons
    the log. *)
let append_commit t ~txn_id records =
  Mutex.protect t.mu (fun () ->
      Fault.point "wal.commit";
      Option.iter raise t.poisoned;
      let batch = records @ [ Commit txn_id ] in
      match
        write_records t batch;
        t.last_lsn <- t.last_lsn + 1;
        t.commits_logged <- t.commits_logged + 1;
        Option.iter (fun hook -> hook ~lsn:t.last_lsn batch) t.on_append;
        if t.deferring then begin
          t.deferred_dirty <- true;
          t.batched_commits <- t.batched_commits + 1
        end
        else sync_per_mode t
      with
      | () -> ()
      | exception e ->
        t.poisoned <- Some e;
        raise e)

(** [with_batch t f] defers every sync inside [f] and performs one
    mode-appropriate sync at scope end (even if [f] raises): commits made
    within the scope share a single flush — and a single fsync in the
    fsync mode.  A failed scope-end sync poisons the log like a failed
    per-commit sync, and its own exception is raised — unless [f] raised,
    whose exception then wins.  Scopes do not nest. *)
let with_batch t f =
  Mutex.protect t.mu (fun () ->
      if t.deferring then
        Errors.fail (Errors.Wal_error "nested WAL batch scope");
      Option.iter raise t.poisoned;
      t.deferring <- true;
      t.deferred_dirty <- false;
      t.batched_scopes <- t.batched_scopes + 1);
  let result =
    match f () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let synced =
    Mutex.protect t.mu (fun () ->
        t.deferring <- false;
        let dirty = t.deferred_dirty in
        t.deferred_dirty <- false;
        match if dirty then sync_per_mode t with
        | () -> None
        | exception e ->
          t.poisoned <- Some e;
          Some e)
  in
  match result, synced with
  | Error (e, bt), _ -> Printexc.raise_with_backtrace e bt
  | Ok _, Some e -> raise e
  | Ok v, None -> v

(** [crash t] simulates the process dying with the log open: the fd is
    closed {i without} flushing, so bytes still buffered in the channel
    never reach the file — exactly what SIGKILL does to them.  The handle
    is unusable afterwards; recover by reopening the path. *)
let crash t =
  Mutex.protect t.mu (fun () ->
      Option.iter
        (fun oc ->
          (try Unix.close (Unix.descr_of_out_channel oc)
           with Unix.Unix_error _ -> ());
          t.oc <- None)
        t.oc)

let close t =
  Mutex.protect t.mu (fun () ->
      Option.iter
        (fun oc ->
          let fin =
            match
              flush oc;
              if t.durability = Fsync_per_commit then do_fsync t
            with
            | () -> None
            | exception e -> Some e
          in
          close_out_noerr oc;
          t.oc <- None;
          Option.iter raise fin)
        t.oc)

(* ---------------- recovery ---------------- *)

let read_records path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec read_lines acc =
      match input_line ic with
      | line -> read_lines (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    let lines = read_lines [] in
    (* Decode every line once; remember where the last decodable commit
       marker sits.  A batch scope writes several multi-record batches
       before one flush, so a torn tail can span several lines — any
       undecodable line strictly AFTER the last commit marker belongs to a
       batch that has no commit marker and would be discarded anyway.  An
       undecodable line at-or-before the last commit marker sits inside a
       batch that claims to be complete: real corruption, fail loudly. *)
    let decoded =
      List.map
        (fun line ->
          if line = "" then `Blank
          else
            match decode_record line with
            | r -> `Ok r
            | exception (Errors.Db_error _ | Failure _ | Invalid_argument _)
              ->
              (* a torn line can fail anywhere in decoding — framing, value
                 parsing, or schema validation of a truncated [T|] record *)
              `Bad line)
        lines
    in
    let last_commit = ref (-1) in
    List.iteri
      (fun i d -> match d with `Ok (Commit _) -> last_commit := i | _ -> ())
      decoded;
    decoded
    |> List.mapi (fun i d -> (i, d))
    |> List.filter_map (fun (i, d) ->
           match d with
           | `Blank -> None
           | `Ok r -> Some r
           | `Bad line ->
             if i > !last_commit then None
             else Errors.fail (Errors.Wal_error ("unparsable record: " ^ line)))
  end

(** [truncate_torn_tail path] chops the log back to the end of its last
    complete (commit-terminated) batch, returning [true] if bytes were
    removed.  {!read_records} already ignores a torn tail when replaying,
    but an append-mode reopen would otherwise write the next batch directly
    after the torn fragment, merging stale pre-crash bytes into a committed
    batch — so recovery must physically truncate before appending. *)
let truncate_torn_tail path =
  if not (Sys.file_exists path) then false
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let keep = ref 0 in
    (* byte offset just past the last commit-marker line *)
    let keep_missing_nl = ref false in
    (* that line was complete but had no trailing newline *)
    let pos = ref 0 in
    let buf = Buffer.create 256 in
    while !pos < len do
      Buffer.clear buf;
      let rec line () =
        if !pos >= len then false
        else begin
          let c = input_char ic in
          incr pos;
          if c = '\n' then true
          else begin
            Buffer.add_char buf c;
            line ()
          end
        end
      in
      let had_nl = line () in
      (match decode_record (Buffer.contents buf) with
      | Commit _ | Lsn_base _ ->
        (* a base marker is batch-like for truncation: a freshly
           prefix-truncated log is a lone [L|<lsn>] line, and chopping it
           off would silently reset the log's LSN origin *)
        keep := !pos;
        keep_missing_nl := not had_nl
      | _ -> ()
      | exception _ -> ())
    done;
    close_in ic;
    let truncated = !keep < len in
    if truncated then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.ftruncate fd !keep)
    end;
    (* if the surviving tail is a commit line cut exactly at its newline,
       re-add the newline so the next append starts on a fresh line *)
    if !keep > 0 && !keep_missing_nl then begin
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_char oc '\n';
      close_out oc
    end;
    truncated
  end

(* Locate the row a redo Update/Delete names.  With a primary key the
   victim is one index probe; a full scan (for keyless tables, or if the
   probe surfaces a row that does not match the logged image) would make
   replay quadratic in table size — and a replica re-applies every
   shipped update through this path, so the probe also keeps a read
   replica from stalling its readers behind O(n) applies. *)
let find_victim table row =
  let pk = (Table.schema table).Schema.primary_key in
  let by_scan () =
    Table.fold
      (fun acc row_id r -> if acc = None && Tuple.equal r row then Some row_id else acc)
      None table
  in
  if pk = [] then by_scan ()
  else
    match Table.lookup_pk table (Array.of_list (List.map (Array.get row) pk)) with
    | Some row_id when Tuple.equal (Table.get_exn table row_id) row -> Some row_id
    | Some _ | None -> by_scan ()

(** [apply_record cat r] applies one redo record to a live catalog.  Used
    by recovery replay and by a replica applying shipped batches. *)
let apply_record cat = function
  | Create_table s -> ignore (Catalog.create_table cat s)
  | Drop_table n -> Catalog.drop_table cat n
  | Insert (t, row) -> ignore (Table.insert (Catalog.find cat t) row)
  | Delete (t, row) ->
    let table = Catalog.find cat t in
    (match find_victim table row with
    | Some row_id -> ignore (Table.delete table row_id)
    | None ->
      Errors.fail
        (Errors.Wal_error
           (Printf.sprintf "replay: delete of absent row in %s" t)))
  | Update (t, old_row, new_row) ->
    let table = Catalog.find cat t in
    (match find_victim table old_row with
    | Some row_id -> ignore (Table.update table row_id new_row)
    | None ->
      Errors.fail
        (Errors.Wal_error
           (Printf.sprintf "replay: update of absent row in %s" t)))
  | Commit _ | Lsn_base _ -> ()

(** [apply_batches cat records] applies every complete (commit-terminated)
    batch to [cat]; trailing records without a commit marker are discarded.
    Returns [(batches, records)] applied. *)
let apply_batches cat records =
  let n_batches = ref 0 and n_records = ref 0 in
  let rec go pending = function
    | [] -> ()  (* trailing records without commit marker: discarded *)
    | Commit _ :: rest ->
      List.iter
        (fun r ->
          apply_record cat r;
          incr n_records)
        (List.rev pending);
      incr n_batches;
      go [] rest
    | Lsn_base _ :: rest -> go pending rest
    | r :: rest -> go (r :: pending) rest
  in
  go [] records;
  (!n_batches, !n_records)

let records_base = function Lsn_base n :: _ -> n | _ -> 0

(** [replay_into cat path ~after_lsn] applies to [cat] only the complete
    batches whose LSN exceeds [after_lsn] — the WAL suffix past a
    checkpoint.  Fails loudly when the log's prefix was truncated beyond
    [after_lsn]: the missing batches are unrecoverable without a newer
    snapshot.  Returns [(batches, records)] applied. *)
let replay_into cat path ~after_lsn =
  let records = read_records path in
  let base = records_base records in
  if after_lsn < base then
    Errors.fail
      (Errors.Wal_error
         (Printf.sprintf
            "%s starts at lsn %d (prefix truncated): cannot replay from lsn %d"
            path base after_lsn));
  (* drop the batches the snapshot already contains: batch i (1-based from
     the base marker) has LSN [base + i] *)
  let n_batches = ref 0 and n_records = ref 0 in
  let lsn = ref base in
  let rec go pending = function
    | [] -> ()
    | Commit _ :: rest ->
      incr lsn;
      if !lsn > after_lsn then begin
        List.iter
          (fun r ->
            apply_record cat r;
            incr n_records)
          (List.rev pending);
        incr n_batches
      end;
      go [] rest
    | Lsn_base _ :: rest -> go pending rest
    | r :: rest -> go (r :: pending) rest
  in
  go [] records;
  (!n_batches, !n_records)

(** [replay path] rebuilds a catalog from the log, applying only complete
    (commit-terminated) batches.  Fails loudly on a prefix-truncated log —
    its full history only exists on top of a checkpoint (see
    {!Checkpoint} and {!replay_into}). *)
let replay path =
  let cat = Catalog.create () in
  ignore (replay_into cat path ~after_lsn:0);
  cat

(** [truncate_prefix t ~upto_lsn] rewrites the live log without the
    batches at or below [upto_lsn], leaving an [L|<upto_lsn>] base marker
    followed by the surviving suffix (including any trailing records not
    yet commit-terminated).  Called after a checkpoint at [upto_lsn]:
    recovery then needs the snapshot plus only this suffix — but full
    replay of a truncated log is impossible, so keep a valid snapshot. *)
let truncate_prefix t ~upto_lsn =
  Mutex.lock t.mu;
  match
    if t.deferring then
      Errors.fail (Errors.Wal_error "truncate_prefix inside a WAL batch scope");
    if upto_lsn < t.base_lsn || upto_lsn > t.last_lsn then
      Errors.fail
        (Errors.Wal_error
           (Printf.sprintf "truncate_prefix: lsn %d outside [%d, %d]" upto_lsn
              t.base_lsn t.last_lsn));
    do_flush t;
    let records = read_records t.path in
    let base = records_base records in
    let kept =
      let lsn = ref base in
      let out = ref [] in
      let emit rs = List.iter (fun r -> out := r :: !out) rs in
      let rec go pending = function
        | [] -> emit (List.rev pending)
        | (Commit _ as c) :: rest ->
          incr lsn;
          if !lsn > upto_lsn then emit (List.rev (c :: pending));
          go [] rest
        | Lsn_base _ :: rest -> go pending rest
        | r :: rest -> go (r :: pending) rest
      in
      go [] records;
      List.rev !out
    in
    close_out (channel t);
    t.oc <- None;
    let tmp = t.path ^ ".trunc" in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp in
    List.iter
      (fun r ->
        output_string oc (encode_record r);
        output_char oc '\n')
      (Lsn_base upto_lsn :: kept);
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp t.path;
    t.oc <- Some (open_out_gen [ Open_append ] 0o644 t.path);
    t.base_lsn <- upto_lsn
  with
  | () -> Mutex.unlock t.mu
  | exception e ->
    Mutex.unlock t.mu;
    raise e

(** Convert a transaction's redo ops (from {!Txn.set_on_commit}) into WAL
    records. *)
let records_of_ops ops =
  List.map
    (fun op ->
      match op with
      | Txn.Ins (table, _, row) -> Insert (Table.name table, row)
      | Txn.Del (table, row) -> Delete (Table.name table, row)
      | Txn.Upd (table, _, old_row, new_row) ->
        Update (Table.name table, old_row, new_row))
    ops

(** [attach wal mgr] wires a transaction manager's commit hook to the log:
    each commit is one {!append_commit}, made under the manager mutex. *)
let attach t (mgr : Txn.manager) =
  let counter = ref 0 in
  Txn.set_on_commit mgr
    (Some
       (fun ops ->
         incr counter;
         append_commit t ~txn_id:!counter (records_of_ops ops)))
