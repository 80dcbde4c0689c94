(* Property-based tests of the coordination semantics on randomly generated
   workloads.  These check the *invariants* of a match rather than specific
   scenarios:

   I1 (mutual consistency): when a pair coordinates, both members' answer
      tuples carry the same coordinated value, and that value satisfies
      both database conditions.
   I2 (completeness): a pair whose two sides have a common satisfying
      database choice is always fulfilled once both sides have arrived.
   I3 (soundness): a pair with no common choice is never fulfilled.
   I4 (justification / minimality): every tuple in an answer relation is
      the head contribution of some fulfilled query — no spurious tuples.
   I5 (no lost queries): fulfilled + pending = submitted (no query ever
      disappears). *)

open Relational
open Core

let v_int i = Value.Int i
let v_str s = Value.Str s

(* A workload: flights over a few destinations, and pairs of queries where
   each side independently picks a destination (possibly different — those
   pairs must never match). *)

type pair_spec = { pid : int; dest_a : string; dest_b : string }

let dests = [| "Paris"; "Rome"; "Oslo"; "NoFlight" |]

let workload_gen =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (map2
         (fun a b -> a, b)
         (int_bound (Array.length dests - 1))
         (int_bound (Array.length dests - 1))))

let make_db () =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  (* several flights per real destination; none to "NoFlight" *)
  List.iteri
    (fun i d ->
      if d <> "NoFlight" then begin
        ignore (Table.insert flights [| v_int (100 + (2 * i)); v_str d |]);
        ignore (Table.insert flights [| v_int (101 + (2 * i)); v_str d |])
      end)
    (Array.to_list dests);
  let coord = Coordinator.create db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord

let side_query cat ~me ~partner ~dest =
  Translate.of_sql cat ~owner:me
    (Printf.sprintf
       "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights \
        WHERE dest='%s') AND ('%s', fno) IN ANSWER R CHOOSE 1"
       me dest partner)

let run_workload specs =
  let db, coord = make_db () in
  let cat = db.Database.catalog in
  let pairs =
    List.mapi
      (fun i (a, b) -> { pid = i; dest_a = dests.(a); dest_b = dests.(b) })
      specs
  in
  (* first all A sides, then all B sides *)
  List.iter
    (fun p ->
      let me = Printf.sprintf "A%d" p.pid and partner = Printf.sprintf "B%d" p.pid in
      ignore (Coordinator.submit coord (side_query cat ~me ~partner ~dest:p.dest_a)))
    pairs;
  List.iter
    (fun p ->
      let me = Printf.sprintf "B%d" p.pid and partner = Printf.sprintf "A%d" p.pid in
      ignore (Coordinator.submit coord (side_query cat ~me ~partner ~dest:p.dest_b)))
    pairs;
  db, coord, pairs

let flight_exists dest = dest <> "NoFlight"
let pair_can_match p = p.dest_a = p.dest_b && flight_exists p.dest_a

let answer_rows db =
  Table.rows (Database.find_table db "R")
  |> List.map (fun r -> Value.as_string r.(0), Value.as_int r.(1))

let prop_pair_semantics =
  QCheck.Test.make ~name:"pair workload: I1-I5 invariants" ~count:100
    (QCheck.make workload_gen) (fun specs ->
      let db, coord, pairs = run_workload specs in
      let answers = answer_rows db in
      let fulfilled name = List.mem_assoc name answers in
      let stats = Coordinator.stats coord in
      List.for_all
        (fun p ->
          let a = Printf.sprintf "A%d" p.pid and b = Printf.sprintf "B%d" p.pid in
          if pair_can_match p then begin
            (* I2 + I1 *)
            fulfilled a && fulfilled b
            && List.assoc a answers = List.assoc b answers
          end
          else (* I3 *)
            (not (fulfilled a)) && not (fulfilled b))
        pairs
      (* I4: every tuple belongs to a submitted query's owner *)
      && List.for_all
           (fun (name, _) ->
             String.length name >= 2 && (name.[0] = 'A' || name.[0] = 'B'))
           answers
      (* I5 *)
      && stats.Stats.answered + Pending.size (Coordinator.pending coord)
         = stats.Stats.submitted)

(* Arrival order must not change the outcome set (determinism of the
   fulfilled/pending partition, not of the chosen flight). *)
let prop_order_independence =
  QCheck.Test.make ~name:"outcome independent of arrival order" ~count:60
    (QCheck.make QCheck.Gen.(pair workload_gen (int_bound 1000)))
    (fun (specs, seed) ->
      let outcome order_seed =
        let db, coord = make_db () in
        let cat = db.Database.catalog in
        let submissions =
          List.concat
            (List.mapi
               (fun i (a, b) ->
                 [
                   (Printf.sprintf "A%d" i, Printf.sprintf "B%d" i, dests.(a));
                   (Printf.sprintf "B%d" i, Printf.sprintf "A%d" i, dests.(b));
                 ])
               specs)
        in
        let rng = Random.State.make [| order_seed |] in
        let shuffled =
          submissions
          |> List.map (fun s -> Random.State.bits rng, s)
          |> List.sort compare |> List.map snd
        in
        List.iter
          (fun (me, partner, dest) ->
            ignore (Coordinator.submit coord (side_query cat ~me ~partner ~dest)))
          shuffled;
        answer_rows db |> List.map fst |> List.sort compare
      in
      outcome 1 = outcome seed)

(* Group cliques: every member of a random-size clique gets the same value;
   a clique over a flightless destination never matches. *)
let prop_group_cliques =
  QCheck.Test.make ~name:"clique groups coordinate consistently" ~count:60
    QCheck.(pair (int_range 2 6) (int_range 0 3))
    (fun (size, dest_idx) ->
      let dest = dests.(dest_idx) in
      let db, coord = make_db () in
      let cat = db.Database.catalog in
      let members = List.init size (fun i -> Printf.sprintf "m%d" i) in
      let queries =
        List.map
          (fun me ->
            let constraints =
              members
              |> List.filter (fun f -> f <> me)
              |> List.map (fun f -> Printf.sprintf "('%s', fno) IN ANSWER R" f)
            in
            Translate.of_sql cat ~owner:me
              (Printf.sprintf
                 "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno \
                  FROM Flights WHERE dest='%s') AND %s CHOOSE 1"
                 me dest
                 (String.concat " AND " constraints)))
          members
      in
      List.iter (fun q -> ignore (Coordinator.submit coord q)) queries;
      let answers = answer_rows db in
      if flight_exists dest then
        List.length answers = size
        && List.length (List.sort_uniq compare (List.map snd answers)) = 1
      else answers = [] && Pending.size (Coordinator.pending coord) = size)

(* I6 (incremental equivalence): targeted retries are a pure optimization
   — across randomized interleavings of submissions, direct table
   mutations (insert AND delete, both bypassing the transaction manager)
   and pokes, the [Tables] and [Tuples] retry policies produce the same
   outcomes, notifications, answer tuples and pending sets as the
   retry-all reference [All]. *)

type action =
  | Submit of int * bool * int  (* pair id, A/B side, dest index *)
  | Grow of int  (* insert a fresh flight to dests.(i) *)
  | Shrink of int  (* delete one flight to dests.(i), if any *)
  | Poke

let action_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           ( 6,
             map3
               (fun p side d -> Submit (p, side, d))
               (int_bound 5) bool
               (int_bound (Array.length dests - 1)) );
           2, map (fun d -> Grow d) (int_bound (Array.length dests - 1));
           2, map (fun d -> Shrink d) (int_bound (Array.length dests - 1));
           2, return Poke;
         ]))

let notification_digest (n : Events.notification) =
  Printf.sprintf "%d:%s:%s" n.Events.query_id n.Events.owner
    (String.concat ","
       (List.map
          (fun (rel, row) -> rel ^ Fmt.str "%a" Tuple.pp row)
          n.Events.answers))

let rec outcome_digest = function
  | Coordinator.Rejected m -> "rejected:" ^ m
  | Coordinator.Answered n -> "answered:" ^ notification_digest n
  | Coordinator.Registered id -> Printf.sprintf "registered:%d" id
  | Coordinator.Multi os ->
    "multi:" ^ String.concat ";" (List.map outcome_digest os)

(* Replay [actions] under [retry]; the digest trace captures everything
   observable (per-action result, final answers, final pending set).
   [batch_pokes] routes every Poke through {!Coordinator.poke_batch}
   instead of {!Coordinator.poke} — the two must be indistinguishable. *)
let run_actions ?(batch_pokes = false) ~retry actions =
  let config = { Coordinator.default_config with Coordinator.retry } in
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iteri
    (fun i d ->
      if d <> "NoFlight" then
        ignore (Table.insert flights [| v_int (100 + i); v_str d |]))
    (Array.to_list dests);
  let coord = Coordinator.create ~config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let cat = db.Database.catalog in
  let next_fno = ref 1000 in
  let trace =
    List.map
      (fun action ->
        match action with
        | Submit (p, side_a, d) ->
          let me = Printf.sprintf "%s%d" (if side_a then "A" else "B") p in
          let partner = Printf.sprintf "%s%d" (if side_a then "B" else "A") p in
          outcome_digest
            (Coordinator.submit coord
               (side_query cat ~me ~partner ~dest:dests.(d)))
        | Grow d ->
          (* direct insert: bypasses the txn manager, so only the poke-time
             version diff can catch it *)
          incr next_fno;
          ignore (Table.insert flights [| v_int !next_fno; v_str dests.(d) |]);
          "grow"
        | Shrink d ->
          let victim =
            Table.fold
              (fun acc row_id row ->
                match acc with
                | Some _ -> acc
                | None ->
                  if Value.as_string row.(1) = dests.(d) then Some row_id
                  else None)
              None flights
          in
          (match victim with
          | Some row_id -> ignore (Table.delete flights row_id)
          | None -> ());
          "shrink"
        | Poke ->
          (if batch_pokes then Coordinator.poke_batch ~statements:3 coord
           else Coordinator.poke coord)
          |> List.map notification_digest
          |> List.sort compare |> String.concat "|")
      actions
  in
  let final =
    [
      String.concat "|"
        (List.sort compare
           (List.map
              (fun (n, f) -> Printf.sprintf "%s=%d" n f)
              (answer_rows db)));
      Coordinator.pending coord |> Pending.to_list
      |> List.map (fun (q : Equery.t) -> string_of_int q.Equery.id)
      |> String.concat ",";
    ]
  in
  trace @ final

let prop_incremental_equivalence =
  QCheck.Test.make
    ~name:"Tables/Tuples equal retry-all (I6)" ~count:80
    (QCheck.make action_gen) (fun actions ->
      let reference = run_actions ~retry:All actions in
      List.for_all
        (fun retry -> run_actions ~retry actions = reference)
        [ Coordinator.Tables; Tuples ])

(* I7 (batched coordination equivalence): the server's write batching
   replaces one poke per statement with one {!Coordinator.poke_batch} per
   batch.  Two layers to check:

   I7a — poke_batch IS poke: routing every poke of an I6 workload through
   poke_batch leaves the full observable trace bit-identical, under every
   retry policy.

   I7b — for monotone (insert-only) workloads, poking once per batch of
   statements reaches the same coordination outcome as poking after every
   statement: the same queries get fulfilled, the same queries stay
   pending.  (Only the grouping of notifications into pokes differs — the
   amortisation the server exploits.) *)

let prop_poke_batch_is_poke =
  QCheck.Test.make ~name:"poke_batch trace-equivalent to poke (I7a)" ~count:60
    (QCheck.make action_gen) (fun actions ->
      List.for_all
        (fun retry ->
          run_actions ~batch_pokes:false ~retry actions
          = run_actions ~batch_pokes:true ~retry actions)
        [ Coordinator.All; Tables; Tuples ])

(* Insert-only workload: submissions and table growth, no deletes — the
   wire write path the BATCH benchmark exercises. *)
let monotone_action_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           ( 3,
             map3
               (fun p side d -> Submit (p, side, d))
               (int_bound 5) bool
               (int_bound (Array.length dests - 1)) );
           2, map (fun d -> Grow d) (int_bound (Array.length dests - 1));
         ]))

(* Replay with one poke_batch per [chunk] actions (chunk = 1 degenerates to
   per-statement poking via plain poke).  Returns everything observable at
   the end plus WHO got notified along the way (values aside — CHOOSE may
   legitimately pick a different flight when later inserts of the same
   batch are already visible at poke time). *)
let run_chunked ~chunk actions =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iteri
    (fun i d ->
      if d <> "NoFlight" then
        ignore (Table.insert flights [| v_int (100 + i); v_str d |]))
    (Array.to_list dests);
  let coord = Coordinator.create db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let cat = db.Database.catalog in
  let next_fno = ref 1000 in
  let notified = ref [] in
  let note (n : Events.notification) =
    notified := Printf.sprintf "%d:%s" n.Events.query_id n.Events.owner :: !notified
  in
  (* Listen rather than collect return values: a submit that matches
     immediately can also fulfil OTHER groups via the auto-retry cascade,
     and those notifications reach listeners but not the submitter's
     outcome.  Which side of a pair triggers a fulfilment depends on poke
     placement, so return-value accounting diverges between chunkings even
     though the delivered notifications are identical. *)
  Coordinator.subscribe coord note;
  let apply action =
    match action with
    | Submit (p, side_a, d) ->
      let me = Printf.sprintf "%s%d" (if side_a then "A" else "B") p in
      let partner = Printf.sprintf "%s%d" (if side_a then "B" else "A") p in
      ignore
        (Coordinator.submit coord (side_query cat ~me ~partner ~dest:dests.(d)))
    | Grow d ->
      incr next_fno;
      ignore (Table.insert flights [| v_int !next_fno; v_str dests.(d) |])
    | Shrink _ | Poke -> ()
  in
  let rec chunks = function
    | [] -> []
    | l ->
      let rec take n = function
        | x :: tl when n > 0 ->
          let h, t = take (n - 1) tl in
          x :: h, t
        | rest -> [], rest
      in
      let h, t = take chunk l in
      h :: chunks t
  in
  List.iter
    (fun batch ->
      List.iter apply batch;
      ignore
        (if chunk = 1 then Coordinator.poke coord
         else Coordinator.poke_batch ~statements:(List.length batch) coord))
    (chunks actions);
  ( List.sort compare !notified,
    List.sort compare (List.map fst (answer_rows db)),
    Coordinator.pending coord |> Pending.to_list
    |> List.map (fun (q : Equery.t) -> q.Equery.id)
    |> List.sort compare )

let print_actions (actions, chunk) =
  Printf.sprintf "chunk=%d [%s]" chunk
    (String.concat "; "
       (List.map
          (function
            | Submit (p, side, d) ->
              Printf.sprintf "Submit(%d,%s,%s)" p
                (if side then "A" else "B")
                dests.(d)
            | Grow d -> Printf.sprintf "Grow(%s)" dests.(d)
            | Shrink d -> Printf.sprintf "Shrink(%s)" dests.(d)
            | Poke -> "Poke")
          actions))

let prop_batched_poke_equivalence =
  QCheck.Test.make
    ~name:"per-batch poke reaches per-statement outcome (I7b)" ~count:60
    (QCheck.make ~print:print_actions
       QCheck.Gen.(pair monotone_action_gen (int_range 2 8)))
    (fun (actions, chunk) -> run_chunked ~chunk:1 actions = run_chunked ~chunk actions)

(* I8 (tuple-targeting equivalence): the constraint-indexed tuple-level poke
   is a pure optimization — across randomized interleavings of submissions,
   committed inserts/updates/deletes, direct (observer-bypassing) inserts,
   drop/recreate DDL and pokes, all three retry policies ([All], [Tables],
   [Tuples]) produce identical outcomes, notifications, answer tuples and
   pending sets.  Both sides of a pair
   read the same table (like I6's single Flights table), so which query
   seeds the matcher search never depends on which side a poke retries
   first. *)

type xaction =
  | XSubmit of int * bool * int  (* pair id, A/B side, dest index *)
  | XGrowTxn of bool * int  (* committed insert into FA/FB → probeable *)
  | XGrowDirect of bool * int  (* direct insert, bypasses the observer *)
  | XUpdateTxn of bool * int * int  (* move one row's dest d1 → d2 *)
  | XDeleteTxn of bool * int  (* committed delete → must widen *)
  | XDdl of bool  (* drop + recreate + reseed the table *)
  | XPoke of bool  (* route through poke_batch? *)

let xtable_name side = if side then "FA" else "FB"

let xaction_gen =
  QCheck.Gen.(
    let dest = int_bound (Array.length dests - 1) in
    list_size (int_range 1 25)
      (frequency
         [
           ( 6,
             map3 (fun p side d -> XSubmit (p, side, d)) (int_bound 5) bool dest
           );
           3, map2 (fun s d -> XGrowTxn (s, d)) bool dest;
           1, map2 (fun s d -> XGrowDirect (s, d)) bool dest;
           2, map3 (fun s d1 d2 -> XUpdateTxn (s, d1, d2)) bool dest dest;
           2, map2 (fun s d -> XDeleteTxn (s, d)) bool dest;
           1, map (fun s -> XDdl s) bool;
           3, map (fun b -> XPoke b) bool;
         ]))

let print_xactions actions =
  String.concat "; "
    (List.map
       (function
         | XSubmit (p, side, d) ->
           Printf.sprintf "Submit(%d,%s,%s)" p (xtable_name side) dests.(d)
         | XGrowTxn (s, d) ->
           Printf.sprintf "GrowTxn(%s,%s)" (xtable_name s) dests.(d)
         | XGrowDirect (s, d) ->
           Printf.sprintf "GrowDirect(%s,%s)" (xtable_name s) dests.(d)
         | XUpdateTxn (s, d1, d2) ->
           Printf.sprintf "UpdateTxn(%s,%s->%s)" (xtable_name s) dests.(d1)
             dests.(d2)
         | XDeleteTxn (s, d) ->
           Printf.sprintf "DeleteTxn(%s,%s)" (xtable_name s) dests.(d)
         | XDdl s -> Printf.sprintf "Ddl(%s)" (xtable_name s)
         | XPoke b -> if b then "PokeBatch" else "Poke")
       actions)

let run_xactions ~retry actions =
  let config = { Coordinator.default_config with Coordinator.retry } in
  let db = Database.create () in
  let xschema name =
    Schema.make ~primary_key:[ 0 ] name
      [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ]
  in
  let next_fno = ref 1000 in
  let seed_rows table =
    List.iter
      (fun d ->
        if d <> "NoFlight" then begin
          incr next_fno;
          ignore (Table.insert table [| v_int !next_fno; v_str d |])
        end)
      (Array.to_list dests)
  in
  List.iter
    (fun side ->
      seed_rows (Database.create_table db (xschema (xtable_name side))))
    [ true; false ];
  let coord = Coordinator.create ~config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let cat = db.Database.catalog in
  let table side = Database.find_table db (xtable_name side) in
  let victim side d =
    Table.fold
      (fun acc row_id row ->
        match acc with
        | Some _ -> acc
        | None -> if Value.as_string row.(1) = dests.(d) then Some (row_id, row) else None)
      None (table side)
  in
  let trace =
    List.map
      (fun action ->
        match action with
        | XSubmit (p, side_a, d) ->
          let me = Printf.sprintf "%s%d" (if side_a then "A" else "B") p in
          let partner = Printf.sprintf "%s%d" (if side_a then "B" else "A") p in
          (* both sides of pair [p] read the same table, by pair parity *)
          let tbl = xtable_name (p mod 2 = 0) in
          outcome_digest
            (Coordinator.submit coord
               (Translate.of_sql cat ~owner:me
                  (Printf.sprintf
                     "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT \
                      fno FROM %s WHERE dest='%s') AND ('%s', fno) IN \
                      ANSWER R CHOOSE 1"
                     me tbl dests.(d) partner)))
        | XGrowTxn (s, d) ->
          incr next_fno;
          let fno = !next_fno in
          Database.with_txn db (fun txn ->
              ignore (Txn.insert txn (table s) [| v_int fno; v_str dests.(d) |]));
          "growtxn"
        | XGrowDirect (s, d) ->
          incr next_fno;
          ignore (Table.insert (table s) [| v_int !next_fno; v_str dests.(d) |]);
          "growdirect"
        | XUpdateTxn (s, d1, d2) ->
          (match victim s d1 with
          | Some (row_id, row) ->
            Database.with_txn db (fun txn ->
                ignore
                  (Txn.update txn (table s) row_id
                     [| row.(0); v_str dests.(d2) |]))
          | None -> ());
          "updatetxn"
        | XDeleteTxn (s, d) ->
          (match victim s d with
          | Some (row_id, _) ->
            Database.with_txn db (fun txn ->
                ignore (Txn.delete txn (table s) row_id))
          | None -> ());
          "deletetxn"
        | XDdl s ->
          (* drop + recreate under the same name: new uid, fresh rows — the
             version snapshot can't explain the advance, so every mode must
             fall back to the table's full reader set *)
          Database.drop_table db (xtable_name s);
          seed_rows (Database.create_table db (xschema (xtable_name s)));
          "ddl"
        | XPoke batch ->
          (if batch then Coordinator.poke_batch ~statements:2 coord
           else Coordinator.poke coord)
          |> List.map notification_digest
          |> List.sort compare |> String.concat "|")
      actions
  in
  let final =
    [
      String.concat "|"
        (List.sort compare
           (List.map
              (fun (n, f) -> Printf.sprintf "%s=%d" n f)
              (answer_rows db)));
      Coordinator.pending coord |> Pending.to_list
      |> List.map (fun (q : Equery.t) -> string_of_int q.Equery.id)
      |> String.concat ",";
    ]
  in
  trace @ final

let prop_tuple_poke_equivalence =
  QCheck.Test.make
    ~name:"tuple-level poke preserves outcomes (I8)" ~count:80
    (QCheck.make ~print:print_xactions xaction_gen) (fun actions ->
      let reference = run_xactions ~retry:All actions in
      List.for_all
        (fun retry -> run_xactions ~retry actions = reference)
        [ Coordinator.Tables; Tuples ])

(* I9 (k-way all-or-nothing, randomized): the scenario subsystem's group
   formation generalises the pair properties to cliques of k ∈ {3,5,8}.
   With k-1 members submitted nothing is booked and everyone parks; the
   k-th submission fulfils the whole clique jointly — k bookings, the
   clique's k answer tuples on one rid, and exactly one ride drained by
   exactly k seats.  The day pin is randomized three ways: absent, pinned
   to a real ride's day (clique forms), pinned to a day no ride has
   (clique must never form). *)

let kway_gen =
  QCheck.Gen.(
    map3
      (fun k d (pin, seed) -> k, d, pin, seed)
      (oneofl [ 3; 5; 8 ])
      (int_bound (Array.length Scenarios.Groups.dests - 1))
      (pair (oneofl [ `NoPin; `PinReal; `PinMissing ]) (int_bound 10_000)))

let print_kway (k, d, pin, seed) =
  Printf.sprintf "k=%d dest=%s pin=%s seed=%d" k
    Scenarios.Groups.dests.(d)
    (match pin with
    | `NoPin -> "none"
    | `PinReal -> "real-day"
    | `PinMissing -> "missing-day")
    seed

let prop_kway_all_or_nothing =
  QCheck.Test.make ~name:"k-way cliques are all-or-nothing (I9)" ~count:40
    (QCheck.make ~print:print_kway kway_gen) (fun (k, d, pin, seed) ->
      let dest = Scenarios.Groups.dests.(d) in
      let app =
        Scenarios.Groups.create ~seed:(seed + 1) ~n_rides:12 ~capacity:k ()
      in
      let sys = Scenarios.Groups.system app in
      let db = Youtopia.System.database sys in
      let rides = Database.find_table db "Rides" in
      let day =
        match pin with
        | `NoPin -> None
        | `PinMissing -> Some 99 (* populate only deals days 1..30 *)
        | `PinReal ->
          Table.fold
            (fun acc _ row ->
              match acc with
              | Some _ -> acc
              | None ->
                if Value.as_string row.(1) = dest then
                  Some (Value.as_int row.(2))
                else None)
            None rides
      in
      let members = List.init k (fun i -> Printf.sprintf "r%d_%d" seed i) in
      let rng = Random.State.make [| seed |] in
      let order =
        members
        |> List.map (fun m -> Random.State.bits rng, m)
        |> List.sort compare |> List.map snd
      in
      let submit me =
        let others = List.filter (fun m -> m <> me) members in
        let sql = Scenarios.Groups.member_sql ~me ~others ?day ~dest ~k () in
        Youtopia.System.submit_equery sys
          (Youtopia.System.session sys me)
          (Translate.of_sql (Youtopia.System.catalog sys) ~owner:me sql)
      in
      let prefix, last =
        match List.rev order with
        | last :: rev_prefix -> List.rev rev_prefix, last
        | [] -> assert false
      in
      let booked () =
        Table.fold
          (fun n _ _ -> n + 1)
          0
          (Database.find_table db "RideBookings")
      in
      let parked =
        List.for_all
          (fun me ->
            match submit me with
            | Coordinator.Registered _ -> true
            | _ -> false)
          prefix
      in
      let nothing_before = parked && booked () = 0 in
      let closing = submit last in
      let audit_clean = Scenarios.Groups.audit sys ~capacity:k = [] in
      match pin with
      | `PinMissing ->
        (* no ride matches: the k-th member parks like everyone else *)
        nothing_before
        && (match closing with Coordinator.Registered _ -> true | _ -> false)
        && booked () = 0 && audit_clean
      | `NoPin | `PinReal ->
        let closed =
          match closing with
          | Coordinator.Answered n -> List.length n.Events.group = k
          | _ -> false
        in
        (* exactly one ride drained to 0, every other ride untouched at k *)
        let drained_once =
          Table.fold
            (fun acc _ row ->
              let s = Value.as_int row.(3) in
              if s = 0 then acc + 1 else if s = k then acc else acc + 100)
            0 rides
          = 1
        in
        nothing_before && closed
        && booked () = k
        && drained_once && audit_clean
        && Pending.size (Coordinator.pending (Youtopia.System.coordinator sys))
           = 0)

(* I10 (k-way poke-grid equivalence): randomized group-formation workloads
   — complete and partial cliques of k ∈ {3,5,8} over (dest, day) buckets,
   committed ride arrivals, interleaved pokes — replay identically under
   all three retry policies ([All], [Tables], [Tuples]).  Every seeded ride is full (capacity 0), so every
   clique parks until a GRide commits seats into its bucket; the poke is
   then the only path to fulfilment, which is exactly the machinery the
   grid varies. *)

let ksizes = [| 3; 5; 8 |]

type gaction =
  | GClique of int * int * int * bool  (* size idx, dest idx, day, complete? *)
  | GRide of int * int * int  (* dest idx, day, seats *)
  | GPoke of bool  (* route through poke_batch? *)

let gaction_gen =
  QCheck.Gen.(
    let dest = int_bound (Array.length Scenarios.Groups.dests - 1) in
    let day = int_range 1 4 in
    list_size (int_range 2 12)
      (frequency
         [
           ( 4,
             map2
               (fun (s, d) (dy, c) -> GClique (s, d, dy, c))
               (pair (int_bound 2) dest) (pair day bool) );
           3, map3 (fun d dy s -> GRide (d, dy, s)) dest day (int_range 2 8);
           3, map (fun b -> GPoke b) bool;
         ]))

let print_gactions actions =
  String.concat "; "
    (List.map
       (function
         | GClique (s, d, dy, c) ->
           Printf.sprintf "Clique(k=%d,%s,day%d,%s)" ksizes.(s)
             Scenarios.Groups.dests.(d) dy
             (if c then "complete" else "partial")
         | GRide (d, dy, s) ->
           Printf.sprintf "Ride(%s,day%d,seats=%d)" Scenarios.Groups.dests.(d)
             dy s
         | GPoke b -> if b then "PokeBatch" else "Poke")
       actions)

let run_gactions ~retry actions =
  let config = { Coordinator.default_config with Coordinator.retry } in
  let app = Scenarios.Groups.create ~config ~seed:1 ~n_rides:6 ~capacity:0 () in
  let sys = Scenarios.Groups.system app in
  let db = Youtopia.System.database sys in
  let rides = Database.find_table db "Rides" in
  let next_rid = ref 9000 in
  let trace =
    List.mapi
      (fun i action ->
        match action with
        | GClique (s, d, day, complete) ->
          let k = ksizes.(s) in
          let dest = Scenarios.Groups.dests.(d) in
          let members = List.init k (fun j -> Printf.sprintf "g%dm%d" i j) in
          let submitted =
            if complete then members
            else List.filteri (fun j _ -> j < k - 1) members
          in
          submitted
          |> List.map (fun me ->
                 let others = List.filter (fun m -> m <> me) members in
                 let sql =
                   Scenarios.Groups.member_sql ~me ~others ~day ~dest ~k ()
                 in
                 outcome_digest
                   (Youtopia.System.submit_equery sys
                      (Youtopia.System.session sys me)
                      (Translate.of_sql (Youtopia.System.catalog sys)
                         ~owner:me sql)))
          |> String.concat "|"
        | GRide (d, day, seats) ->
          incr next_rid;
          Database.with_txn db (fun txn ->
              ignore
                (Txn.insert txn rides
                   [|
                     v_int !next_rid;
                     v_str Scenarios.Groups.dests.(d);
                     v_int day;
                     v_int seats;
                   |]));
          "ride"
        | GPoke batch ->
          (if batch then Youtopia.System.poke_batch sys ~statements:2
           else Youtopia.System.poke sys)
          |> List.map notification_digest
          |> List.sort compare |> String.concat "|")
      actions
  in
  let rows_digest name =
    Table.rows (Database.find_table db name)
    |> List.map (Fmt.str "%a" Tuple.pp)
    |> List.sort compare |> String.concat "|"
  in
  let final =
    [
      rows_digest "Rides";
      rows_digest "RideBookings";
      rows_digest "RideRes";
      Coordinator.pending (Youtopia.System.coordinator sys)
      |> Pending.to_list
      |> List.map (fun (q : Equery.t) -> string_of_int q.Equery.id)
      |> String.concat ",";
    ]
  in
  trace @ final

let prop_kway_poke_grid =
  QCheck.Test.make
    ~name:"k-way formation equivalent across poke grid (I10)" ~count:30
    (QCheck.make ~print:print_gactions gaction_gen) (fun actions ->
      let reference = run_gactions ~retry:All actions in
      List.for_all
        (fun retry -> run_gactions ~retry actions = reference)
        [ Coordinator.Tables; Tuples ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pair_semantics;
    QCheck_alcotest.to_alcotest prop_order_independence;
    QCheck_alcotest.to_alcotest prop_group_cliques;
    QCheck_alcotest.to_alcotest prop_incremental_equivalence;
    QCheck_alcotest.to_alcotest prop_poke_batch_is_poke;
    QCheck_alcotest.to_alcotest prop_batched_poke_equivalence;
    QCheck_alcotest.to_alcotest prop_tuple_poke_equivalence;
    QCheck_alcotest.to_alcotest prop_kway_all_or_nothing;
    QCheck_alcotest.to_alcotest prop_kway_poke_grid;
  ]
