(* Tests for the coordinator extensions: crash recovery of a full system
   (answer relations included), workload analysis, and concurrent
   submission from multiple domains. *)

open Relational
open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let v_int i = Value.Int i
let v_str s = Value.Str s

let make_system () =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iter
    (fun (f, d) -> ignore (Table.insert flights [| v_int f; v_str d |]))
    [ 122, "Paris"; 123, "Paris"; 136, "Rome" ];
  let coord = Coordinator.create db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Reservation"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord

let pair_q cat name friend =
  Translate.of_sql cat ~owner:name
    (Printf.sprintf
       "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
        FROM Flights WHERE dest='Paris') AND ('%s', fno) IN ANSWER \
        Reservation CHOOSE 1"
       name friend)

(* ---------------- full-system recovery ---------------- *)

let test_system_recovery_with_answers () =
  let path = Filename.temp_file "youtopia_recover" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sys = Youtopia.System.create ~wal_path:path () in
      let admin = Youtopia.System.session sys "admin" in
      ignore
        (Youtopia.System.exec_sql sys admin
           "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT NOT NULL)");
      ignore
        (Youtopia.System.exec_sql sys admin
           "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris')");
      Youtopia.System.declare_answer_relation sys
        (Schema.make "Reservation"
           [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
      (* a completed coordination lands in the (logged) answer relation *)
      let jerry = Youtopia.System.session sys "Jerry" in
      let kramer = Youtopia.System.session sys "Kramer" in
      let q name friend =
        Printf.sprintf
          "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
           FROM Flights WHERE dest='Paris') AND ('%s', fno) IN ANSWER \
           Reservation CHOOSE 1"
          name friend
      in
      ignore (Youtopia.System.exec_sql sys jerry (q "Jerry" "Kramer"));
      ignore (Youtopia.System.exec_sql sys kramer (q "Kramer" "Jerry"));
      Database.close (Youtopia.System.database sys);
      (* crash … recover *)
      let sys2 =
        Youtopia.System.recover ~wal_path:path
          ~answer_relations:[ "Reservation" ] ()
      in
      let reservation = Database.find_table (Youtopia.System.database sys2) "Reservation" in
      check int "answers survive" 2 (Table.row_count reservation);
      (* and the recovered answer relation still coordinates: Elaine joins
         the pre-crash flight choice *)
      let elaine = Youtopia.System.session sys2 "Elaine" in
      (match
         Youtopia.System.exec_sql sys2 elaine
           "SELECT 'Elaine', fno INTO ANSWER Reservation WHERE ('Jerry', \
            fno) IN ANSWER Reservation CHOOSE 1"
       with
      | Youtopia.System.Coordination (Coordinator.Answered n) ->
        let _, row = List.hd n.Events.answers in
        let jerry_row =
          Table.rows reservation
          |> List.find (fun r -> Value.equal r.(0) (v_str "Jerry"))
        in
        check bool "same flight as pre-crash jerry" true
          (Value.equal row.(1) jerry_row.(1))
      | _ -> Alcotest.fail "elaine should join the recovered answers");
      Database.close (Youtopia.System.database sys2))

(* ---------------- workload analysis ---------------- *)

(* [Safety.analyse] over named templates, its edges and components read
   back as names *)
let analyse_named templates =
  let a = Safety.analyse (List.map snd templates) in
  let name q = fst (List.find (fun (_, t) -> t == q) templates) in
  ( a,
    List.map (fun (c, s) -> name c, name s) a.Safety.edges,
    List.map (List.map name) a.Safety.components )

let test_templates_pair_workload () =
  let db, _ = make_system () in
  let cat = db.Database.catalog in
  let a, edges, groups =
    analyse_named
      [
        "kramer_side", pair_q cat "Kramer" "Jerry";
        "jerry_side", pair_q cat "Jerry" "Kramer";
      ]
  in
  check bool "deployable" true (a.Safety.unsupplied = []);
  check bool "mutual edges" true
    (List.mem ("kramer_side", "jerry_side") edges
    && List.mem ("jerry_side", "kramer_side") edges);
  check int "one coordination group" 1 (List.length groups)

let test_templates_detect_unsupplied () =
  let db, _ = make_system () in
  let cat = db.Database.catalog in
  let lonely = [ "lonely", pair_q cat "Kramer" "Jerry" ] in
  let a, _, _ = analyse_named lonely in
  check bool "not deployable" false (a.Safety.unsupplied = []);
  check int "one unsupplied constraint" 1 (List.length a.Safety.unsupplied);
  (* adding the missing side fixes it *)
  let a, _, _ =
    analyse_named (lonely @ [ "partner", pair_q cat "Jerry" "Kramer" ])
  in
  check bool "deployable after fix" true (a.Safety.unsupplied = [])

let test_templates_self_sufficient_and_groups () =
  let db, _ = make_system () in
  let cat = db.Database.catalog in
  let _, edges, groups =
    analyse_named
      [
        ( "solo",
          Translate.of_sql cat ~owner:"s"
            "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
             fno FROM Flights WHERE dest='Rome') CHOOSE 1" );
        "a", pair_q cat "A" "B";
        "b", pair_q cat "B" "A";
      ]
  in
  (* self-sufficient: no constraint, so no edge out of it *)
  check bool "solo is self-sufficient" true
    (not (List.exists (fun (c, _) -> c = "solo") edges));
  (* components: {solo} and {a, b} *)
  check int "two groups" 2 (List.length groups);
  check bool "pair grouped" true (List.mem [ "a"; "b" ] groups)

(* A generic "same choice" template where the partner name is itself a
   variable: heads with variables in the name position must index correctly. *)
let test_variable_name_position () =
  let db, coord = make_system () in
  let cat = db.Database.catalog in
  (* "book me with ANYONE who wants Paris" — name position is a variable
     bound through the partner's head *)
  let anyone =
    Equery.make ~owner:"Anyone" ~label:"anyone"
      ~heads:[ Atom.make "Reservation" [ Term.Const (v_str "Anyone"); Term.Var "fno" ] ]
      ~db_atoms:[]
      ~ans_atoms:[ Atom.make "Reservation" [ Term.Var "who"; Term.Var "fno" ] ]
      ()
  in
  (match Coordinator.submit coord anyone with
  | Coordinator.Registered _ -> ()
  | Coordinator.Rejected m -> Alcotest.failf "rejected: %s" m
  | _ -> Alcotest.fail "anyone should wait");
  (* a self-sufficient Paris booking arrives; 'Anyone' should ride along *)
  match
    Coordinator.submit coord
      (Translate.of_sql cat ~owner:"Solo"
         "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
          fno FROM Flights WHERE dest='Paris') CHOOSE 1")
  with
  | Coordinator.Answered n ->
    (* Solo answers alone (groups are minimal); the cascade then satisfies
       'Anyone' from the fresh tuple — the variable-name index must have
       routed the retry. *)
    check int "solo's own group" 1 (List.length n.Events.group);
    check int "anyone fulfilled by cascade" 0
      (Pending.size (Coordinator.pending coord));
    let reservation = Database.find_table db "Reservation" in
    let anyone_row =
      Table.rows reservation
      |> List.find_opt (fun r -> Value.equal r.(0) (v_str "Anyone"))
    in
    (match anyone_row, List.hd n.Events.answers with
    | Some row, (_, solo_row) ->
      check bool "anyone rides solo's flight" true
        (Value.equal row.(1) solo_row.(1))
    | None, _ -> Alcotest.fail "anyone has no answer tuple")
  | _ -> Alcotest.fail "solo should answer immediately"

(* ---------------- cascade chains ---------------- *)

let test_cascade_chain () =
  let db, coord = make_system () in
  let cat = db.Database.catalog in
  let waiter me target =
    Translate.of_sql cat ~owner:me
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER Reservation WHERE ('%s', fno) IN \
          ANSWER Reservation CHOOSE 1"
         me target)
  in
  (* link1 waits on Solo, link2 on link1, link3 on link2 *)
  ignore (Coordinator.submit coord (waiter "link1" "Solo"));
  ignore (Coordinator.submit coord (waiter "link2" "link1"));
  ignore (Coordinator.submit coord (waiter "link3" "link2"));
  check int "chain parked" 3 (Pending.size (Coordinator.pending coord));
  let notified = ref [] in
  Coordinator.subscribe coord (fun n -> notified := n.Events.owner :: !notified);
  (match
     Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Solo"
          "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Rome') CHOOSE 1")
   with
  | Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "solo should answer");
  check int "whole chain fulfilled" 0 (Pending.size (Coordinator.pending coord));
  check int "four notifications" 4 (List.length !notified);
  (* everyone rides the Rome flight 136 *)
  let reservation = Database.find_table db "Reservation" in
  check int "four tuples" 4 (Table.row_count reservation);
  Table.iter
    (fun _ row -> check bool "fno 136" true (Value.equal row.(1) (v_int 136)))
    reservation

(* ---------------- the tutorial's gift-exchange workload ---------------- *)

let test_gift_exchange () =
  let db = Database.create () in
  let wishlist =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Wishlist"
         [ Schema.column "person" Ctype.TText; Schema.column "item" Ctype.TText ])
  in
  List.iter
    (fun (p, i) -> ignore (Table.insert wishlist [| v_str p; v_str i |]))
    [ "ann", "book"; "ben", "mug"; "cleo", "pen" ];
  let coord = Coordinator.create db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Gives"
       [ Schema.column "giver" Ctype.TText; Schema.column "receiver" Ctype.TText ]);
  let cat = db.Database.catalog in
  let give person =
    Coordinator.submit coord
      (Translate.of_sql cat ~owner:person
         (Printf.sprintf
            "SELECT '%s', r INTO ANSWER Gives WHERE r IN (SELECT person FROM \
             Wishlist) AND (g, '%s') IN ANSWER Gives AND r <> '%s' CHOOSE 1"
            person person person))
  in
  (match give "ann" with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "ann waits");
  (* minimal groups: ben's arrival closes a two-cycle with ann *)
  (match give "ben" with
  | Coordinator.Answered n -> check int "pair cycle" 2 (List.length n.Events.group)
  | _ -> Alcotest.fail "ben should close the pair");
  (* cleo now has no partner left *)
  (match give "cleo" with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "cleo waits");
  let gives = Database.find_table db "Gives" in
  check int "two tuples" 2 (Table.row_count gives);
  (* the two tuples form a giver/receiver cycle with no self-gift *)
  Table.iter
    (fun _ row ->
      check bool "no self gift" false (Value.equal row.(0) row.(1)))
    gives

(* ---------------- concurrent submission (domains) ---------------- *)

let test_concurrent_domain_submissions () =
  let sys = Travel.Datagen.make_system ~seed:3 ~n_flights:32 ~n_hotels:8 () in
  let coordinator = Youtopia.System.coordinator sys in
  let cat = Youtopia.System.catalog sys in
  let pairs_per_domain = 10 in
  let domain d =
    Domain.spawn (fun () ->
        let answered = ref 0 in
        for i = 1 to pairs_per_domain do
          let a = Printf.sprintf "d%dA%d" d i and b = Printf.sprintf "d%dB%d" d i in
          ignore
            (Coordinator.submit coordinator
               (Travel.Workload.pair_query cat ~user:a ~friend:b ~dest:"Paris"));
          match
            Coordinator.submit coordinator
              (Travel.Workload.pair_query cat ~user:b ~friend:a ~dest:"Paris")
          with
          | Coordinator.Answered _ -> incr answered
          | _ -> ()
        done;
        !answered)
  in
  let domains = List.init 4 domain in
  let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check int "every pair matched" (4 * pairs_per_domain) total;
  check int "nothing pending" 0 (Pending.size (Coordinator.pending coordinator));
  check int "all answered" (4 * pairs_per_domain * 2)
    (Coordinator.stats coordinator).Stats.answered

let suite =
  [
    Alcotest.test_case "system recovery with answers" `Quick
      test_system_recovery_with_answers;
    Alcotest.test_case "templates: pair workload" `Quick test_templates_pair_workload;
    Alcotest.test_case "templates: unsupplied detection" `Quick
      test_templates_detect_unsupplied;
    Alcotest.test_case "templates: self-sufficient/groups" `Quick
      test_templates_self_sufficient_and_groups;
    Alcotest.test_case "variable in name position" `Quick test_variable_name_position;
    Alcotest.test_case "cascade chain" `Quick test_cascade_chain;
    Alcotest.test_case "gift exchange (tutorial)" `Quick test_gift_exchange;
    Alcotest.test_case "concurrent domain submissions" `Quick
      test_concurrent_domain_submissions;
  ]
