(* Tests for the travel application: social graph, data generation, and the
   demo scenarios E2–E7 of DESIGN.md driven through the middle tier. *)

open Relational
open Travel

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- social graph ---------------- *)

let test_social_basics () =
  let g = Social.create () in
  Social.befriend g "Jerry" "Kramer";
  Social.befriend g "Kramer" "Elaine";
  check bool "symmetric" true (Social.are_friends g "Kramer" "Jerry");
  check bool "not transitive" false (Social.are_friends g "Jerry" "Elaine");
  check int "kramer has two" 2 (List.length (Social.friends_of g "Kramer"));
  check int "three users" 3 (List.length (Social.users g));
  Social.befriend g "Jerry" "Jerry";
  check bool "no self loop" false (Social.are_friends g "Jerry" "Jerry")

let test_social_clique_and_ring () =
  let g = Social.create () in
  Social.clique g [ "a"; "b"; "c"; "d" ];
  check int "clique degree" 3 (List.length (Social.friends_of g "a"));
  let r = Social.create () in
  Social.ring r [ "x"; "y"; "z" ];
  check bool "ring closed" true (Social.are_friends r "x" "z")

let test_social_generate_deterministic () =
  let a = Social.generate ~seed:7 ~n_users:20 ~avg_friends:4 in
  let b = Social.generate ~seed:7 ~n_users:20 ~avg_friends:4 in
  check bool "same graphs" true
    (List.for_all
       (fun u -> Social.friends_of a u = Social.friends_of b u)
       (Social.users a))

(* ---------------- datagen ---------------- *)

let test_datagen_counts () =
  let sys = Datagen.make_system ~seed:1 ~n_flights:16 ~n_hotels:8 () in
  let db = Youtopia.System.database sys in
  check int "flights" 16 (Table.row_count (Database.find_table db "Flights"));
  check int "hotels" 8 (Table.row_count (Database.find_table db "Hotels"));
  check int "seats" (16 * 8) (Table.row_count (Database.find_table db "Seats"));
  (* every city reachable *)
  let flights = Database.find_table db "Flights" in
  Array.iter
    (fun city ->
      let found =
        Table.fold
          (fun acc _ row -> acc || Value.equal row.(2) (Value.Str city))
          false flights
      in
      check bool ("flight to " ^ city) true found)
    Datagen.cities

(* ---------------- app fixture ---------------- *)

let make_app () =
  let social = Social.create () in
  Social.clique social [ "Jerry"; "Kramer"; "Elaine"; "George" ];
  App.create ~social ~seed:42 ~n_flights:24 ~n_hotels:16 ()

let seats_of app fno =
  let db = Youtopia.System.database (App.system app) in
  let flights = Database.find_table db "Flights" in
  let row_id = Option.get (Table.lookup_pk flights [| Value.Int fno |]) in
  Value.as_int (Table.get_exn flights row_id).(5)

let booked_flight n =
  match List.assoc_opt "FlightRes" n.Core.Events.answers with
  | Some row -> Value.as_int row.(1)
  | None -> Alcotest.fail "no FlightRes contribution"

(* E2: book a flight with a friend *)
let test_pair_flight_coordination () =
  let app = make_app () in
  (match App.coordinate_flight app "Jerry" ~friends:[ "Kramer" ] ~dest:"Paris" () with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "jerry should wait");
  match App.coordinate_flight app "Kramer" ~friends:[ "Jerry" ] ~dest:"Paris" () with
  | Core.Coordinator.Answered n ->
    let fno = booked_flight n in
    (* side effects ran: two bookings, two seats consumed *)
    let db = Youtopia.System.database (App.system app) in
    let bookings = Database.find_table db "FlightBookings" in
    check int "two bookings" 2 (Table.row_count bookings);
    check int "seats consumed" 6 (seats_of app fno);
    (* jerry got his notification *)
    check int "jerry inbox" 1 (List.length (App.inbox app "Jerry"))
  | _ -> Alcotest.fail "kramer should complete the pair"

(* E3: flight and hotel with a friend *)
let test_pair_flight_hotel () =
  let app = make_app () in
  ignore
    (App.coordinate_flight_hotel app "Jerry" ~friends:[ "Kramer" ] ~dest:"Rome" ());
  match
    App.coordinate_flight_hotel app "Kramer" ~friends:[ "Jerry" ] ~dest:"Rome" ()
  with
  | Core.Coordinator.Answered n ->
    check int "flight+hotel contributions" 2 (List.length n.Core.Events.answers);
    let db = Youtopia.System.database (App.system app) in
    check int "hotel bookings" 2
      (Table.row_count (Database.find_table db "HotelBookings"))
  | _ -> Alcotest.fail "flight+hotel pair should match"

(* E5: group flight booking (four friends) *)
let test_group_flight () =
  let app = make_app () in
  let members = [ "Jerry"; "Kramer"; "Elaine"; "George" ] in
  let outcomes =
    List.map
      (fun user ->
        let friends = List.filter (fun f -> f <> user) members in
        App.coordinate_flight app user ~friends ~dest:"Berlin" ())
      members
  in
  (match List.rev outcomes with
  | Core.Coordinator.Answered n :: _ ->
    check int "group of four" 4 (List.length n.Core.Events.group);
    let fno = booked_flight n in
    check int "four seats consumed" 4 (8 - seats_of app fno)
  | _ -> Alcotest.fail "last member should close the group");
  let db = Youtopia.System.database (App.system app) in
  let res = Database.find_table db "FlightRes" in
  let fnos =
    Table.rows res |> List.map (fun r -> r.(1)) |> List.sort_uniq Value.compare
  in
  check int "all on one flight" 1 (List.length fnos)

(* E6: group flight and hotel *)
let test_group_flight_hotel () =
  let app = make_app () in
  let members = [ "Jerry"; "Kramer"; "Elaine" ] in
  let outcomes =
    List.map
      (fun user ->
        let friends = List.filter (fun f -> f <> user) members in
        App.coordinate_flight_hotel app user ~friends ~dest:"Madrid" ())
      members
  in
  match List.rev outcomes with
  | Core.Coordinator.Answered n :: _ ->
    check int "group of three" 3 (List.length n.Core.Events.group);
    let db = Youtopia.System.database (App.system app) in
    let hotel_res = Database.find_table db "HotelRes" in
    let hids =
      Table.rows hotel_res |> List.map (fun r -> r.(1)) |> List.sort_uniq Value.compare
    in
    check int "one hotel" 1 (List.length hids)
  | _ -> Alcotest.fail "group flight+hotel should match"

(* E7: ad-hoc asymmetric coordination *)
let test_adhoc () =
  let app = make_app () in
  ignore (App.coordinate_flight app "Jerry" ~friends:[ "Kramer" ] ~dest:"Athens" ());
  (* Kramer coordinates flight with Jerry AND hotel with Elaine *)
  let sys = App.system app in
  let cat = Youtopia.System.catalog sys in
  let kramer_q =
    Core.Translate.of_sql cat ~owner:"Kramer"
      "SELECT ('Kramer', fno) INTO ANSWER FlightRes, ('Kramer', hid) INTO \
       ANSWER HotelRes WHERE fno IN (SELECT fno FROM Flights WHERE dest = \
       'Athens') AND hid IN (SELECT hid FROM Hotels WHERE city = 'Athens') \
       AND ('Jerry', fno) IN ANSWER FlightRes AND ('Elaine', hid) IN ANSWER \
       HotelRes CHOOSE 1"
  in
  (match
     Youtopia.System.submit_equery sys (App.session app "Kramer") kramer_q
   with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "kramer should wait for elaine");
  let elaine_q =
    Core.Translate.of_sql cat ~owner:"Elaine"
      "SELECT 'Elaine', hid INTO ANSWER HotelRes WHERE hid IN (SELECT hid \
       FROM Hotels WHERE city = 'Athens') AND ('Kramer', hid) IN ANSWER \
       HotelRes CHOOSE 1"
  in
  match Youtopia.System.submit_equery sys (App.session app "Elaine") elaine_q with
  | Core.Coordinator.Answered n ->
    check int "three-way ad-hoc group" 3 (List.length n.Core.Events.group)
  | _ -> Alcotest.fail "elaine should close the ad-hoc group"

(* adjacent seats *)
let test_adjacent_seats () =
  let app = make_app () in
  (match App.coordinate_adjacent_seat app "Jerry" ~friend:"Kramer" ~dest:"Paris" () with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "jerry waits for kramer's seat");
  match App.coordinate_any_seat app "Kramer" ~friend:"Jerry" ~dest:"Paris" () with
  | Core.Coordinator.Answered n ->
    let seat_row =
      match List.assoc_opt "SeatRes" n.Core.Events.answers with
      | Some row -> row
      | None -> Alcotest.fail "no seat contribution"
    in
    let kramer_fno = Value.as_int seat_row.(1) in
    let kramer_seat = Value.as_int seat_row.(2) in
    (* jerry's seat = kramer's + 1, same flight *)
    let db = Youtopia.System.database (App.system app) in
    let seat_res = Database.find_table db "SeatRes" in
    let jerry_row =
      Table.rows seat_res
      |> List.find (fun r -> Value.equal r.(0) (Value.Str "Jerry"))
    in
    check int "same flight" kramer_fno (Value.as_int jerry_row.(1));
    check int "adjacent" (kramer_seat + 1) (Value.as_int jerry_row.(2));
    (* both seats marked taken *)
    let seats = Database.find_table db "Seats" in
    let taken =
      Table.fold
        (fun acc _ row -> acc + Value.as_int row.(2))
        0 seats
    in
    check int "two seats taken" 2 taken
  | _ -> Alcotest.fail "kramer should complete the seat pair"

(* browse path: direct booking + friends' bookings view *)
let test_browse_and_direct_booking () =
  let app = make_app () in
  let flights = App.search_flights app "Kramer" ~dest:"Paris" () in
  check bool "found flights" true (flights <> []);
  (* sorted by price *)
  let prices = List.map (fun r -> Value.as_float r.(3)) flights in
  check bool "price sorted" true (List.sort compare prices = prices);
  let fno = Value.as_int (List.hd flights).(0) in
  check bool "direct booking ok" true (App.book_flight_direct app "Kramer" ~fno);
  check int "seat gone" 7 (seats_of app fno);
  (* Jerry sees Kramer's booking *)
  let views = App.friends_flight_bookings app "Jerry" in
  check bool "jerry sees kramer" true (List.mem ("Kramer", fno) views);
  (* double booking on a full flight fails *)
  for _ = 1 to 7 do
    ignore (App.book_flight_direct app "George" ~fno)
  done;
  check bool "full flight rejected" false (App.book_flight_direct app "Elaine" ~fno)

let test_capacity_blocks_group () =
  (* 2-seat flights cannot host a clique of four *)
  let social = Social.create () in
  Social.clique social [ "a"; "b"; "c"; "d" ];
  let app =
    App.create ~social ~seed:3 ~n_flights:8 ~n_hotels:4 ()
  in
  let db = Youtopia.System.database (App.system app) in
  (* shrink all Oslo flights to 2 seats *)
  let flights = Database.find_table db "Flights" in
  Table.iter
    (fun row_id row ->
      if Value.equal row.(2) (Value.Str "Oslo") then begin
        let updated = Array.copy row in
        updated.(5) <- Value.Int 2;
        ignore (Table.update flights row_id updated)
      end)
    flights;
  let members = [ "a"; "b"; "c"; "d" ] in
  let outcomes =
    List.map
      (fun user ->
        let friends = List.filter (fun f -> f <> user) members in
        App.coordinate_flight app user ~friends ~dest:"Oslo" ())
      members
  in
  check bool "no group match on 2-seat flights" true
    (List.for_all
       (function Core.Coordinator.Registered _ -> true | _ -> false)
       outcomes)

let test_account_view () =
  let app = make_app () in
  ignore (App.coordinate_flight app "Jerry" ~friends:[ "Kramer" ] ~dest:"Paris" ());
  let view = App.account_view app "Jerry" in
  let contains h n =
    let lh = String.length h and ln = String.length n in
    let rec go i = i + ln <= lh && (String.sub h i ln = n || go (i + 1)) in
    go 0
  in
  check bool "pending visible" true (contains view "pending requests: 1");
  ignore (App.coordinate_flight app "Kramer" ~friends:[ "Jerry" ] ~dest:"Paris" ());
  let view = App.account_view app "Jerry" in
  check bool "confirmed visible" true (contains view "flight ");
  check bool "no longer pending" true (contains view "pending requests: 0")

(* ---------------- baseline ---------------- *)

let test_baseline_no_contention () =
  let sys = Datagen.make_system ~seed:5 ~n_flights:16 ~n_hotels:4 () in
  let db = Youtopia.System.database sys in
  let result = Baseline.run db [ "a1", "b1", "Paris"; "a2", "b2", "Rome" ] () in
  check int "both pairs succeed" 2 result.Baseline.succeeded;
  check int "no failures" 0 result.Baseline.failed

let test_baseline_contention_costs () =
  (* single destination, tight seats: restarts occur, and with only one
     1-seat flight a pair must fail *)
  let sys = Datagen.make_system ~seed:5 ~n_flights:8 ~n_hotels:4 ~seats_per_flight:1 () in
  let db = Youtopia.System.database sys in
  let pairs = List.init 4 (fun i -> Printf.sprintf "a%d" i, Printf.sprintf "b%d" i, "Paris") in
  let result = Baseline.run db pairs () in
  (* 8 flights round-robin over 8 cities => exactly 1 Paris flight, 1 seat *)
  check int "nobody can pair-book a 1-seat flight" 0 result.Baseline.succeeded;
  check bool "txn cost paid anyway" true (result.Baseline.txns > 0)

(* ---------------- workload ---------------- *)

let test_workload_pairs_all_match () =
  let sys = Datagen.make_system ~seed:11 ~n_flights:32 ~n_hotels:4 () in
  let coordinator = Youtopia.System.coordinator sys in
  let cat = Youtopia.System.catalog sys in
  let arrivals =
    Workload.pair_arrivals ~seed:1 ~n:20 ~dests:[| "Paris"; "Rome" |]
  in
  let m = Workload.run_pairs coordinator cat arrivals in
  check int "all 40 fulfilled" 40 m.Workload.fulfilled;
  check int "none pending" 0 m.Workload.still_pending

let test_workload_noise_stays_pending () =
  let sys = Datagen.make_system ~seed:11 ~n_flights:16 ~n_hotels:4 () in
  let coordinator = Youtopia.System.coordinator sys in
  let cat = Youtopia.System.catalog sys in
  List.iter
    (fun q -> ignore (Core.Coordinator.submit coordinator q))
    (Workload.noise_queries cat ~n:25 ~dests:[| "Paris" |]);
  check int "25 noise pending" 25
    (Core.Pending.size (Core.Coordinator.pending coordinator));
  (* real pairs still match through the noise *)
  let m =
    Workload.run_pairs coordinator cat
      (Workload.pair_arrivals ~seed:2 ~n:5 ~dests:[| "Paris" |])
  in
  check int "pairs matched despite noise" 10 m.Workload.fulfilled;
  check int "only noise remains" 25 m.Workload.still_pending

let test_hotel_only_coordination () =
  let app = make_app () in
  (match App.coordinate_hotel app "Jerry" ~friends:[ "Kramer" ] ~city:"Oslo" () with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "jerry waits");
  match App.coordinate_hotel app "Kramer" ~friends:[ "Jerry" ] ~city:"Oslo" () with
  | Core.Coordinator.Answered _ ->
    let db = Youtopia.System.database (App.system app) in
    let res = Database.find_table db "HotelRes" in
    check int "two hotel tuples" 2 (Table.row_count res);
    let hids =
      Table.rows res |> List.map (fun r -> r.(1)) |> List.sort_uniq Value.compare
    in
    check int "same hotel" 1 (List.length hids);
    (* rooms decremented twice *)
    let hotels = Database.find_table db "Hotels" in
    let hid = List.hd hids in
    let row_id = Option.get (Table.lookup_pk hotels [| hid |]) in
    check int "rooms consumed" 18 (Value.as_int (Table.get_exn hotels row_id).(4))
  | _ -> Alcotest.fail "kramer should complete the hotel pair"

let test_day_and_price_constraints () =
  let app = make_app () in
  let db = Youtopia.System.database (App.system app) in
  let flights = Database.find_table db "Flights" in
  (* find a real Paris flight and constrain to its exact day and price *)
  let day, price =
    Table.fold
      (fun acc _ row ->
        match acc with
        | Some _ -> acc
        | None ->
          if Value.equal row.(2) (Value.Str "Paris") then
            Some (Value.as_int row.(3), Value.as_float row.(4))
          else None)
      None flights
    |> Option.get
  in
  ignore
    (App.coordinate_flight app "Jerry" ~friends:[ "Kramer" ] ~dest:"Paris" ~day
       ~max_price:(price +. 1.) ());
  (match
     App.coordinate_flight app "Kramer" ~friends:[ "Jerry" ] ~dest:"Paris" ~day
       ~max_price:(price +. 1.) ()
   with
  | Core.Coordinator.Answered n ->
    let _, row = List.hd n.Core.Events.answers in
    let fno = Value.as_int row.(1) in
    let frow = Table.get_exn flights (Option.get (Table.lookup_pk flights [| Value.Int fno |])) in
    check int "constrained day honoured" day (Value.as_int frow.(3));
    check bool "price cap honoured" true (Value.as_float frow.(4) <= price +. 1.)
  | _ -> Alcotest.fail "constrained pair should match");
  (* impossible constraint waits *)
  match
    App.coordinate_flight app "Elaine" ~friends:[ "George" ] ~dest:"Paris"
      ~max_price:0.5 ()
  with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "unsatisfiable price cap must park"

let test_seat_row_of_three () =
  (* a row of three adjacent seats built from pairwise adjacency:
     B sits next to A (pair match), then C next to B (via cascade /
     committed answers) *)
  let app = make_app () in
  (match App.coordinate_adjacent_seat app "Kramer" ~friend:"Jerry" ~dest:"Paris" () with
  | Core.Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "kramer waits");
  (match App.coordinate_any_seat app "Jerry" ~friend:"Kramer" ~dest:"Paris" () with
  | Core.Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "jerry anchors the pair");
  (* Elaine takes the seat after Kramer's *)
  (match App.coordinate_adjacent_seat app "Elaine" ~friend:"Kramer" ~dest:"Paris" () with
  | Core.Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "elaine should join from committed answers");
  let db = Youtopia.System.database (App.system app) in
  let seat_res = Database.find_table db "SeatRes" in
  check int "three seat tuples" 3 (Table.row_count seat_res);
  let seat_of who =
    Table.rows seat_res
    |> List.find (fun r -> Value.equal r.(0) (Value.Str who))
    |> fun r -> Value.as_int r.(1), Value.as_int r.(2)
  in
  let jf, js = seat_of "Jerry" in
  let kf, ks = seat_of "Kramer" in
  let ef, es = seat_of "Elaine" in
  check int "same flight jk" jf kf;
  check int "same flight ke" kf ef;
  check int "kramer next to jerry" (js + 1) ks;
  check int "elaine next to kramer" (ks + 1) es

let test_side_effect_failure_rolls_back () =
  let app = make_app () in
  let sys = App.system app in
  let cat = Youtopia.System.catalog sys in
  (* partner with a side effect that inserts into a nonexistent table *)
  let broken =
    let base =
      Core.Translate.of_sql cat ~owner:"Broken"
        "SELECT 'Broken', fno INTO ANSWER FlightRes WHERE fno IN (SELECT          fno FROM Flights WHERE dest = 'Paris') AND ('Victim', fno) IN          ANSWER FlightRes CHOOSE 1"
    in
    {
      base with
      Core.Equery.side_effects =
        [
          Core.Equery.Sf_insert
            ("NoSuchTable", [| Core.Term.Const (Value.Str "x") |]);
        ];
    }
  in
  ignore (Youtopia.System.submit_equery sys (App.session app "Broken") broken);
  let victim =
    Core.Translate.of_sql cat ~owner:"Victim"
      "SELECT 'Victim', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno        FROM Flights WHERE dest = 'Paris') AND ('Broken', fno) IN ANSWER        FlightRes CHOOSE 1"
  in
  (match Youtopia.System.submit_equery sys (App.session app "Victim") victim with
  | exception Errors.Db_error (Errors.No_such_table _) -> ()
  | _ -> Alcotest.fail "broken side effect should raise");
  (* the fulfilment transaction rolled back: no answer tuples leaked *)
  let db = Youtopia.System.database sys in
  check int "no leaked answers" 0
    (Table.row_count (Database.find_table db "FlightRes"))

let test_app_templates_deployable () =
  let app = make_app () in
  let templates = App.templates app in
  let name q = fst (List.find (fun (_, t) -> t == q) templates) in
  let report = Core.Safety.analyse (List.map snd templates) in
  (match report.Core.Safety.unsupplied with
  | [] -> ()
  | (q, atom) :: _ ->
    Alcotest.failf "unsupplied constraint in %s: %s" (name q)
      (Core.Atom.to_string atom));
  check bool "deployable" true (report.Core.Safety.unsupplied = []);
  check bool "solo self-sufficient" true
    (not
       (List.exists
          (fun (c, _) -> name c = "solo_booking")
          report.Core.Safety.edges));
  (* seats and flights coordinate in separate groups from hotels? no —
     flight, trip and solo all touch FlightRes, so they form one component,
     seats another *)
  let groups = List.map List.length report.Core.Safety.components in
  (* {pair*, trip*} via FlightRes, {seat*} via SeatRes, and the isolated
     self-sufficient {solo_booking} *)
  check int "three interaction components" 3 (List.length groups)

let suite =
  [
    Alcotest.test_case "social basics" `Quick test_social_basics;
    Alcotest.test_case "social clique/ring" `Quick test_social_clique_and_ring;
    Alcotest.test_case "social generate deterministic" `Quick
      test_social_generate_deterministic;
    Alcotest.test_case "datagen counts" `Quick test_datagen_counts;
    Alcotest.test_case "E2 pair flight" `Quick test_pair_flight_coordination;
    Alcotest.test_case "E3 pair flight+hotel" `Quick test_pair_flight_hotel;
    Alcotest.test_case "E5 group flight" `Quick test_group_flight;
    Alcotest.test_case "E6 group flight+hotel" `Quick test_group_flight_hotel;
    Alcotest.test_case "E7 ad-hoc coordination" `Quick test_adhoc;
    Alcotest.test_case "adjacent seats" `Quick test_adjacent_seats;
    Alcotest.test_case "browse + direct booking" `Quick test_browse_and_direct_booking;
    Alcotest.test_case "capacity blocks group" `Quick test_capacity_blocks_group;
    Alcotest.test_case "account view" `Quick test_account_view;
    Alcotest.test_case "baseline no contention" `Quick test_baseline_no_contention;
    Alcotest.test_case "baseline contention" `Quick test_baseline_contention_costs;
    Alcotest.test_case "workload pairs match" `Quick test_workload_pairs_all_match;
    Alcotest.test_case "workload noise pending" `Quick test_workload_noise_stays_pending;
    Alcotest.test_case "app templates deployable" `Quick test_app_templates_deployable;
    Alcotest.test_case "hotel-only coordination" `Quick test_hotel_only_coordination;
    Alcotest.test_case "day/price constraints" `Quick test_day_and_price_constraints;
    Alcotest.test_case "seat row of three" `Quick test_seat_row_of_three;
    Alcotest.test_case "side-effect failure rolls back" `Quick
      test_side_effect_failure_rolls_back;
  ]
