(** The travel web site's middle tier (application #1 of the demo).

    Translates UI-level requests ("book a flight with these friends",
    "…and a hotel too", "adjacent seats") into entangled SQL, submits them
    through the owner's session, and reads back notifications — exactly the
    role of the application logic in the paper's three-tier architecture.
    Facebook is replaced by {!Social}; Facebook messages by session
    mailboxes. *)

open Relational

type t = {
  sys : Youtopia.System.t;
  social : Social.t;
  mutable sessions : (string * Youtopia.Session.t) list;
  mu : Mutex.t;
}

let create ?config ?(social = Social.create ()) ~seed ~n_flights ~n_hotels () =
  let sys = Datagen.make_system ?config ~seed ~n_flights ~n_hotels () in
  { sys; social; sessions = []; mu = Mutex.create () }

let system t = t.sys
let social t = t.social

let session t user =
  Mutex.lock t.mu;
  let s =
    match List.assoc_opt user t.sessions with
    | Some s -> s
    | None ->
      let s = Youtopia.System.session t.sys user in
      t.sessions <- (user, s) :: t.sessions;
      s
  in
  Mutex.unlock t.mu;
  s

(** Notifications waiting for [user] (the "Facebook messages"). *)
let inbox t user = Youtopia.Session.drain (session t user)

let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

(* ------------------------------------------------------------------ *)
(* Search (plain SQL through the execution engine). *)

let rows_of = function
  | Youtopia.System.Sql (Sql.Run.Rows (_, rows)) -> rows
  | _ -> Errors.internalf "expected rows"

(** [search_flights t user ~dest ?day ?max_price ()] — the browse path. *)
let search_flights t user ~dest ?day ?max_price () =
  let conditions =
    [ Printf.sprintf "dest = %s" (quote dest); "seats >= 1" ]
    @ (match day with Some d -> [ Printf.sprintf "day = %d" d ] | None -> [])
    @
    match max_price with
    | Some p -> [ Printf.sprintf "price <= %g" p ]
    | None -> []
  in
  let sql =
    Printf.sprintf
      "SELECT fno, dest, day, price, seats FROM Flights WHERE %s ORDER BY price"
      (String.concat " AND " conditions)
  in
  rows_of (Youtopia.System.exec_sql t.sys (session t user) sql)

let search_hotels t user ~city ?max_price () =
  let conditions =
    [ Printf.sprintf "city = %s" (quote city); "rooms >= 1" ]
    @
    match max_price with
    | Some p -> [ Printf.sprintf "price <= %g" p ]
    | None -> []
  in
  let sql =
    Printf.sprintf
      "SELECT hid, city, day, price, rooms FROM Hotels WHERE %s ORDER BY price"
      (String.concat " AND " conditions)
  in
  rows_of (Youtopia.System.exec_sql t.sys (session t user) sql)

(** [friends_flight_bookings t user] — Figure 4's view: which flights have
    the user's friends already booked? *)
let friends_flight_bookings t user =
  let friends = Social.friends_of t.social user in
  List.concat_map
    (fun friend ->
      let sql =
        Printf.sprintf "SELECT who, fno FROM FlightBookings WHERE who = %s"
          (quote friend)
      in
      rows_of (Youtopia.System.exec_sql t.sys (session t user) sql)
      |> List.map (fun row -> friend, Value.as_int row.(1)))
    friends

(* ------------------------------------------------------------------ *)
(* Direct (non-coordinated) booking: plain transaction with capacity check. *)

let book_flight_direct t user ~fno =
  let db = Youtopia.System.database t.sys in
  let flights = Database.find_table db "Flights" in
  let bookings = Database.find_table db "FlightBookings" in
  let booked =
    Database.with_txn db (fun txn ->
        match Table.lookup_pk flights [| Value.Int fno |] with
        | None -> false
        | Some row_id ->
          let row = Table.get_exn flights row_id in
          if Value.as_int row.(5) < 1 then false
          else begin
            let updated = Array.copy row in
            updated.(5) <- Value.Int (Value.as_int row.(5) - 1);
            ignore (Txn.update txn flights row_id updated);
            ignore (Txn.insert txn bookings [| Value.Str user; Value.Int fno |]);
            true
          end)
  in
  (* a consumed seat or a new booking can unblock pending coordinations *)
  if booked then ignore (Youtopia.System.poke t.sys);
  booked

(* ------------------------------------------------------------------ *)
(* Coordinated requests (entangled queries). *)

let flight_conditions ~dest ?day ?max_price ~group_size () =
  [
    Printf.sprintf "dest = %s" (quote dest);
    Printf.sprintf "seats >= %d" group_size;
  ]
  @ (match day with Some d -> [ Printf.sprintf "day = %d" d ] | None -> [])
  @
  match max_price with
  | Some p -> [ Printf.sprintf "price <= %g" p ]
  | None -> []

let booking_side_effects user =
  [
    Core.Equery.Sf_insert
      ("FlightBookings", [| Core.Term.Const (Value.Str user); Core.Term.Var "fno" |]);
    Core.Equery.Sf_decrement
      { table = "Flights"; column = "seats"; where_eq = [ "fno", Core.Term.Var "fno" ] };
  ]

(** [coordinate_flight t user ~friends ~dest ?day ?max_price ()] — "book a
    flight with my friends": the user's contribution is conditional on every
    friend receiving the same flight number.  On fulfilment, a booking row
    is written and a seat consumed, atomically with the whole group. *)
let coordinate_flight t user ~friends ~dest ?day ?max_price () =
  let group_size = 1 + List.length friends in
  let sub =
    Printf.sprintf "SELECT fno FROM Flights WHERE %s"
      (String.concat " AND "
         (flight_conditions ~dest ?day ?max_price ~group_size ()))
  in
  let constraints =
    List.map
      (fun f -> Printf.sprintf "(%s, fno) IN ANSWER FlightRes" (quote f))
      friends
  in
  let sql =
    Printf.sprintf
      "SELECT %s, fno INTO ANSWER FlightRes WHERE %s CHOOSE 1" (quote user)
      (String.concat " AND " (Printf.sprintf "fno IN (%s)" sub :: constraints))
  in
  let q =
    Core.Translate.of_sql
      (Youtopia.System.catalog t.sys)
      ~owner:user
      ~side_effects:(booking_side_effects user)
      sql
  in
  Youtopia.System.submit_equery t.sys (session t user) q

(** [coordinate_flight_hotel t user ~friends ~dest …] — one entangled query
    with two heads: flight and hotel must both coordinate with every friend
    (the paper's "book a flight and a hotel with a friend"). *)
let coordinate_flight_hotel t user ~friends ~dest ?day ?max_flight_price
    ?max_hotel_price () =
  let group_size = 1 + List.length friends in
  let fsub =
    Printf.sprintf "SELECT fno FROM Flights WHERE %s"
      (String.concat " AND "
         (flight_conditions ~dest ?day ?max_price:max_flight_price ~group_size ()))
  in
  let hconds =
    [
      Printf.sprintf "city = %s" (quote dest);
      Printf.sprintf "rooms >= %d" group_size;
    ]
    @
    match max_hotel_price with
    | Some p -> [ Printf.sprintf "price <= %g" p ]
    | None -> []
  in
  let hsub =
    Printf.sprintf "SELECT hid FROM Hotels WHERE %s" (String.concat " AND " hconds)
  in
  let constraints =
    List.concat_map
      (fun f ->
        [
          Printf.sprintf "(%s, fno) IN ANSWER FlightRes" (quote f);
          Printf.sprintf "(%s, hid) IN ANSWER HotelRes" (quote f);
        ])
      friends
  in
  let sql =
    Printf.sprintf
      "SELECT (%s, fno) INTO ANSWER FlightRes, (%s, hid) INTO ANSWER HotelRes \
       WHERE %s CHOOSE 1"
      (quote user) (quote user)
      (String.concat " AND "
         ([ Printf.sprintf "fno IN (%s)" fsub; Printf.sprintf "hid IN (%s)" hsub ]
         @ constraints))
  in
  let side_effects =
    booking_side_effects user
    @ [
        Core.Equery.Sf_insert
          ( "HotelBookings",
            [| Core.Term.Const (Value.Str user); Core.Term.Var "hid" |] );
        Core.Equery.Sf_decrement
          {
            table = "Hotels";
            column = "rooms";
            where_eq = [ "hid", Core.Term.Var "hid" ];
          };
      ]
  in
  let q =
    Core.Translate.of_sql
      (Youtopia.System.catalog t.sys)
      ~owner:user ~side_effects sql
  in
  Youtopia.System.submit_equery t.sys (session t user) q

(** [coordinate_hotel t user ~friends ~city …] — hotel-only coordination:
    everyone in the same hotel, no flight involved (used by the ad-hoc
    scenarios). *)
let coordinate_hotel t user ~friends ~city ?max_price () =
  let group_size = 1 + List.length friends in
  let conds =
    [
      Printf.sprintf "city = %s" (quote city);
      Printf.sprintf "rooms >= %d" group_size;
    ]
    @
    match max_price with
    | Some p -> [ Printf.sprintf "price <= %g" p ]
    | None -> []
  in
  let sub =
    Printf.sprintf "SELECT hid FROM Hotels WHERE %s" (String.concat " AND " conds)
  in
  let constraints =
    List.map
      (fun f -> Printf.sprintf "(%s, hid) IN ANSWER HotelRes" (quote f))
      friends
  in
  let sql =
    Printf.sprintf "SELECT %s, hid INTO ANSWER HotelRes WHERE %s CHOOSE 1"
      (quote user)
      (String.concat " AND " (Printf.sprintf "hid IN (%s)" sub :: constraints))
  in
  let side_effects =
    [
      Core.Equery.Sf_insert
        ( "HotelBookings",
          [| Core.Term.Const (Value.Str user); Core.Term.Var "hid" |] );
      Core.Equery.Sf_decrement
        { table = "Hotels"; column = "rooms"; where_eq = [ "hid", Core.Term.Var "hid" ] };
    ]
  in
  let q =
    Core.Translate.of_sql
      (Youtopia.System.catalog t.sys)
      ~owner:user ~side_effects sql
  in
  Youtopia.System.submit_equery t.sys (session t user) q

(** [coordinate_adjacent_seat t user ~friend ~dest …] — "fly in a seat
    adjacent to my friend": a pairwise coordination over the seat map.  The
    caller's seat is pinned to the friend's seat plus one (one side of the
    pair carries the adjacency arithmetic). *)
let coordinate_adjacent_seat t user ~friend ~dest ?day () =
  let day_cond =
    match day with Some d -> Printf.sprintf " AND f.day = %d" d | None -> ""
  in
  let sub =
    Printf.sprintf
      "SELECT s.fno, s.seat FROM Seats s JOIN Flights f ON s.fno = f.fno \
       WHERE f.dest = %s AND s.taken = 0%s"
      (quote dest) day_cond
  in
  let sql =
    Printf.sprintf
      "SELECT %s, fno, seat INTO ANSWER SeatRes WHERE (fno, seat) IN (%s) \
       AND (%s, fno, fseat) IN ANSWER SeatRes AND seat = fseat + 1 CHOOSE 1"
      (quote user) sub (quote friend)
  in
  let side_effects =
    [
      Core.Equery.Sf_update
        {
          table = "Seats";
          set = [ "taken", Core.Term.T (Core.Term.Const (Value.Int 1)) ];
          where_eq =
            [ "fno", Core.Term.Var "fno"; "seat", Core.Term.Var "seat" ];
        };
      Core.Equery.Sf_insert
        ("FlightBookings", [| Core.Term.Const (Value.Str user); Core.Term.Var "fno" |]);
    ]
  in
  let q =
    Core.Translate.of_sql
      (Youtopia.System.catalog t.sys)
      ~owner:user ~side_effects sql
  in
  Youtopia.System.submit_equery t.sys (session t user) q

(** The partner side of an adjacent-seat request: any free seat on a
    matching flight, entangled with the initiator's seat choice. *)
let coordinate_any_seat t user ~friend ~dest ?day () =
  let day_cond =
    match day with Some d -> Printf.sprintf " AND f.day = %d" d | None -> ""
  in
  let sub =
    Printf.sprintf
      "SELECT s.fno, s.seat FROM Seats s JOIN Flights f ON s.fno = f.fno \
       WHERE f.dest = %s AND s.taken = 0%s"
      (quote dest) day_cond
  in
  let sql =
    Printf.sprintf
      "SELECT %s, fno, seat INTO ANSWER SeatRes WHERE (fno, seat) IN (%s) \
       AND (%s, fno, fseat) IN ANSWER SeatRes CHOOSE 1"
      (quote user) sub (quote friend)
  in
  let side_effects =
    [
      Core.Equery.Sf_update
        {
          table = "Seats";
          set = [ "taken", Core.Term.T (Core.Term.Const (Value.Int 1)) ];
          where_eq =
            [ "fno", Core.Term.Var "fno"; "seat", Core.Term.Var "seat" ];
        };
      Core.Equery.Sf_insert
        ("FlightBookings", [| Core.Term.Const (Value.Str user); Core.Term.Var "fno" |]);
    ]
  in
  let q =
    Core.Translate.of_sql
      (Youtopia.System.catalog t.sys)
      ~owner:user ~side_effects sql
  in
  Youtopia.System.submit_equery t.sys (session t user) q

(* ------------------------------------------------------------------ *)
(* Workload templates: the query shapes this middle tier submits, for
   deploy-time analysis ({!Core.Safety.analyse}). *)

(** [templates t] — the application's query templates, named.  The
    analysis proves the workload is deployable: every constraint a request
    can emit has a potential supplier among the other request shapes. *)
let templates t =
  let cat = Youtopia.System.catalog t.sys in
  let pair_sql me friend =
    Printf.sprintf
      "SELECT '%s', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM        Flights WHERE dest = 'Paris') AND ('%s', fno) IN ANSWER FlightRes        CHOOSE 1"
      me friend
  in
  [
    ( "pair_flight_initiator",
      Core.Translate.of_sql cat ~owner:"I" (pair_sql "I" "P"));
    ( "pair_flight_partner",
      Core.Translate.of_sql cat ~owner:"P" (pair_sql "P" "I"));
    ( "trip_initiator",
      Core.Translate.of_sql cat ~owner:"I"
      "SELECT ('I', fno) INTO ANSWER FlightRes, ('I', hid) INTO ANSWER         HotelRes WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')         AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') AND ('P',         fno) IN ANSWER FlightRes AND ('P', hid) IN ANSWER HotelRes CHOOSE 1");
    ( "trip_partner",
      Core.Translate.of_sql cat ~owner:"P"
      "SELECT ('P', fno) INTO ANSWER FlightRes, ('P', hid) INTO ANSWER         HotelRes WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')         AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') AND ('I',         fno) IN ANSWER FlightRes AND ('I', hid) IN ANSWER HotelRes CHOOSE 1");
    ( "seat_initiator",
      Core.Translate.of_sql cat ~owner:"I"
      "SELECT 'I', fno, seat INTO ANSWER SeatRes WHERE (fno, seat) IN         (SELECT s.fno, s.seat FROM Seats s WHERE s.taken = 0) AND ('P', fno,         fseat) IN ANSWER SeatRes AND seat = fseat + 1 CHOOSE 1");
    ( "seat_partner",
      Core.Translate.of_sql cat ~owner:"P"
      "SELECT 'P', fno, seat INTO ANSWER SeatRes WHERE (fno, seat) IN         (SELECT s.fno, s.seat FROM Seats s WHERE s.taken = 0) AND ('I', fno,         fseat) IN ANSWER SeatRes CHOOSE 1");
    ( "solo_booking",
      Core.Translate.of_sql cat ~owner:"S"
      "SELECT 'S', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM         Flights WHERE dest = 'Paris') CHOOSE 1")
  ]

(* ------------------------------------------------------------------ *)
(* Account view. *)

(** [account_view t user] — pending requests plus confirmed bookings, the
    demo's "account view". *)
let account_view t user =
  let coordinator = Youtopia.System.coordinator t.sys in
  let pending =
    Core.Pending.to_list (Core.Coordinator.pending coordinator)
    |> List.filter (fun (q : Core.Equery.t) -> q.Core.Equery.owner = user)
  in
  let bookings =
    let sql =
      Printf.sprintf "SELECT who, fno FROM FlightBookings WHERE who = %s"
        (quote user)
    in
    rows_of (Youtopia.System.exec_sql t.sys (session t user) sql)
    |> List.map (fun row -> Printf.sprintf "flight %d" (Value.as_int row.(1)))
  in
  let hotel_bookings =
    let sql =
      Printf.sprintf "SELECT who, hid FROM HotelBookings WHERE who = %s"
        (quote user)
    in
    rows_of (Youtopia.System.exec_sql t.sys (session t user) sql)
    |> List.map (fun row -> Printf.sprintf "hotel %d" (Value.as_int row.(1)))
  in
  Fmt.str "@[<v>account of %s:@,pending requests: %d%a@,confirmed: %s@]" user
    (List.length pending)
    Fmt.(
      list ~sep:(any "") (fun ppf (q : Core.Equery.t) ->
          Fmt.pf ppf "@,  Q%d: %s" q.Core.Equery.id
            (if q.Core.Equery.label = "" then "(api request)"
             else q.Core.Equery.label)))
    pending
    (match bookings @ hotel_bookings with
    | [] -> "none"
    | confirmed -> String.concat ", " confirmed)
