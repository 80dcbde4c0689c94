(* Tests for the entangled-query core: unification, safety, pending store,
   grounding, and the matcher/coordinator on the paper's scenarios. *)

open Relational
open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let v_int i = Value.Int i
let v_str s = Value.Str s

(* ---------------- Subst / unification ---------------- *)

(* the constant [x] is bound to (transitively), if any *)
let value_of s x =
  match Subst.walk s (Term.Var x) with
  | Term.Const v -> Some v
  | Term.Var _ -> None

let test_unify_basics () =
  let s = Subst.empty in
  (* var against const *)
  let s1 = Option.get (Subst.unify s (Term.Var "x") (Term.Const (v_int 1))) in
  check bool "x bound" true (value_of s1 "x" = Some (v_int 1));
  (* conflicting constants fail *)
  check bool "conflict" true
    (Subst.unify s1 (Term.Var "x") (Term.Const (v_int 2)) = None);
  (* var-var chains resolve *)
  let s2 = Option.get (Subst.unify s (Term.Var "x") (Term.Var "y")) in
  let s3 = Option.get (Subst.unify s2 (Term.Var "y") (Term.Const (v_str "a"))) in
  check bool "chain x" true (value_of s3 "x" = Some (v_str "a"));
  check bool "chain y" true (value_of s3 "y" = Some (v_str "a"))

let test_unify_atoms () =
  let a = Atom.make "R" [ Term.Const (v_str "Jerry"); Term.Var "f" ] in
  let b = Atom.make "r" [ Term.Var "n"; Term.Const (v_int 122) ] in
  (match Subst.unify_atoms Subst.empty a b with
  | Some s ->
    check bool "n" true (value_of s "n" = Some (v_str "Jerry"));
    check bool "f" true (value_of s "f" = Some (v_int 122))
  | None -> Alcotest.fail "atoms should unify (case-insensitive rel)");
  (* arity mismatch *)
  let c = Atom.make "R" [ Term.Var "x" ] in
  check bool "arity mismatch" true (Subst.unify_atoms Subst.empty a c = None);
  (* different relation *)
  let d = Atom.make "S" [ Term.Var "x"; Term.Var "y" ] in
  check bool "rel mismatch" true (Subst.unify_atoms Subst.empty a d = None)

let test_check_pred () =
  let s =
    Option.get (Subst.unify Subst.empty (Term.Var "a") (Term.Const (v_int 5)))
  in
  let p op rhs = { Term.op; lhs = Term.T (Term.Var "a"); rhs } in
  check bool "5 < 6" true
    (Subst.check_pred s (p Term.Clt (Term.T (Term.Const (v_int 6)))) = Subst.True);
  check bool "5 > 6 false" true
    (Subst.check_pred s (p Term.Cgt (Term.T (Term.Const (v_int 6)))) = Subst.False);
  check bool "unbound unknown" true
    (Subst.check_pred s (p Term.Ceq (Term.T (Term.Var "b"))) = Subst.Unknown);
  (* arithmetic: a = b + 1 with b = 4 *)
  let s2 =
    Option.get (Subst.unify s (Term.Var "b") (Term.Const (v_int 4)))
  in
  check bool "a = b + 1" true
    (Subst.check_pred s2
       (p Term.Ceq (Term.Add (Term.T (Term.Var "b"), Term.T (Term.Const (v_int 1)))))
    = Subst.True)

(* Property: unification is symmetric in success. *)
let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.Const (Value.Int i)) (int_bound 3);
        map (fun i -> Term.Var (Printf.sprintf "v%d" i)) (int_bound 3);
      ])

let prop_unify_symmetric =
  QCheck.Test.make ~name:"unify symmetric" ~count:300
    (QCheck.make QCheck.Gen.(pair term_gen term_gen))
    (fun (a, b) ->
      (Subst.unify Subst.empty a b = None)
      = (Subst.unify Subst.empty b a = None))

let prop_unify_idempotent =
  QCheck.Test.make ~name:"unify result satisfies equation" ~count:300
    (QCheck.make QCheck.Gen.(pair term_gen term_gen))
    (fun (a, b) ->
      match Subst.unify Subst.empty a b with
      | None -> true
      | Some s -> Term.equal (Subst.walk s a) (Subst.walk s b))

(* Unification laws over chains of distinct variables [v0 … vk]. *)
let chain_gen =
  QCheck.Gen.(
    map3
      (fun k c flips ->
        let vars = List.init (k + 2) (fun i -> Term.Var (Printf.sprintf "c%d" i)) in
        vars, Term.Const (Value.Int c), flips)
      (int_bound 5) (int_bound 3) (list_repeat 8 bool))

(* [v0 = v1, …, v(k-1) = vk] in random orientations *)
let unify_chain vars flips =
  let rec links s vars flips =
    match vars, flips with
    | a :: (b :: _ as rest), flip :: flips ->
      let s = Option.get (if flip then Subst.unify s a b else Subst.unify s b a) in
      links s rest flips
    | _ -> s
  in
  links Subst.empty vars flips

let prop_unify_transitive =
  QCheck.Test.make ~name:"unify transitive through variable chains" ~count:300
    (QCheck.make chain_gen)
    (fun (vars, c, flips) ->
      let s = unify_chain vars flips in
      let last = List.nth vars (List.length vars - 1) in
      match Subst.unify s last c with
      | None -> false
      | Some s -> List.for_all (fun v -> Term.equal (Subst.walk s v) c) vars)

let prop_unify_contradiction =
  QCheck.Test.make ~name:"unify detects contradictions" ~count:300
    (QCheck.make chain_gen)
    (fun (vars, c, flips) ->
      let s = unify_chain vars flips in
      let first = List.hd vars and last = List.nth vars (List.length vars - 1) in
      let other = Term.Const (Value.Str "other") in
      match Subst.unify s last c with
      | None -> false
      | Some s -> Subst.unify s first other = None && Subst.unify s other first = None)

let prop_unify_self =
  QCheck.Test.make ~name:"unify x = x leaves the substitution unchanged" ~count:300
    (QCheck.make QCheck.Gen.(pair chain_gen (int_bound 7)))
    (fun ((vars, c, flips), i) ->
      let s = unify_chain vars flips in
      let s = if i mod 2 = 0 then s else Option.get (Subst.unify s (List.hd vars) c) in
      let x = Term.Var (Printf.sprintf "c%d" i) in
      match Subst.unify s x x with
      | None -> false
      | Some s' -> s' == s)

(* ---------------- shared fixture ---------------- *)

(* Figure 1(a) database plus the Reservation answer relation. *)
let make_system ?(config = Coordinator.default_config) () =
  let db = Database.create () in
  let flights =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Flights"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  List.iter
    (fun (f, d) -> ignore (Table.insert flights [| v_int f; v_str d |]))
    [ 122, "Paris"; 123, "Paris"; 134, "Paris"; 136, "Rome" ];
  let coord = Coordinator.create ~config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Reservation"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord

let cat_of db = db.Database.catalog

let paper_query cat name friend =
  Translate.of_sql cat ~owner:name
    (Printf.sprintf
       "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
        FROM Flights WHERE dest='Paris') AND ('%s', fno) IN ANSWER \
        Reservation CHOOSE 1"
       name friend)

(* ---------------- safety ---------------- *)

let test_safety_accepts_paper_query () =
  let db, coord = make_system () in
  let q = paper_query (cat_of db) "Kramer" "Jerry" in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Safe -> ()
  | Safety.Unsafe m -> Alcotest.failf "rejected: %s" m

let test_safety_rejects_undeclared_relation () =
  let db, coord = make_system () in
  let q =
    Translate.of_sql (cat_of db) ~owner:"x"
      "SELECT 'x', 1 INTO ANSWER Nope CHOOSE 1"
  in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Unsafe _ -> ()
  | Safety.Safe -> Alcotest.fail "undeclared relation accepted"

let test_safety_rejects_arity_mismatch () =
  let db, coord = make_system () in
  let q =
    Translate.of_sql (cat_of db) ~owner:"x"
      "SELECT 'x', 1, 2 INTO ANSWER Reservation CHOOSE 1"
  in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Unsafe _ -> ()
  | Safety.Safe -> Alcotest.fail "arity mismatch accepted"

let test_safety_rejects_type_mismatch () =
  let db, coord = make_system () in
  (* fno column is INT; 'not_a_number' is TEXT *)
  let q =
    Translate.of_sql (cat_of db) ~owner:"x"
      "SELECT 'x', 'not_a_number' INTO ANSWER Reservation CHOOSE 1"
  in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Unsafe _ -> ()
  | Safety.Safe -> Alcotest.fail "type mismatch accepted"

let test_safety_rejects_unrestricted_variable () =
  let db, coord = make_system () in
  (* fno appears nowhere but the head: unbounded *)
  let q =
    Translate.of_sql (cat_of db) ~owner:"x"
      "SELECT 'x', fno INTO ANSWER Reservation CHOOSE 1"
  in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Unsafe m ->
    check bool "mentions the variable" true
      (let contains h n =
         let lh = String.length h and ln = String.length n in
         let rec go i = i + ln <= lh && (String.sub h i ln = n || go (i + 1)) in
         go 0
       in
       contains m "fno")
  | Safety.Safe -> Alcotest.fail "unrestricted variable accepted"

let test_safety_accepts_var_bound_by_answer_atom () =
  let db, coord = make_system () in
  (* "give me whatever flight Jerry picked" — fno bound via the constraint *)
  let q =
    Translate.of_sql (cat_of db) ~owner:"x"
      "SELECT 'Elaine', fno INTO ANSWER Reservation WHERE ('Jerry', fno) IN \
       ANSWER Reservation CHOOSE 1"
  in
  match Safety.check (Coordinator.answers coord) q with
  | Safety.Safe -> ()
  | Safety.Unsafe m -> Alcotest.failf "rejected: %s" m

let test_check_matchable () =
  let db, _coord = make_system () in
  let cat = cat_of db in
  let k = paper_query cat "Kramer" "Jerry" in
  let j = paper_query cat "Jerry" "Kramer" in
  check int "workload matchable" 0
    (List.length (Safety.analyse [ k; j ]).Safety.unsupplied);
  (* Kramer alone: his constraint needs a ('Jerry', _) head nobody offers *)
  check int "kramer alone unmatchable" 1
    (List.length (Safety.analyse [ k ]).Safety.unsupplied)

(* ---------------- pending store ---------------- *)

let test_pending_index_candidates () =
  let db, _ = make_system () in
  let cat = cat_of db in
  let store = Pending.create () in
  let k = Equery.freshen ~id:1 (paper_query cat "Kramer" "Jerry") in
  let e = Equery.freshen ~id:2 (paper_query cat "Elaine" "George") in
  Pending.add store k;
  Pending.add store e;
  check int "size" 2 (Pending.size store);
  (* Jerry's constraint ('Kramer', fno) should select only Kramer's query *)
  let atom = Atom.make "Reservation" [ Term.Const (v_str "Kramer"); Term.Var "f" ] in
  let cands = Pending.candidates store Subst.empty atom in
  check int "one candidate" 1 (List.length cands);
  check int "it is kramer's" 1 (List.hd cands).Equery.id;
  (* an unconstrained atom matches both *)
  let atom2 = Atom.make "Reservation" [ Term.Var "n"; Term.Var "f" ] in
  check int "both candidates" 2
    (List.length (Pending.candidates store Subst.empty atom2));
  Pending.remove store 1;
  check int "removed" 0 (List.length (Pending.candidates store Subst.empty atom))

(* ---------------- grounding ---------------- *)

let test_ground_enumerates_paris_flights () =
  let db, _ = make_system () in
  let cat = cat_of db in
  let q = paper_query cat "Kramer" "Jerry" in
  let stats = Stats.create () in
  let results = ref [] in
  Ground.enumerate cat stats q Subst.empty (fun s ->
      results := Option.get (value_of s "fno") :: !results);
  check bool "three choices" true
    (List.sort Value.compare !results = [ v_int 122; v_int 123; v_int 134 ])

let test_ground_respects_prior_bindings () =
  let db, _ = make_system () in
  let cat = cat_of db in
  let q = paper_query cat "Kramer" "Jerry" in
  let stats = Stats.create () in
  let s0 =
    Option.get (Subst.unify Subst.empty (Term.Var "fno") (Term.Const (v_int 123)))
  in
  let count = ref 0 in
  Ground.enumerate cat stats q s0 (fun _ -> incr count);
  check int "only the bound flight" 1 !count;
  (* binding to a non-Paris flight yields nothing *)
  let s1 =
    Option.get (Subst.unify Subst.empty (Term.Var "fno") (Term.Const (v_int 136)))
  in
  let count = ref 0 in
  Ground.enumerate cat stats q s1 (fun _ -> incr count);
  check int "rome filtered out" 0 !count

(* ---------------- the paper's Figure 1 scenario ---------------- *)

let test_fig1_mutual_match () =
  let db, coord = make_system () in
  let cat = cat_of db in
  (* Kramer submits first: must wait. *)
  (match Coordinator.submit coord (paper_query cat "Kramer" "Jerry") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "Kramer should be pending");
  check int "one pending" 1 (Pending.size (Coordinator.pending coord));
  (* Jerry submits the symmetric query: both answered together. *)
  (match Coordinator.submit coord (paper_query cat "Jerry" "Kramer") with
  | Coordinator.Answered n ->
    check int "jerry gets one tuple" 1 (List.length n.Events.answers);
    let _, row = List.hd n.Events.answers in
    check bool "jerry named" true (Value.equal row.(0) (v_str "Jerry"));
    (* the chosen flight is one of the Paris flights *)
    check bool "paris flight" true
      (List.exists (fun f -> Value.equal row.(1) (v_int f)) [ 122; 123; 134 ]);
    check int "group of two" 2 (List.length n.Events.group)
  | Coordinator.Registered _ -> Alcotest.fail "Jerry should be answered"
  | Coordinator.Rejected m -> Alcotest.failf "rejected: %s" m
  | Coordinator.Multi _ -> Alcotest.fail "unexpected multi");
  check int "pending drained" 0 (Pending.size (Coordinator.pending coord));
  (* both tuples in the answer relation, same flight *)
  let reservation = Database.find_table db "Reservation" in
  check int "two reservations" 2 (Table.row_count reservation);
  let rows = Table.rows reservation in
  let fnos = List.map (fun r -> r.(1)) rows in
  check bool "same flight" true
    (match fnos with [ a; b ] -> Value.equal a b | _ -> false)

let test_mismatched_destinations_stay_pending () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let rome name friend =
    Translate.of_sql cat ~owner:name
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
          FROM Flights WHERE dest='Rome') AND ('%s', fno) IN ANSWER \
          Reservation CHOOSE 1"
         name friend)
  in
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  (* Jerry wants Rome; Kramer wants Paris: no common flight *)
  (match Coordinator.submit coord (rome "Jerry" "Kramer") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "incompatible queries must stay pending");
  check int "both pending" 2 (Pending.size (Coordinator.pending coord))

let test_self_satisfiable_query () =
  let db, coord = make_system () in
  let cat = cat_of db in
  (* no answer constraint: behaves like a plain CHOOSE 1 query *)
  let q =
    Translate.of_sql cat ~owner:"Solo"
      "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Rome') CHOOSE 1"
  in
  match Coordinator.submit coord q with
  | Coordinator.Answered n ->
    let _, row = List.hd n.Events.answers in
    check bool "rome flight" true (Value.equal row.(1) (v_int 136))
  | _ -> Alcotest.fail "self-satisfiable query should answer immediately"

let test_existing_answer_satisfies_late_query () =
  let db, coord = make_system () in
  let cat = cat_of db in
  (* Jerry books directly (self-satisfiable). *)
  ignore
    (Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Jerry"
          "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Paris') AND fno = 123 CHOOSE 1"));
  (* Kramer arrives later; his constraint is satisfied by the committed
     answer tuple. *)
  match Coordinator.submit coord (paper_query cat "Kramer" "Jerry") with
  | Coordinator.Answered n ->
    let _, row = List.hd n.Events.answers in
    check bool "kramer on 123" true (Value.equal row.(1) (v_int 123))
  | _ -> Alcotest.fail "late query should match the existing answer"

let test_eq_binding_pins_choice () =
  let db, coord = make_system () in
  let cat = cat_of db in
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  (* Jerry insists on flight 134 *)
  let jerry =
    Translate.of_sql cat ~owner:"Jerry"
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') AND ('Kramer', fno) IN ANSWER \
       Reservation AND fno = 134 CHOOSE 1"
  in
  match Coordinator.submit coord jerry with
  | Coordinator.Answered n ->
    let _, row = List.hd n.Events.answers in
    check bool "flight 134 chosen" true (Value.equal row.(1) (v_int 134))
  | _ -> Alcotest.fail "pinned coordination should match"

let test_group_of_four () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let friends = [ "A"; "B"; "C"; "D" ] in
  (* ring constraints: A needs B, B needs C, C needs D, D needs A *)
  let next = function "A" -> "B" | "B" -> "C" | "C" -> "D" | _ -> "A" in
  let rec submit_all = function
    | [] -> Alcotest.fail "nobody matched"
    | [ last ] -> (
      match Coordinator.submit coord (paper_query cat last (next last)) with
      | Coordinator.Answered n ->
        check int "group of 4" 4 (List.length n.Events.group)
      | _ -> Alcotest.fail "last arrival should close the ring")
    | name :: rest ->
      (match Coordinator.submit coord (paper_query cat name (next name)) with
      | Coordinator.Registered _ -> ()
      | _ -> Alcotest.fail "early arrivals must wait");
      submit_all rest
  in
  submit_all friends;
  let reservation = Database.find_table db "Reservation" in
  check int "four reservations" 4 (Table.row_count reservation);
  let fnos =
    Table.rows reservation |> List.map (fun r -> r.(1)) |> List.sort_uniq Value.compare
  in
  check int "all on the same flight" 1 (List.length fnos)

let test_multi_head_flight_and_hotel () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let hotels =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Hotels"
         [ Schema.column "hid" Ctype.TInt; Schema.column "city" Ctype.TText ])
  in
  List.iter
    (fun (h, c) -> ignore (Table.insert hotels [| v_int h; v_str c |]))
    [ 1, "Paris"; 2, "Paris"; 3, "Rome" ];
  Coordinator.declare_answer_relation coord
    (Schema.make "HotelRes"
       [ Schema.column "name" Ctype.TText; Schema.column "hid" Ctype.TInt ]);
  let request name friend =
    Translate.of_sql cat ~owner:name
      (Printf.sprintf
         "SELECT ('%s', fno) INTO ANSWER Reservation, ('%s', hid) INTO ANSWER \
          HotelRes WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
          AND hid IN (SELECT hid FROM Hotels WHERE city='Paris') AND ('%s', \
          fno) IN ANSWER Reservation AND ('%s', hid) IN ANSWER HotelRes \
          CHOOSE 1"
         name name friend friend)
  in
  (match Coordinator.submit coord (request "Jerry" "Kramer") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "jerry waits");
  (match Coordinator.submit coord (request "Kramer" "Jerry") with
  | Coordinator.Answered n ->
    check int "two contributions" 2 (List.length n.Events.answers)
  | _ -> Alcotest.fail "kramer should complete the match");
  let flight_res = Database.find_table db "Reservation" in
  let hotel_res = Database.find_table db "HotelRes" in
  check int "2 flight tuples" 2 (Table.row_count flight_res);
  check int "2 hotel tuples" 2 (Table.row_count hotel_res);
  let same_choice table =
    Table.rows table |> List.map (fun r -> r.(1)) |> List.sort_uniq Value.compare
    |> List.length
  in
  check int "same flight" 1 (same_choice flight_res);
  check int "same hotel" 1 (same_choice hotel_res)

let test_adhoc_asymmetric_coordination () =
  (* Jerry–Kramer coordinate on flights only; Kramer–Elaine on flights and
     hotels (the paper's ad-hoc example). *)
  let db, coord = make_system () in
  let cat = cat_of db in
  let hotels =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Hotels"
         [ Schema.column "hid" Ctype.TInt; Schema.column "city" Ctype.TText ])
  in
  List.iter
    (fun (h, c) -> ignore (Table.insert hotels [| v_int h; v_str c |]))
    [ 1, "Paris"; 2, "Paris" ];
  Coordinator.declare_answer_relation coord
    (Schema.make "HotelRes"
       [ Schema.column "name" Ctype.TText; Schema.column "hid" Ctype.TInt ]);
  let jerry = paper_query cat "Jerry" "Kramer" in
  let kramer =
    Translate.of_sql cat ~owner:"Kramer"
      "SELECT ('Kramer', fno) INTO ANSWER Reservation, ('Kramer', hid) INTO \
       ANSWER HotelRes WHERE fno IN (SELECT fno FROM Flights WHERE \
       dest='Paris') AND hid IN (SELECT hid FROM Hotels WHERE city='Paris') \
       AND ('Jerry', fno) IN ANSWER Reservation AND ('Elaine', hid) IN \
       ANSWER HotelRes CHOOSE 1"
  in
  let elaine =
    Translate.of_sql cat ~owner:"Elaine"
      "SELECT 'Elaine', hid INTO ANSWER HotelRes WHERE hid IN (SELECT hid \
       FROM Hotels WHERE city='Paris') AND ('Kramer', hid) IN ANSWER \
       HotelRes CHOOSE 1"
  in
  ignore (Coordinator.submit coord jerry);
  ignore (Coordinator.submit coord kramer);
  (match Coordinator.submit coord elaine with
  | Coordinator.Answered n -> check int "group of 3" 3 (List.length n.Events.group)
  | _ -> Alcotest.fail "elaine should close the match");
  check int "flight tuples" 2
    (Table.row_count (Database.find_table db "Reservation"));
  check int "hotel tuples" 2 (Table.row_count (Database.find_table db "HotelRes"))

let test_choose_k () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let q =
    Translate.of_sql cat ~owner:"Greedy"
      "SELECT 'Greedy', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') CHOOSE 2"
  in
  match Coordinator.submit coord q with
  | Coordinator.Multi outcomes ->
    check int "two instances" 2 (List.length outcomes);
    List.iter
      (function
        | Coordinator.Answered _ -> ()
        | _ -> Alcotest.fail "each instance should answer")
      outcomes
  | _ -> Alcotest.fail "CHOOSE 2 should produce two outcomes"

(* ---------------- the supplier check ---------------- *)

(* [Matcher.find] dismisses a seed with an answer constraint that nothing
   could supply, before grounding.  Each case below has exactly one kind of
   supplier, and must still be answered. *)

let unsupplied coord = (Coordinator.stats coord).Stats.unsupplied

let expect_answered what = function
  | Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail (what ^ " should be answered")

let test_supplied_by_own_head () =
  let db, coord = make_system () in
  expect_answered "a query supplying its own constraint"
    (Coordinator.submit coord
       (Translate.of_sql (cat_of db) ~owner:"Solo"
          "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Paris') AND ('Solo', fno) IN ANSWER \
           Reservation CHOOSE 1"));
  check int "not dismissed" 0 (unsupplied coord)

let test_supplied_by_answer_tuple () =
  let db, coord = make_system () in
  let cat = cat_of db in
  expect_answered "Jerry's direct booking"
    (Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Jerry"
          "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Paris') AND fno = 123 CHOOSE 1"));
  let answers = Coordinator.answers coord in
  let wants name = Atom.make "reservation" [ Term.Const (v_str name); Term.Var "f" ] in
  check bool "Jerry's tuple supplies" true (Answers.may_supply answers (wants "Jerry"));
  check bool "nobody supplies Newman" false
    (Answers.may_supply answers (wants "Newman"));
  check bool "a ground tuple through #ans_full" true
    (Answers.may_supply answers
       (Atom.make "Reservation" [ Term.Const (v_str "Jerry"); Term.Const (v_int 123) ]));
  check bool "a ground miss" false
    (Answers.may_supply answers
       (Atom.make "Reservation" [ Term.Const (v_str "Jerry"); Term.Const (v_int 122) ]));
  expect_answered "Kramer, on Jerry's tuple"
    (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  check int "not dismissed" 0 (unsupplied coord)

(* The partner case, asked of the matcher directly: dismissed without a
   single row binding while Jerry is away, answered once he arrives. *)
let test_supplied_by_pending_partner () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let stats = Coordinator.stats coord in
  let kramer = Equery.freshen ~id:1000 (paper_query cat "Kramer" "Jerry") in
  let find q =
    Matcher.find ~cat ~answers:(Coordinator.answers coord)
      ~pending:(Coordinator.pending coord) ~config:Matcher.default_config
      ~stats q
  in
  let groundings = stats.Stats.groundings in
  check bool "no match" true (find kramer = None);
  check int "no row bound" groundings stats.Stats.groundings;
  check int "dismissed once" 1 stats.Stats.unsupplied;
  (match Coordinator.submit coord (paper_query cat "Kramer" "Jerry") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "Kramer should park");
  check int "parked unsupplied" 2 stats.Stats.unsupplied;
  expect_answered "Jerry, with Kramer pending"
    (Coordinator.submit coord (paper_query cat "Jerry" "Kramer"));
  check int "Jerry was supplied" 2 stats.Stats.unsupplied;
  check int "pending drained" 0 (Pending.size (Coordinator.pending coord))

(* A constraint with no constant is supplied by any row or any head of its
   relation. *)
let test_supplied_without_constant () =
  let db, coord = make_system () in
  let cat = cat_of db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Seen"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let follower owner =
    Translate.of_sql cat ~owner
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
          FROM Flights WHERE dest='Paris') AND (who, fno) IN ANSWER Seen \
          CHOOSE 1"
         owner)
  in
  (match Coordinator.submit coord (follower "A") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "nothing supplies Seen yet");
  check int "dismissed" 1 (unsupplied coord);
  (* a pending head into Seen supplies it *)
  let watcher =
    Translate.of_sql cat ~owner:"W"
      "SELECT 'W', fno INTO ANSWER Seen WHERE fno IN (SELECT fno FROM \
       Flights WHERE dest='Rome') AND ('Nobody', fno) IN ANSWER Reservation \
       CHOOSE 1"
  in
  ignore (Coordinator.submit coord watcher);
  check int "the watcher is dismissed too" 2 (unsupplied coord);
  (match Coordinator.submit coord (follower "B") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "W's Rome flight is no Paris flight");
  check int "B was supplied by W's head" 2 (unsupplied coord);
  (* and a row: the answered spotter's tuple wakes A and B through the
     cascade *)
  expect_answered "the spotter"
    (Coordinator.submit coord
       (Translate.of_sql cat ~owner:"S"
          "SELECT 'S', fno INTO ANSWER Seen WHERE fno IN (SELECT fno FROM \
           Flights WHERE dest='Paris') AND fno = 122 CHOOSE 1"));
  check int "only W waits" 1 (Pending.size (Coordinator.pending coord))

(* CHOOSE 2 fans out into two instances: both park unsupplied, and the
   partner's two instances answer them. *)
let test_supplied_choose_2 () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let choose2 name friend =
    Translate.of_sql cat ~owner:name
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
          FROM Flights WHERE dest='Paris') AND ('%s', fno) IN ANSWER \
          Reservation CHOOSE 2"
         name friend)
  in
  let outcomes = function
    | Coordinator.Multi os ->
      List.map
        (function
          | Coordinator.Answered _ -> "answered"
          | Coordinator.Registered _ -> "registered"
          | _ -> "other")
        os
    | _ -> [ "not multi" ]
  in
  Alcotest.(check (list string)) "Kramer's instances park"
    [ "registered"; "registered" ]
    (outcomes (Coordinator.submit coord (choose2 "Kramer" "Jerry")));
  check int "both dismissed" 2 (unsupplied coord);
  Alcotest.(check (list string)) "Jerry's instances answer"
    [ "answered"; "answered" ]
    (outcomes (Coordinator.submit coord (choose2 "Jerry" "Kramer")));
  check int "Jerry's were supplied" 2 (unsupplied coord);
  check int "pending drained" 0 (Pending.size (Coordinator.pending coord))

let test_cancel () =
  let db, coord = make_system () in
  let cat = cat_of db in
  match Coordinator.submit coord (paper_query cat "Kramer" "Jerry") with
  | Coordinator.Registered id ->
    check bool "cancelled" true (Coordinator.cancel coord id);
    check bool "cancel twice" false (Coordinator.cancel coord id);
    check int "empty" 0 (Pending.size (Coordinator.pending coord));
    (* Jerry now has no partner *)
    (match Coordinator.submit coord (paper_query cat "Jerry" "Kramer") with
    | Coordinator.Registered _ -> ()
    | _ -> Alcotest.fail "jerry should wait after cancel")
  | _ -> Alcotest.fail "kramer should register"

let test_poke_after_db_update () =
  let db, coord = make_system () in
  let cat = cat_of db in
  (* Both want Tokyo — no such flight yet. *)
  let tokyo name friend =
    Translate.of_sql cat ~owner:name
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
          FROM Flights WHERE dest='Tokyo') AND ('%s', fno) IN ANSWER \
          Reservation CHOOSE 1"
         name friend)
  in
  ignore (Coordinator.submit coord (tokyo "Kramer" "Jerry"));
  ignore (Coordinator.submit coord (tokyo "Jerry" "Kramer"));
  check int "both wait" 2 (Pending.size (Coordinator.pending coord));
  (* a Tokyo flight appears *)
  let flights = Database.find_table db "Flights" in
  ignore (Table.insert flights [| v_int 200; v_str "Tokyo" |]);
  let notifications = Coordinator.poke coord in
  check int "two notifications" 2 (List.length notifications);
  check int "pending drained" 0 (Pending.size (Coordinator.pending coord))

let test_side_effects_run_atomically () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let bookings =
    Database.create_table db
      (Schema.make "Bookings"
         [ Schema.column "who" Ctype.TText; Schema.column "fno" Ctype.TInt ])
  in
  let with_side name friend =
    let base = paper_query cat name friend in
    {
      base with
      Equery.side_effects =
        [
          Equery.Sf_insert
            ("Bookings", [| Term.Const (v_str name); Term.Var "fno" |]);
        ];
    }
  in
  ignore (Coordinator.submit coord (with_side "Kramer" "Jerry"));
  ignore (Coordinator.submit coord (with_side "Jerry" "Kramer"));
  check int "two bookings" 2 (Table.row_count bookings);
  let fnos = Table.rows bookings |> List.map (fun r -> r.(1)) in
  check bool "same flight booked" true
    (match fnos with [ a; b ] -> Value.equal a b | _ -> false)

let test_budget_exhaustion_keeps_query_pending () =
  let config =
    {
      Coordinator.default_config with
      matcher = { Matcher.default_config with Matcher.max_steps = 1 };
    }
  in
  let db, coord = make_system ~config () in
  let cat = cat_of db in
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  (match Coordinator.submit coord (paper_query cat "Jerry" "Kramer") with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "budget-limited search must park the query");
  check bool "budget counter" true
    ((Coordinator.stats coord).Stats.budget_exhausted > 0)

let test_rejected_by_coordinator () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let q =
    Translate.of_sql cat ~owner:"x" "SELECT 'x', 1 INTO ANSWER Nope CHOOSE 1"
  in
  match Coordinator.submit coord q with
  | Coordinator.Rejected _ ->
    check int "rejected counted" 1 (Coordinator.stats coord).Stats.rejected
  | _ -> Alcotest.fail "should reject"

let test_listener_notified () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let seen = ref [] in
  Coordinator.subscribe coord (fun n -> seen := n :: !seen);
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  ignore (Coordinator.submit coord (paper_query cat "Jerry" "Kramer"));
  check int "two notifications" 2 (List.length !seen);
  let owners = List.map (fun n -> n.Events.owner) !seen |> List.sort compare in
  check bool "both notified" true (owners = [ "Jerry"; "Kramer" ])

let test_same_tuple_two_relations_e2e () =
  (* the paper-form INTO ANSWER A, ANSWER B: one tuple into two relations *)
  let db, coord = make_system () in
  let cat = cat_of db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Mirror"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  let q =
    Translate.of_sql cat ~owner:"Dup"
      "SELECT 'Dup', fno INTO ANSWER Reservation, ANSWER Mirror WHERE fno IN \
       (SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1"
  in
  match Coordinator.submit coord q with
  | Coordinator.Answered n ->
    check int "two contributions" 2 (List.length n.Events.answers);
    check int "reservation row" 1
      (Table.row_count (Database.find_table db "Reservation"));
    check int "mirror row" 1 (Table.row_count (Database.find_table db "Mirror"))
  | _ -> Alcotest.fail "dual-head self-sufficient query should answer"

let test_one_head_satisfies_two_constraints () =
  (* a single partner head can satisfy several constraints of the seed *)
  let db, coord = make_system () in
  let cat = cat_of db in
  ignore
    (Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Kramer"
          "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Paris') AND ('Jerry', fno) IN ANSWER \
           Reservation CHOOSE 1"));
  (* Jerry states the constraint twice (redundantly); both atoms must be
     satisfied by Kramer's single head *)
  let jerry =
    Translate.of_sql cat ~owner:"Jerry"
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') AND ('Kramer', fno) IN ANSWER \
       Reservation AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
  in
  match Coordinator.submit coord jerry with
  | Coordinator.Answered n -> check int "pair" 2 (List.length n.Events.group)
  | _ -> Alcotest.fail "redundant constraints should still match"

let test_two_partner_constraints () =
  (* the seed needs two DIFFERENT partners at once *)
  let db, coord = make_system () in
  let cat = cat_of db in
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Newman"));
  ignore (Coordinator.submit coord (paper_query cat "Elaine" "Newman"));
  let newman =
    Translate.of_sql cat ~owner:"Newman"
      "SELECT 'Newman', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') AND ('Kramer', fno) IN ANSWER \
       Reservation AND ('Elaine', fno) IN ANSWER Reservation CHOOSE 1"
  in
  match Coordinator.submit coord newman with
  | Coordinator.Answered n ->
    check int "three-way group" 3 (List.length n.Events.group);
    let fnos =
      Table.rows (Database.find_table db "Reservation")
      |> List.map (fun r -> r.(1))
      |> List.sort_uniq Value.compare
    in
    check int "all same flight" 1 (List.length fnos)
  | _ -> Alcotest.fail "newman should pull in both partners"

let test_backtracking_over_partner_choice () =
  (* The matcher must revisit the partner's nondeterministic flight choice
     when a LATER constraint of the seed rules the first choice out.
     Anchor's committed answer pins flight 134; Kramer's grounding
     enumerates 122/123/134 and the search must backtrack to 134. *)
  let db, coord = make_system () in
  let cat = cat_of db in
  (* commit an anchor tuple at 134 via a self-sufficient pinned query *)
  (match
     Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Anchor"
          "SELECT 'Anchor', fno INTO ANSWER Reservation WHERE fno IN (SELECT \
           fno FROM Flights WHERE dest='Paris') AND fno = 134 CHOOSE 1")
   with
  | Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "anchor should answer");
  (* Kramer waits with a free choice among the Paris flights *)
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  (* Jerry requires BOTH Kramer's flight and the anchor's flight: the first
     frontier atom is satisfied by Kramer (choice point), the second only
     matches 134 *)
  let jerry =
    Translate.of_sql cat ~owner:"Jerry"
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') AND ('Kramer', fno) IN ANSWER \
       Reservation AND ('Anchor', fno) IN ANSWER Reservation CHOOSE 1"
  in
  match Coordinator.submit coord jerry with
  | Coordinator.Answered n ->
    let _, row = List.hd n.Events.answers in
    check bool "backtracked to 134" true (Value.equal row.(1) (v_int 134));
    (* kramer was pulled into the group on 134 too *)
    let reservation = Database.find_table db "Reservation" in
    let kramer_row =
      Table.rows reservation
      |> List.find (fun r -> Value.equal r.(0) (v_str "Kramer"))
    in
    check bool "kramer on 134" true (Value.equal kramer_row.(1) (v_int 134))
  | _ -> Alcotest.fail "jerry should match via backtracking"

let test_no_spurious_tuple_when_backtracking_fails () =
  (* same setup but the anchor is on Rome's flight number, which Kramer's
     Paris-only domain cannot reach: the whole search must fail cleanly *)
  let db, coord = make_system () in
  let cat = cat_of db in
  Coordinator.declare_answer_relation coord
    (Schema.make "Other"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  (match
     Coordinator.submit coord
       (Translate.of_sql cat ~owner:"Anchor"
          "SELECT 'Anchor', fno INTO ANSWER Other WHERE fno IN (SELECT fno \
           FROM Flights WHERE dest='Rome') CHOOSE 1")
   with
  | Coordinator.Answered _ -> ()
  | _ -> Alcotest.fail "anchor answers");
  ignore (Coordinator.submit coord (paper_query cat "Kramer" "Jerry"));
  let jerry =
    Translate.of_sql cat ~owner:"Jerry"
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno \
       FROM Flights WHERE dest='Paris') AND ('Kramer', fno) IN ANSWER \
       Reservation AND ('Anchor', fno) IN ANSWER Other CHOOSE 1"
  in
  (match Coordinator.submit coord jerry with
  | Coordinator.Registered _ -> ()
  | _ -> Alcotest.fail "unsatisfiable cross-constraint must park");
  (* failed search leaves no partial state behind *)
  check int "reservation untouched" 0
    (Table.row_count (Database.find_table db "Reservation"))

(* ---------------- translate diagnostics ---------------- *)

let test_translate_rejects_disjunction () =
  let db, _ = make_system () in
  let cat = cat_of db in
  match
    Translate.of_sql cat ~owner:"x"
      "SELECT 'x', fno INTO ANSWER Reservation WHERE fno = 1 OR fno = 2 CHOOSE 1"
  with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "OR accepted in entangled query"

let test_translate_rejects_from () =
  let db, _ = make_system () in
  let cat = cat_of db in
  match
    Translate.of_sql cat ~owner:"x"
      "SELECT 'x', fno INTO ANSWER Reservation FROM Flights CHOOSE 1"
  with
  | exception Errors.Db_error (Errors.Parse_error _) -> ()
  | _ -> Alcotest.fail "FROM accepted in entangled query"

let test_translate_in_values_domain () =
  let db, coord = make_system () in
  let cat = cat_of db in
  let q =
    Translate.of_sql cat ~owner:"x"
      "SELECT 'x', fno INTO ANSWER Reservation WHERE fno IN (122, 136) CHOOSE 1"
  in
  match Coordinator.submit coord q with
  | Coordinator.Answered n ->
    let _, row = List.hd n.Events.answers in
    check bool "from domain" true
      (Value.equal row.(1) (v_int 122) || Value.equal row.(1) (v_int 136))
  | _ -> Alcotest.fail "domain query should answer"

let suite =
  [
    Alcotest.test_case "unify basics" `Quick test_unify_basics;
    Alcotest.test_case "unify atoms" `Quick test_unify_atoms;
    Alcotest.test_case "check_pred" `Quick test_check_pred;
    QCheck_alcotest.to_alcotest prop_unify_symmetric;
    QCheck_alcotest.to_alcotest prop_unify_idempotent;
    QCheck_alcotest.to_alcotest prop_unify_transitive;
    QCheck_alcotest.to_alcotest prop_unify_contradiction;
    QCheck_alcotest.to_alcotest prop_unify_self;
    Alcotest.test_case "safety accepts paper query" `Quick test_safety_accepts_paper_query;
    Alcotest.test_case "safety rejects undeclared rel" `Quick
      test_safety_rejects_undeclared_relation;
    Alcotest.test_case "safety rejects arity mismatch" `Quick
      test_safety_rejects_arity_mismatch;
    Alcotest.test_case "safety rejects type mismatch" `Quick
      test_safety_rejects_type_mismatch;
    Alcotest.test_case "safety rejects unrestricted var" `Quick
      test_safety_rejects_unrestricted_variable;
    Alcotest.test_case "safety accepts answer-bound var" `Quick
      test_safety_accepts_var_bound_by_answer_atom;
    Alcotest.test_case "workload matchability" `Quick test_check_matchable;
    Alcotest.test_case "pending index candidates" `Quick test_pending_index_candidates;
    Alcotest.test_case "grounding enumerates choices" `Quick
      test_ground_enumerates_paris_flights;
    Alcotest.test_case "grounding respects bindings" `Quick
      test_ground_respects_prior_bindings;
    Alcotest.test_case "Fig 1: mutual match" `Quick test_fig1_mutual_match;
    Alcotest.test_case "mismatched destinations wait" `Quick
      test_mismatched_destinations_stay_pending;
    Alcotest.test_case "self-satisfiable query" `Quick test_self_satisfiable_query;
    Alcotest.test_case "existing answer satisfies late query" `Quick
      test_existing_answer_satisfies_late_query;
    Alcotest.test_case "eq binding pins choice" `Quick test_eq_binding_pins_choice;
    Alcotest.test_case "group of four" `Quick test_group_of_four;
    Alcotest.test_case "multi-head flight+hotel" `Quick test_multi_head_flight_and_hotel;
    Alcotest.test_case "ad-hoc asymmetric coordination" `Quick
      test_adhoc_asymmetric_coordination;
    Alcotest.test_case "CHOOSE k" `Quick test_choose_k;
    Alcotest.test_case "supplier: the seed's own head" `Quick
      test_supplied_by_own_head;
    Alcotest.test_case "supplier: an existing answer tuple" `Quick
      test_supplied_by_answer_tuple;
    Alcotest.test_case "supplier: a pending partner" `Quick
      test_supplied_by_pending_partner;
    Alcotest.test_case "supplier: a constraint with no constant" `Quick
      test_supplied_without_constant;
    Alcotest.test_case "supplier: CHOOSE 2" `Quick test_supplied_choose_2;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "poke after db update" `Quick test_poke_after_db_update;
    Alcotest.test_case "side effects atomic" `Quick test_side_effects_run_atomically;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion_keeps_query_pending;
    Alcotest.test_case "coordinator rejects unsafe" `Quick test_rejected_by_coordinator;
    Alcotest.test_case "listener notified" `Quick test_listener_notified;
    Alcotest.test_case "same tuple, two relations (e2e)" `Quick
      test_same_tuple_two_relations_e2e;
    Alcotest.test_case "one head, two constraints" `Quick
      test_one_head_satisfies_two_constraints;
    Alcotest.test_case "two partner constraints" `Quick test_two_partner_constraints;
    Alcotest.test_case "backtracking over partner choice" `Quick
      test_backtracking_over_partner_choice;
    Alcotest.test_case "clean failure after backtracking" `Quick
      test_no_spurious_tuple_when_backtracking_fails;
    Alcotest.test_case "translate rejects OR" `Quick test_translate_rejects_disjunction;
    Alcotest.test_case "translate rejects FROM" `Quick test_translate_rejects_from;
    Alcotest.test_case "translate IN values domain" `Quick test_translate_in_values_domain;
  ]
