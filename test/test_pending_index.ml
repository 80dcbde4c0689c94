(* Unit tests for the tuple-level constraint index: Plan.constraints
   extraction, Pending.probe under partial grounding, remove-then-poke,
   bucket churn, and coordinator-level tuple-driven retry targeting; and a
   property holding the head and constraint indexes to unification over
   the whole store. *)

open Relational
open Core

let v_int i = Value.Int i
let v_str s = Value.Str s

let compile cat sql =
  match Sql.Parser.parse_one sql with
  | Sql.Ast.Select s -> Sql.Compile.compile_select cat s
  | _ -> Alcotest.fail "expected a SELECT"

(* ------------------------------------------------------------------ *)
(* Plan.constraints extraction. *)

let make_items () =
  let db = Database.create () in
  let items =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Items"
         [
           Schema.column "id" Ctype.TInt;
           Schema.column "grp" Ctype.TInt;
           Schema.column "tag" Ctype.TText;
         ])
  in
  for i = 0 to 7 do
    ignore (Table.insert items [| v_int i; v_int (i mod 3); v_str "x" |])
  done;
  db

(* All equality constraints extracted for [table], over every access,
   sorted. *)
let eqs_for plan table =
  Plan.constraints plan
  |> List.concat_map (fun (t, _, eqs) -> if t = table then eqs else [])
  |> List.sort compare

let accesses_of plan table =
  Plan.constraints plan |> List.filter (fun (t, _, _) -> t = table)

let test_extract_equality () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let plan = compile cat "SELECT id FROM Items WHERE grp = 5" in
  Alcotest.(check bool)
    "grp = 5 extracted" true
    (List.mem (1, v_int 5) (eqs_for plan "items"));
  let plan = compile cat "SELECT id FROM Items WHERE grp = 5 AND tag = 'x'" in
  let eqs = eqs_for plan "items" in
  Alcotest.(check bool)
    "conjunction: both extracted" true
    (List.mem (1, v_int 5) eqs && List.mem (2, v_str "x") eqs);
  (* reversed operand order *)
  let plan = compile cat "SELECT id FROM Items WHERE 5 = grp" in
  Alcotest.(check bool)
    "const = col extracted" true
    (List.mem (1, v_int 5) (eqs_for plan "items"))

let test_extract_fallbacks () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let no_eqs sql =
    let plan = compile cat sql in
    (* the access is still listed — table-level targeting keeps working —
       but no equality constraint narrows it *)
    Alcotest.(check bool)
      (sql ^ ": access listed")
      true
      (accesses_of plan "items" <> []);
    Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
      (sql ^ ": no constraints")
      [] (eqs_for plan "items")
  in
  no_eqs "SELECT id FROM Items WHERE grp > 5";
  no_eqs "SELECT id FROM Items WHERE grp + 1 = 5";
  no_eqs "SELECT id FROM Items WHERE grp = 5 OR tag = 'y'";
  no_eqs "SELECT id FROM Items"

let test_extract_through_stable_ops () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let plan =
    compile cat
      "SELECT DISTINCT id FROM Items WHERE grp = 2 ORDER BY id LIMIT 3"
  in
  Alcotest.(check bool)
    "survives Distinct/Sort/Limit" true
    (List.mem (1, v_int 2) (eqs_for plan "items"))

let test_extract_index_lookup () =
  let db = make_items () in
  let cat = db.Database.catalog in
  (* primary-key point lookup: whether the planner picks Index_lookup or
     Filter+Scan, the (col 0, 3) constraint must surface *)
  let plan = compile cat "SELECT grp FROM Items WHERE id = 3" in
  Alcotest.(check bool)
    "pk lookup key extracted" true
    (List.mem (0, v_int 3) (eqs_for plan "items"))

(* ------------------------------------------------------------------ *)
(* Coordinator-level probing.  Ghost-partner pair queries park forever, so
   the only observable activity is which ones a poke retries. *)

let pair_sql ~me ~table ~dest =
  Printf.sprintf
    "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM %s WHERE \
     dest='%s') AND ('ghost_%s', fno) IN ANSWER R CHOOSE 1"
    me table dest me

let make_coord ?config () =
  let db = Database.create () in
  let mk name =
    let t =
      Database.create_table db
        (Schema.make name
           [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
    in
    ignore (Table.insert t [| v_int 1; v_str "Seed" |]);
    t
  in
  let ta = mk "TA" and tb = mk "TB" in
  let coord = Coordinator.create ?config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord, ta, tb

let submit_pending coord db ~me ~table ~dest =
  match
    Coordinator.submit coord
      (Translate.of_sql db.Database.catalog ~owner:me
         (pair_sql ~me ~table ~dest))
  with
  | Coordinator.Registered id -> id
  | _ -> Alcotest.fail "query should park (ghost partner)"

let test_probe_partial_grounding () =
  let db, coord, _, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  let qc = submit_pending coord db ~me:"uc" ~table:"TB" ~dest:"Paris" in
  let pending = Coordinator.pending coord in
  (* fno is unconstrained (any value matches via the variable bucket); dest
     discriminates *)
  Alcotest.(check (list int))
    "Paris row wakes only TA's Paris reader" [ qa ]
    (Pending.probe pending ~table:"TA" [| v_int 99; v_str "Paris" |]);
  Alcotest.(check (list int))
    "Rome row wakes only TA's Rome reader" [ qb ]
    (Pending.probe pending ~table:"ta" [| v_int 7; v_str "Rome" |]);
  Alcotest.(check (list int))
    "no constraint matches" []
    (Pending.probe pending ~table:"TA" [| v_int 1; v_str "Oslo" |]);
  Alcotest.(check (list int))
    "per-table separation" [ qc ]
    (Pending.probe pending ~table:"TB" [| v_int 1; v_str "Paris" |]);
  Alcotest.(check (list int))
    "unknown table" []
    (Pending.probe pending ~table:"nope" [| v_int 1 |]);
  (* integral floats normalise: Float 99.0 / Int 99 are SQL-equal *)
  Alcotest.(check (list int))
    "float row value normalised" [ qa ]
    (Pending.probe pending ~table:"TA" [| Value.Float 99.0; v_str "Paris" |])

let test_tuple_targeting () =
  let db, coord, ta, tb = make_coord () in
  let _qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  let _qc = submit_pending coord db ~me:"uc" ~table:"TB" ~dest:"Paris" in
  let stats = Coordinator.stats coord in
  ignore (Coordinator.poke coord);
  (* first poke: empty snapshot, every table widens, all three retried *)
  Alcotest.(check int) "first poke retries all" 3 stats.Stats.dirty_retries;
  let r0 = stats.Stats.dirty_retries in
  (* a committed insert matching nobody's constraint retries nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 10; v_str "Oslo" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "miss probe retries none" r0 stats.Stats.dirty_retries;
  Alcotest.(check int) "probe counted" 1 stats.Stats.tuple_probes;
  (* a committed insert matching one query's constraint retries exactly it *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 11; v_str "Paris" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "hit probe retries one" (r0 + 1) stats.Stats.dirty_retries;
  Alcotest.(check int) "hit counted" 1 stats.Stats.tuple_hits;
  (* a committed delete widens to the table's full reader set *)
  let victim =
    Table.fold
      (fun acc id row ->
        if Value.as_string row.(1) = "Oslo" then Some id else acc)
      None ta
    |> Option.get
  in
  let f0 = stats.Stats.tuple_fallbacks in
  Database.with_txn db (fun txn -> ignore (Txn.delete txn ta victim));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "delete retries both TA readers" (r0 + 3)
    stats.Stats.dirty_retries;
  Alcotest.(check int) "delete widened" (f0 + 1) stats.Stats.tuple_fallbacks;
  (* a direct insert bypasses the observer: version advance unexplained,
     the table widens — even though the row matches nobody *)
  ignore (Table.insert tb [| v_int 12; v_str "Oslo" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "direct mutation widens TB" (r0 + 4)
    stats.Stats.dirty_retries;
  (* a committed update probes BOTH images: old wakes the reader losing the
     row, new wakes the reader gaining it *)
  let paris_row =
    Table.fold
      (fun acc id row ->
        if Value.as_string row.(1) = "Paris" then Some id else acc)
      None ta
    |> Option.get
  in
  let p0 = stats.Stats.tuple_probes in
  Database.with_txn db (fun txn ->
      ignore (Txn.update txn ta paris_row [| v_int 11; v_str "Rome" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "update probes old and new" (p0 + 2)
    stats.Stats.tuple_probes;
  Alcotest.(check int) "update retries both affected readers" (r0 + 6)
    stats.Stats.dirty_retries;
  (* DDL: drop + recreate gets a fresh uid, the table widens *)
  Database.drop_table db "TB";
  let tb' =
    Database.create_table db
      (Schema.make "TB"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  ignore (Table.insert tb' [| v_int 1; v_str "Seed" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "DDL widens TB" (r0 + 7) stats.Stats.dirty_retries

let test_remove_then_poke () =
  let db, coord, ta, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  ignore (Coordinator.poke coord);
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  Alcotest.(check bool) "cancel removes" true (Coordinator.cancel coord qa);
  (* a row that matched only the cancelled query wakes nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 20; v_str "Paris" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "cancelled query not retried" r0
    stats.Stats.dirty_retries;
  (* the surviving query still wakes normally *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 21; v_str "Rome" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "survivor still retried" (r0 + 1)
    stats.Stats.dirty_retries

(* ------------------------------------------------------------------ *)
(* Ans-atom indexing: [IN ANSWER] templates are indexed like db accesses —
   constant argument positions are the pins, so a committed answer tuple
   probes straight to the partners pinned on it. *)

let test_probe_ans_atoms () =
  let db, coord, _, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let qb = submit_pending coord db ~me:"ub" ~table:"TB" ~dest:"Rome" in
  let pending = Coordinator.pending coord in
  (* qa waits on ('ghost_ua', fno): position 0 pinned, position 1 free *)
  Alcotest.(check (list int))
    "answer tuple routes to the pinned waiter" [ qa ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 5 |]);
  Alcotest.(check (list int))
    "any fno matches the variable position" [ qa ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 999 |]);
  Alcotest.(check (list int))
    "partner name discriminates" [ qb ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ub"; v_int 5 |]);
  Alcotest.(check (list int))
    "unknown partner wakes nobody" []
    (Pending.probe pending ~table:"R" [| v_str "nobody"; v_int 5 |]);
  (* cancel retires the template bucket along with the db-access buckets *)
  ignore (Coordinator.cancel coord qa);
  Alcotest.(check (list int))
    "cancelled template unindexed" []
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 5 |]);
  Alcotest.(check (list int))
    "survivor still indexed" [ qb ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ub"; v_int 7 |])

let test_ans_atom_tuple_targeting () =
  let db, coord, _, _ = make_coord () in
  let _qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TB" ~dest:"Rome" in
  ignore (Coordinator.poke coord);
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  let r_table = Database.find_table db "R" in
  (* answer relations are catalog tables; a committed answer tuple naming
     ua's ghost partner retries exactly ua's query through the same probe
     path as a base-table insert *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn r_table [| v_str "ghost_ua"; v_int 1 |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "answer tuple retries the pinned waiter only" (r0 + 1)
    stats.Stats.dirty_retries;
  (* an answer tuple for nobody's template retries nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn r_table [| v_str "stranger"; v_int 2 |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "irrelevant answer tuple retries nobody" (r0 + 1)
    stats.Stats.dirty_retries

let test_bucket_churn () =
  let db, coord, _, _ = make_coord () in
  let pending = Coordinator.pending coord in
  let b0 = Pending.bucket_count pending in
  let ids =
    List.init 8 (fun i ->
        submit_pending coord db
          ~me:(Printf.sprintf "u%d" i)
          ~table:(if i mod 2 = 0 then "TA" else "TB")
          ~dest:(Printf.sprintf "D%d" i))
  in
  Alcotest.(check bool) "buckets grew" true (Pending.bucket_count pending > b0);
  List.iter (fun id -> ignore (Coordinator.cancel coord id)) ids;
  Alcotest.(check int) "all buckets reclaimed" b0 (Pending.bucket_count pending);
  Alcotest.(check int) "store empty" 0 (Pending.size pending);
  (* and the store still works after the churn *)
  let q = submit_pending coord db ~me:"again" ~table:"TA" ~dest:"Paris" in
  Alcotest.(check (list int))
    "reusable after churn" [ q ]
    (Pending.probe pending ~table:"TA" [| v_int 1; v_str "Paris" |])

let test_size_counter () =
  let db, coord, _, _ = make_coord () in
  let pending = Coordinator.pending coord in
  Alcotest.(check int) "empty" 0 (Pending.size pending);
  let a = submit_pending coord db ~me:"a" ~table:"TA" ~dest:"P" in
  let b = submit_pending coord db ~me:"b" ~table:"TB" ~dest:"Q" in
  Alcotest.(check int) "two pending" 2 (Pending.size pending);
  Alcotest.(check int) "peak tracks" 2 (Pending.peak pending);
  ignore (Coordinator.cancel coord a);
  Alcotest.(check int) "one after cancel" 1 (Pending.size pending);
  (* double-remove is a no-op on the counter *)
  Pending.remove pending a;
  Alcotest.(check int) "idempotent remove" 1 (Pending.size pending);
  ignore (Coordinator.cancel coord b);
  Alcotest.(check int) "drained" 0 (Pending.size pending);
  Alcotest.(check int) "peak survives" 2 (Pending.peak pending)

(* ------------------------------------------------------------------ *)
(* The head and constraint indexes against their definition.  A random
   store of entangled queries, built from SQL templates over a 3-value
   domain, is probed with random atoms: [candidates] must return every
   query with a head that unifies with the probe, and [probe] on the answer
   relation every query with an answer constraint that unifies with the
   ground tuple — before and after random removals. *)

let idx_names = [| "a"; "b"; "c" |]

let idx_templates =
  [|
    (fun n1 n2 c1 _ ->
      Printf.sprintf
        "SELECT '%s', x INTO ANSWER R WHERE x IN (SELECT id FROM T WHERE grp \
         = %d) AND ('%s', x) IN ANSWER R CHOOSE 1"
        n1 c1 n2);
    (fun n1 n2 c1 c2 ->
      Printf.sprintf
        "SELECT '%s', %d INTO ANSWER S WHERE ('%s', %d) IN ANSWER R CHOOSE 1" n1
        c1 n2 c2);
    (fun n1 n2 c1 _ ->
      Printf.sprintf
        "SELECT ('%s', x) INTO ANSWER R, ('%s', x) INTO ANSWER S WHERE x IN \
         (SELECT id FROM T WHERE grp = %d) AND ('%s', x) IN ANSWER S CHOOSE 1"
        n1 n2 c1 n1);
    (fun n1 n2 c1 c2 ->
      Printf.sprintf
        "SELECT '%s', x INTO ANSWER S WHERE x IN (SELECT id FROM T) AND ('%s', \
         x) IN ANSWER R AND ('%s', %d) IN ANSWER S CHOOSE 1"
        n1 n2 n2 (max c1 c2));
  |]

(* A probe argument: a constant, a variable the probe's substitution binds
   to a constant, or a free variable. *)
type idx_arg = Const of int | Bound of int | Free

type idx_case = {
  queries : (int * int * int * int * int) list;  (* template, n1, n2, c1, c2 *)
  probes : (bool * idx_arg * idx_arg) list;  (* R?, name arg, int arg *)
  removals : bool list;  (* remove the i-th query? *)
}

let idx_case_gen =
  QCheck.Gen.(
    let d3 = int_bound 2 in
    let arg =
      frequency
        [
          3, map (fun v -> Const v) d3;
          1, map (fun v -> Bound v) d3;
          1, return Free;
        ]
    in
    let* queries =
      list_size (int_range 0 12)
        (map
           (fun ((t, n1, n2), (c1, c2)) -> t, n1, n2, c1, c2)
           (pair
              (triple (int_bound (Array.length idx_templates - 1)) d3 d3)
              (pair d3 d3)))
    in
    let* probes = list_size (int_range 1 8) (triple bool arg arg) in
    let+ removals = list_repeat (List.length queries) bool in
    { queries; probes; removals })

let print_idx_case c =
  let pr_arg = function
    | Const v -> Printf.sprintf "%d" v
    | Bound v -> Printf.sprintf "?=%d" v
    | Free -> "?"
  in
  Printf.sprintf "queries=[%s] probes=[%s] removals=[%s]"
    (String.concat "; "
       (List.map
          (fun (t, n1, n2, c1, c2) ->
            Printf.sprintf "T%d(%s,%s,%d,%d)" t idx_names.(n1) idx_names.(n2)
              c1 c2)
          c.queries))
    (String.concat "; "
       (List.map
          (fun (r, a, b) ->
            Printf.sprintf "%s(%s,%s)" (if r then "R" else "S") (pr_arg a)
              (pr_arg b))
          c.probes))
    (String.concat "" (List.map (fun b -> if b then "x" else ".") c.removals))

let idx_catalog () =
  let db = Database.create () in
  let t =
    Database.create_table db
      (Schema.make "T"
         [ Schema.column "id" Ctype.TInt; Schema.column "grp" Ctype.TInt ])
  in
  ignore (Table.insert t [| v_int 0; v_int 0 |]);
  let coord = Coordinator.create db in
  List.iter
    (fun rel ->
      Coordinator.declare_answer_relation coord
        (Schema.make rel
           [ Schema.column "name" Ctype.TText; Schema.column "x" Ctype.TInt ]))
    [ "R"; "S" ];
  db.Database.catalog

let ground_or v = function Term.Var _ -> Term.Const v | t -> t

let prop_index_complete =
  QCheck.Test.make ~name:"head and constraint indexes are complete" ~count:200
    (QCheck.make ~print:print_idx_case idx_case_gen) (fun c ->
      let cat = idx_catalog () in
      let store = Pending.create () in
      let queries =
        List.mapi
          (fun i (t, n1, n2, c1, c2) ->
            let q =
              Translate.of_sql cat ~owner:"u"
                (idx_templates.(t) idx_names.(n1) idx_names.(n2) c1 c2)
              |> Equery.freshen ~id:(i + 1)
            in
            Pending.add store q;
            q)
          c.queries
      in
      let ids qs =
        List.sort_uniq compare (List.map (fun (q : Equery.t) -> q.Equery.id) qs)
      in
      (* the reference: every live query some atom of [atoms_of q] unifies
         with [atom] under [subst] *)
      let expected atoms_of subst atom =
        List.filter
          (fun (q : Equery.t) ->
            Pending.mem store q.Equery.id
            && List.exists
                 (fun a -> Subst.unify_atoms subst a atom <> None)
                 (atoms_of q))
          queries
        |> ids
      in
      let live got = List.for_all (Pending.mem store) got in
      let covers want got = List.for_all (fun id -> List.mem id got) want in
      let check_probes () =
        List.for_all
          (fun (is_r, a0, a1) ->
            let rel = if is_r then "R" else "S" in
            let term var value = function
              | Const v -> Term.Const (value v), Fun.id
              | Bound v ->
                Term.Var var, fun s -> Subst.bind s var (Term.Const (value v))
              | Free -> Term.Var var, Fun.id
            in
            let t0, b0 = term "probe_n" (fun v -> v_str idx_names.(v)) a0 in
            let t1, b1 = term "probe_x" v_int a1 in
            let subst = b1 (b0 Subst.empty) in
            let atom = Atom.make rel [ t0; t1 ] in
            let cands = ids (Pending.candidates store subst atom) in
            (* [probe] takes a committed tuple: free arguments become 0 *)
            let ground =
              Atom.make rel
                [
                  Subst.walk subst t0 |> ground_or (v_str idx_names.(0));
                  Subst.walk subst t1 |> ground_or (v_int 0);
                ]
            in
            let row = Option.get (Atom.to_tuple ground) in
            let inter = Pending.probe store ~table:rel row in
            live cands && live inter
            && covers (expected (fun q -> q.Equery.heads) subst atom) cands
            && covers
                 (expected (fun q -> q.Equery.ans_atoms) Subst.empty ground)
                 inter)
          c.probes
      in
      let before = check_probes () in
      List.iter2
        (fun (q : Equery.t) remove ->
          if remove then Pending.remove store q.Equery.id)
        queries c.removals;
      before && check_probes ())

let suite =
  [
    Alcotest.test_case "extract: equality conjuncts" `Quick
      test_extract_equality;
    Alcotest.test_case "extract: non-indexable predicates fall back" `Quick
      test_extract_fallbacks;
    Alcotest.test_case "extract: survives Distinct/Sort/Limit" `Quick
      test_extract_through_stable_ops;
    Alcotest.test_case "extract: pk point lookup" `Quick
      test_extract_index_lookup;
    Alcotest.test_case "probe: partial grounding + value norm" `Quick
      test_probe_partial_grounding;
    Alcotest.test_case "poke: tuple-driven retry targeting" `Quick
      test_tuple_targeting;
    Alcotest.test_case "poke: remove then poke" `Quick test_remove_then_poke;
    Alcotest.test_case "probe: ans-atom templates indexed" `Quick
      test_probe_ans_atoms;
    Alcotest.test_case "poke: ans-atom tuple targeting" `Quick
      test_ans_atom_tuple_targeting;
    Alcotest.test_case "churn: buckets reclaimed on remove" `Quick
      test_bucket_churn;
    Alcotest.test_case "size: O(1) counter" `Quick test_size_counter;
    QCheck_alcotest.to_alcotest prop_index_complete;
  ]
