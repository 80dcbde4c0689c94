(** The matching algorithm of the coordination component.

    On arrival of a query [seed], the matcher searches for a *match*: a group
    [G] of queries (the seed plus zero or more pending partners) and a ground
    substitution such that

    + every query's database atoms are satisfied in the current database
      (via {!Ground.enumerate}),
    + every scalar predicate of every group member holds,
    + every answer constraint of every member is satisfied — by an existing
      answer-relation tuple, or by a head contributed by a member of [G],
    + every member's head(s) are fully ground.

    The search is backtracking over a frontier of unsatisfied answer
    constraints.  For each frontier atom the candidate suppliers are tried in
    order: existing answer tuples (cheapest), heads of queries already in
    the group, then pending partners retrieved through the head index of
    {!Pending}.  Joining a partner grounds its database atoms immediately
    and pushes its own answer constraints onto the frontier, so coordination
    chains (A needs B, B needs C) are found naturally.

    Before any grounding, every answer constraint of the seed must have a
    {i supplier}: a head of the seed, a head of a pending query, or an
    existing answer tuple that unifies with it under the empty
    substitution.  Unification only gets stricter as the substitution
    grows and a group holds only the seed and pending queries, so a seed
    failing this check has no match; the attempt ends there, counted in
    [unsupplied], without running a sub-plan.

    The search is budgeted ([max_steps]) and the group size capped
    ([max_group]); exhausting either aborts the attempt as "no match for
    now" — the seed stays pending and will be retried, which preserves the
    paper's semantics ("a query whose postcondition is not satisfied is not
    rejected but waits for an opportunity to retry"). *)

open Relational

type config = {
  max_group : int;  (** maximum queries fulfilled in one match *)
  max_steps : int;  (** search-step budget per match attempt *)
  trace : bool;  (** record a human-readable search trace *)
}

let default_config = { max_group = 64; max_steps = 200_000; trace = false }

type success = {
  group : Equery.t list;  (** seed first, partners in join order *)
  subst : Subst.t;
  contributions : (Equery.t * (string * Tuple.t) list) list;
      (** per group member: its ground head tuples *)
  new_tuples : (string * Tuple.t) list;
      (** deduplicated tuples to insert into answer relations *)
  trace : string list;
}

exception Found of success
exception Budget_exhausted

(* The supplier check: [c] is a constraint of [seed]; see the header. *)
let supplied ~answers ~pending (seed : Equery.t) (c : Atom.t) =
  let unifies (h : Atom.t) = Subst.unify_atoms Subst.empty c h <> None in
  List.exists unifies seed.Equery.heads
  || Answers.may_supply answers c
  || Pending.exists_candidate pending c (fun p ->
         List.exists unifies p.Equery.heads)

(* The backtracking search, once the seed passed the supplier check. *)
let search ~(cat : Catalog.t) ~(answers : Answers.t) ~(pending : Pending.t)
    ~(config : config) ~(stats : Stats.t) (seed : Equery.t) : success option =
  let steps = ref 0 in
  let trace = ref [] in
  (* Trace messages are thunked so the formatting cost is only paid when
     tracing is on. *)
  let say msg = if config.trace then trace := msg () :: !trace in
  let bump () =
    incr steps;
    stats.Stats.search_steps <- stats.Stats.search_steps + 1;
    if !steps > config.max_steps then raise Budget_exhausted
  in
  (* Completion check: heads ground, predicates all true. *)
  let complete group subst =
    let contributions =
      List.map
        (fun (q : Equery.t) ->
          let tuples =
            List.map
              (fun h ->
                let h = Subst.apply_atom subst h in
                match Atom.to_tuple h with
                | Some row -> h.Atom.rel, row
                | None -> raise Exit)
              q.Equery.heads
          in
          q, tuples)
        group
    in
    let all_preds_true =
      List.for_all
        (fun (q : Equery.t) ->
          List.for_all
            (fun p -> Subst.check_pred subst p = Subst.True)
            q.Equery.preds)
        group
    in
    if not all_preds_true then raise Exit;
    (* Deduplicate the new answer tuples (set semantics). *)
    let new_tuples =
      List.concat_map snd contributions
      |> List.filter (fun (rel, row) -> not (Answers.contains answers rel row))
      |> List.sort_uniq Stdlib.compare
    in
    {
      group = List.rev group;
      subst;
      contributions = List.rev contributions;
      new_tuples;
      trace = List.rev !trace;
    }
  in
  (* [n_group] threads [List.length group] through the search so the
     group-size cap costs O(1) per candidate instead of a list walk. *)
  let rec solve frontier subst group n_group =
    bump ();
    match frontier with
    | [] -> (
      match complete group subst with
      | success ->
        say (fun () ->
            Printf.sprintf "match complete: group {%s}"
              (String.concat ", "
                 (List.map
                    (fun (q : Equery.t) -> string_of_int q.Equery.id)
                    group)));
        raise (Found success)
      | exception Exit -> say (fun () -> "completion check failed; backtracking"))
    | atom :: rest ->
      let resolved = Subst.apply_atom subst atom in
      (* 1. Already-committed answer tuples. *)
      Seq.iter
        (fun subst' ->
          say (fun () ->
              Atom.to_string resolved ^ " satisfied by existing answer tuple");
          solve rest subst' group n_group)
        (Answers.matching answers subst resolved);
      (* 2. Heads of queries already in the group. *)
      List.iter
        (fun (q : Equery.t) ->
          List.iter
            (fun h ->
              stats.Stats.unify_attempts <- stats.Stats.unify_attempts + 1;
              match Subst.unify_atoms subst resolved h with
              | None -> ()
              | Some subst' ->
                say (fun () ->
                    Printf.sprintf "%s satisfied by head of Q%d"
                      (Atom.to_string resolved) q.Equery.id);
                solve rest subst' group n_group)
            q.Equery.heads)
        group;
      (* 3. A new partner from the pending store. *)
      if n_group < config.max_group then
        List.iter
          (fun (p : Equery.t) ->
            let already =
              List.exists
                (fun (g : Equery.t) -> g.Equery.id = p.Equery.id)
                group
            in
            if not already then
              List.iter
                (fun h ->
                  stats.Stats.unify_attempts <- stats.Stats.unify_attempts + 1;
                  match Subst.unify_atoms subst resolved h with
                  | None -> ()
                  | Some subst' ->
                    say (fun () ->
                        Printf.sprintf
                          "%s unifies with head of pending Q%d; grounding it"
                          (Atom.to_string resolved) p.Equery.id);
                    Ground.enumerate cat stats p subst' (fun subst'' ->
                        solve
                          (rest @ p.Equery.ans_atoms)
                          subst'' (p :: group) (n_group + 1)))
                p.Equery.heads)
          (Pending.candidates pending subst resolved)
  in
  match
    Ground.enumerate cat stats seed Subst.empty (fun subst ->
        solve seed.Equery.ans_atoms subst [ seed ] 1)
  with
  | () -> None
  | exception Found success -> Some success
  | exception Budget_exhausted ->
    stats.Stats.budget_exhausted <- stats.Stats.budget_exhausted + 1;
    None

let find ~(cat : Catalog.t) ~(answers : Answers.t) ~(pending : Pending.t)
    ~(config : config) ~(stats : Stats.t) (seed : Equery.t) : success option =
  stats.Stats.match_attempts <- stats.Stats.match_attempts + 1;
  if not (List.for_all (supplied ~answers ~pending seed) seed.Equery.ans_atoms)
  then begin
    stats.Stats.unsupplied <- stats.Stats.unsupplied + 1;
    None
  end
  else search ~cat ~answers ~pending ~config ~stats seed
