(** Grounding: enumerate the substitutions that satisfy a query's database
    atoms (and keep its scalar predicates consistent) in the current
    database.

    Each database atom carries a *closed* relational sub-plan (e.g. the
    compiled [SELECT fno FROM Flights WHERE dest='Paris']); its result rows
    are the domain the atom's term vector unifies against.  Enumeration is
    backtracking in continuation-passing style, choosing at every step the
    atom with the fewest unbound variables (most-bound-first), and pruning
    with every scalar predicate as soon as its variables are bound. *)

open Relational

let count_unbound subst (binding : Term.t array) =
  Array.fold_left
    (fun acc t ->
      match Subst.walk subst t with Term.Var _ -> acc + 1 | Term.Const _ -> acc)
    0 binding

let preds_consistent subst preds =
  List.for_all
    (fun p ->
      match Subst.check_pred subst p with
      | Subst.False -> false
      | Subst.True | Subst.Unknown -> true)
    preds

(** [enumerate cat stats q subst yield] calls [yield subst'] for every
    extension of [subst] that satisfies all of [q]'s database atoms,
    pinned equalities and (bound) predicates.  [yield] may raise to abort
    the enumeration (the matcher uses an exception to escape on success).
    Each atom's sub-plan runs on the live catalog. *)
let enumerate (cat : Catalog.t) (stats : Stats.t) (q : Equery.t)
    (subst : Subst.t) (yield : Subst.t -> unit) : unit =
  (* Pinned x = const conjuncts first. *)
  let pinned =
    List.fold_left
      (fun acc (x, v) ->
        match acc with
        | None -> None
        | Some s -> Subst.unify s (Term.Var x) (Term.Const v))
      (Some subst) q.Equery.eq_bindings
  in
  match pinned with
  | None -> ()
  | Some subst ->
    if not (preds_consistent subst q.Equery.preds) then ()
    else begin
      (* Materialise each atom's rows once per enumeration. *)
      let atoms =
        List.map
          (fun (d : Equery.db_atom) ->
            d.Equery.binding, Executor.run cat d.Equery.plan)
          q.Equery.db_atoms
      in
      let rec solve subst remaining =
        match remaining with
        | [] -> yield subst
        | _ ->
          (* most-bound-first dynamic ordering *)
          let best =
            List.fold_left
              (fun best ((binding, _) as atom) ->
                let u = count_unbound subst binding in
                match best with
                | Some (_, bu) when bu <= u -> best
                | _ -> Some (atom, u))
              None remaining
          in
          let chosen, _ = Option.get best in
          let binding, rows = chosen in
          let rest = List.filter (fun a -> a != chosen) remaining in
          let resolved = Array.map (Subst.walk subst) binding in
          List.iter
            (fun row ->
              stats.Stats.groundings <- stats.Stats.groundings + 1;
              match Subst.unify_row subst resolved row with
              | None -> ()
              | Some subst' ->
                if preds_consistent subst' q.Equery.preds then solve subst' rest)
            rows
      in
      solve subst atoms
    end

(** [first cat stats q subst] — the first satisfying extension, if any. *)
let first cat stats q subst =
  let exception Got of Subst.t in
  try
    enumerate cat stats q subst (fun s -> raise (Got s));
    None
  with Got s -> Some s
