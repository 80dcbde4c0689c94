(** Static admission checks for entangled queries.

    A query that passes is *safe to coordinate*: its joint evaluation with
    other admitted queries is well-defined.  Mirrors the role of the static
    analysis in the companion technical paper: ill-formed queries are
    rejected with a diagnostic instead of waiting forever.

    Checks:
    - every answer relation mentioned (heads and constraints) is declared,
      with matching arity;
    - constant head arguments type-check against the answer schema;
    - CHOOSE k with k ≥ 1;
    - database atoms bind as many terms as their sub-plan produces columns;
    - range restriction: every variable occurring in a head or predicate is
      *reachable* — bound by a database atom, pinned by an [x = const]
      conjunct, or constrained through an answer atom (and hence groundable
      by a partner's contribution). *)

open Relational

type verdict = Safe | Unsafe of string

let unsafe fmt = Format.kasprintf (fun m -> Unsafe m) fmt

let check_atom_against_schema what (answers : Answers.t) (a : Atom.t) =
  match Answers.find_opt answers a.Atom.rel with
  | None -> Some (Fmt.str "%s refers to undeclared answer relation %s" what a.Atom.rel)
  | Some table ->
    let schema = Table.schema table in
    if Atom.arity a <> Schema.arity schema then
      Some
        (Fmt.str "%s %a has arity %d, answer relation %s has %d" what Atom.pp a
           (Atom.arity a) a.Atom.rel (Schema.arity schema))
    else begin
      let bad = ref None in
      Array.iteri
        (fun i t ->
          match t with
          | Term.Var _ -> ()
          | Term.Const v ->
            let col = Schema.column_at schema i in
            if not (Ctype.accepts col.Schema.col_type v) then
              bad :=
                Some
                  (Fmt.str "%s %a: constant %s does not fit column %s %s" what
                     Atom.pp a (Value.to_string v) col.Schema.col_name
                     (Ctype.to_string col.Schema.col_type)))
        a.Atom.args;
      !bad
    end

let check (answers : Answers.t) (q : Equery.t) : verdict =
  if q.Equery.heads = [] then unsafe "query has no INTO ANSWER head"
  else if q.Equery.choose < 1 then unsafe "CHOOSE %d is not positive" q.Equery.choose
  else begin
    let head_problem =
      List.find_map (check_atom_against_schema "head" answers) q.Equery.heads
    in
    let ans_problem =
      List.find_map
        (check_atom_against_schema "answer constraint" answers)
        q.Equery.ans_atoms
    in
    let db_problem =
      List.find_map
        (fun (d : Equery.db_atom) ->
          let produced = Schema.arity d.Equery.plan.Plan.schema in
          if Array.length d.Equery.binding <> produced then
            Some
              (Fmt.str
                 "database atom [%s] produces %d column(s) but binds %d term(s)"
                 d.Equery.source produced
                 (Array.length d.Equery.binding))
          else None)
        q.Equery.db_atoms
    in
    let bound_vars =
      let from_db =
        List.concat_map
          (fun (d : Equery.db_atom) ->
            Array.fold_left Term.vars [] d.Equery.binding)
          q.Equery.db_atoms
      in
      let from_ans = List.concat_map Atom.vars q.Equery.ans_atoms in
      let pinned = List.map fst q.Equery.eq_bindings in
      List.sort_uniq String.compare (from_db @ from_ans @ pinned)
    in
    let unrestricted =
      let needed =
        List.concat_map Atom.vars q.Equery.heads
        @ List.fold_left Term.pred_vars [] q.Equery.preds
      in
      List.filter (fun x -> not (List.mem x bound_vars)) needed
      |> List.sort_uniq String.compare
    in
    match head_problem, ans_problem, db_problem, unrestricted with
    | Some m, _, _, _ | _, Some m, _, _ | _, _, Some m, _ -> Unsafe m
    | None, None, None, _ :: _ ->
      unsafe "unrestricted variable(s): %s"
        (String.concat ", " (List.map Equery.display_var unrestricted))
    | None, None, None, [] -> Safe
  end

(* ------------------------------------------------------------------ *)
(* Workload analysis. *)

type analysis = {
  edges : (Equery.t * Equery.t) list;
  unsupplied : (Equery.t * Atom.t) list;
  components : Equery.t list list;
}

let analyse (workload : Equery.t list) : analysis =
  let qs = Array.of_list workload in
  let all = List.init (Array.length qs) Fun.id in
  (* rename every query apart so that variables shared by accident (two
     templates translated from similar SQL) cannot fake unifiability *)
  let fresh = Array.mapi (fun i q -> Equery.freshen ~id:(i + 1) q) qs in
  let supplies a j =
    List.exists
      (fun h -> Subst.unify_atoms Subst.empty a h <> None)
      fresh.(j).Equery.heads
  in
  let unsupplied = ref [] in
  (* suppliers.(i): every j that supplies some constraint of i, ascending *)
  let suppliers =
    Array.mapi
      (fun i (q : Equery.t) ->
        List.concat
          (List.map2
             (fun a fresh_a ->
               match List.filter (supplies fresh_a) all with
               | [] ->
                 unsupplied := (q, a) :: !unsupplied;
                 []
               | js -> js)
             q.Equery.ans_atoms fresh.(i).Equery.ans_atoms)
        |> List.sort_uniq compare)
      qs
  in
  let adjacent = Array.copy suppliers in
  Array.iteri
    (fun i js -> List.iter (fun j -> adjacent.(j) <- i :: adjacent.(j)) js)
    suppliers;
  let seen = Array.make (Array.length qs) false in
  let rec visit acc i =
    if seen.(i) then acc
    else begin
      seen.(i) <- true;
      List.fold_left visit (i :: acc) adjacent.(i)
    end
  in
  {
    edges =
      List.concat_map
        (fun i -> List.map (fun j -> qs.(i), qs.(j)) suppliers.(i))
        all;
    unsupplied = List.rev !unsupplied;
    components =
      List.filter_map
        (fun i ->
          if seen.(i) then None
          else Some (List.map (Array.get qs) (List.sort compare (visit [] i))))
        all;
  }
