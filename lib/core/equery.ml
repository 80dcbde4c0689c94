(** The entangled-query intermediate representation.

    An entangled query is the compiled form of
    {v
      SELECT t̄ INTO ANSWER R [, …]
      WHERE (x̄ IN (SELECT …))* AND ((ē) IN ANSWER R')* AND φ
      CHOOSE k
    v}
    i.e. heads (answer contributions), database atoms (each a closed
    relational sub-plan plus the term vector it binds), answer constraints,
    scalar predicates, and the CHOOSE multiplicity.  Side effects are
    statements the system runs atomically when the query is answered (the
    travel application uses them to write reservations and decrement seat
    counts); they are an API-level extension — the SQL surface of the demo
    paper does not expose them. *)

open Relational

type db_atom = {
  binding : Term.t array;  (** terms bound against each result row *)
  plan : Plan.t;  (** closed sub-plan (no free variables) *)
  source : string;  (** human-readable origin, e.g. the subquery SQL *)
}

type side_effect =
  | Sf_insert of string * Term.t array  (** INSERT INTO table VALUES (terms) *)
  | Sf_decrement of { table : string; column : string; where_eq : (string * Term.t) list }
      (** column := column - 1 on matching rows (seat/room capacity) *)
  | Sf_update of {
      table : string;
      set : (string * Term.texpr) list;  (** column := texpr *)
      where_eq : (string * Term.t) list;  (** column = term conjunction *)
    }

type t = {
  id : int;  (** unique instance id, assigned at submission; 0 = unsubmitted *)
  owner : string;  (** submitting user/session *)
  label : string;  (** human-readable description *)
  heads : Atom.t list;
  db_atoms : db_atom list;
  ans_atoms : Atom.t list;
  preds : Term.pred list;
  eq_bindings : (string * Value.t) list;
      (** variables pinned by [x = const] conjuncts *)
  choose : int;
  side_effects : side_effect list;
}

let make ?(label = "") ?(preds = []) ?(eq_bindings = []) ?(choose = 1)
    ?(side_effects = []) ~owner ~heads ~db_atoms ~ans_atoms () =
  {
    id = 0;
    owner;
    label;
    heads;
    db_atoms;
    ans_atoms;
    preds;
    eq_bindings;
    choose;
    side_effects;
  }

(** Rename every variable through [f] (used to rename query instances
    apart: [f x = "q<id>:" ^ x]). *)
let rename f q =
  {
    q with
    heads = List.map (Atom.rename f) q.heads;
    db_atoms =
      List.map
        (fun (d : db_atom) -> { d with binding = Array.map (Term.rename f) d.binding })
        q.db_atoms;
    ans_atoms = List.map (Atom.rename f) q.ans_atoms;
    preds = List.map (Term.pred_rename f) q.preds;
    eq_bindings = List.map (fun (x, v) -> f x, v) q.eq_bindings;
    side_effects =
      List.map
        (function
          | Sf_insert (table, terms) ->
            Sf_insert (table, Array.map (Term.rename f) terms)
          | Sf_decrement { table; column; where_eq } ->
            Sf_decrement
              {
                table;
                column;
                where_eq = List.map (fun (c, t) -> c, Term.rename f t) where_eq;
              }
          | Sf_update { table; set; where_eq } ->
            Sf_update
              {
                table;
                set = List.map (fun (c, e) -> c, Term.texpr_rename f e) set;
                where_eq =
                  List.map (fun (c, t) -> c, Term.rename f t) where_eq;
              })
        q.side_effects;
  }

(** [freshen ~id q] assigns the instance id and renames variables apart. *)
let freshen ~id q =
  let prefix = "q" ^ string_of_int id ^ ":" in
  { (rename (fun x -> prefix ^ x) q) with id }

(** Display name of a variable without its instance prefix. *)
let display_var x =
  match String.index_opt x ':' with
  | Some i when String.length x > 0 && x.[0] = 'q' ->
    String.sub x (i + 1) (String.length x - i - 1)
  | _ -> x

let pp ppf q =
  Fmt.pf ppf "@[<v 2>Q%d owner=%s%s:@,heads: %a@,db: %a@,ans: %a@,preds: %a%a@]"
    q.id q.owner
    (if q.label = "" then "" else " (" ^ q.label ^ ")")
    Fmt.(list ~sep:(any ", ") Atom.pp)
    q.heads
    Fmt.(
      list ~sep:(any ", ") (fun ppf (d : db_atom) ->
          Fmt.pf ppf "(%a) IN [%s]"
            Fmt.(array ~sep:(any ", ") Term.pp)
            d.binding d.source))
    q.db_atoms
    Fmt.(list ~sep:(any ", ") Atom.pp)
    q.ans_atoms
    Fmt.(list ~sep:(any ", ") Term.pp_pred)
    q.preds
    (fun ppf -> function
      | [] -> ()
      | bs ->
        Fmt.pf ppf "@,pinned: %a"
          Fmt.(
            list ~sep:(any ", ") (fun ppf (x, v) ->
                Fmt.pf ppf "%s = %a" x Value.pp v))
          bs)
    q.eq_bindings

