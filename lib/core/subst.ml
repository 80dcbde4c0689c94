(** Substitutions and unification.

    A substitution maps variables to terms (constants or other variables).
    Chains are resolved by {!walk}; because the term language has no function
    symbols, unification needs no occurs check and always terminates. *)

open Relational
module M = Map.Make (String)

type t = Term.t M.t

let empty : t = M.empty

(** Resolve a term to its current representative: follow variable bindings
    until a constant or an unbound variable is reached. *)
let rec walk (s : t) (t : Term.t) =
  match t with
  | Term.Const _ -> t
  | Term.Var x -> (
    match M.find_opt x s with None -> t | Some t' -> walk s t')

let bind s x t = M.add x t s

(** [unify s a b] — most general unifier extension of [s], or [None]. *)
let unify (s : t) a b =
  let a = walk s a and b = walk s b in
  match a, b with
  | Term.Const x, Term.Const y -> if Value.equal x y then Some s else None
  | Term.Var x, Term.Var y when String.equal x y -> Some s
  | Term.Var x, t | t, Term.Var x -> Some (bind s x t)

(** Unify argument vectors of two atoms over the same relation. *)
let unify_atoms (s : t) (a : Atom.t) (b : Atom.t) =
  if not (Atom.same_rel a b) || Atom.arity a <> Atom.arity b then None
  else begin
    let result = ref (Some s) in
    (try
       Array.iter2
         (fun ta tb ->
           match !result with
           | None -> raise Exit
           | Some s -> result := unify s ta tb)
         a.Atom.args b.Atom.args
     with Exit -> ());
    !result
  end

(** [unify_tuple s atom_args row] — unify term vector against ground values. *)
let unify_row (s : t) (terms : Term.t array) (row : Tuple.t) =
  if Array.length terms <> Array.length row then None
  else begin
    let result = ref (Some s) in
    (try
       Array.iteri
         (fun i t ->
           match !result with
           | None -> raise Exit
           | Some s -> result := unify s t (Term.Const row.(i)))
         terms
     with Exit -> ());
    !result
  end

let apply_atom s (a : Atom.t) = { a with Atom.args = Array.map (walk s) a.Atom.args }

(** Evaluate a term-level arithmetic expression; [None] when a variable is
    unbound. *)
let rec eval_texpr s (e : Term.texpr) : Value.t option =
  match e with
  | Term.T t -> (
    match walk s t with Term.Const v -> Some v | Term.Var _ -> None)
  | Term.Add (a, b) -> map2 Value.add (eval_texpr s a) (eval_texpr s b)
  | Term.Sub (a, b) -> map2 Value.sub (eval_texpr s a) (eval_texpr s b)
  | Term.Mul (a, b) -> map2 Value.mul (eval_texpr s a) (eval_texpr s b)

and map2 f a b = match a, b with Some a, Some b -> Some (f a b) | _ -> None

type verdict = True | False | Unknown

(** Check a scalar predicate under the substitution.  [Unknown] when some
    variable is still unbound (the check is retried at match completion). *)
let check_pred s (p : Term.pred) : verdict =
  match eval_texpr s p.Term.lhs, eval_texpr s p.Term.rhs with
  | Some a, Some b ->
    if Value.is_null a || Value.is_null b then False
    else if Term.eval_cmp p.Term.op (Value.compare a b) then True
    else False
  | _ -> Unknown
