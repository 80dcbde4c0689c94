(** Relational atoms: a relation name applied to a vector of terms.  Used
    both as query heads (contributions to answer relations) and as body
    answer constraints. *)

type t = { rel : string; args : Term.t array }

let make rel args = { rel; args = Array.of_list args }
let arity a = Array.length a.args

(** Case-insensitive name equality (SQL convention), allocation-free. *)
let rel_equal a b =
  String.equal a b
  || String.length a = String.length b
     &&
     let rec from i =
       i = String.length a
       || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i]
          && from (i + 1)
     in
     from 0

let same_rel a b = rel_equal a.rel b.rel

let vars a = Array.fold_left Term.vars [] a.args

(** The tuple of a ground atom; [None] if any variable remains. *)
let to_tuple a =
  let exception Not_ground in
  try
    Some
      (Array.map
         (function Term.Const v -> v | Term.Var _ -> raise Not_ground)
         a.args)
  with Not_ground -> None

let rename f a = { a with args = Array.map (Term.rename f) a.args }

let pp ppf a =
  Fmt.pf ppf "%s(%a)" a.rel Fmt.(array ~sep:(any ", ") Term.pp) a.args

let to_string a = Fmt.str "%a" pp a
