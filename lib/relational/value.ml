(** Runtime values stored in tuples.

    The engine is dynamically typed at the value level; schemas (see
    {!Schema}) constrain which values a column accepts.  [Null] is a first
    class value with SQL-ish semantics: comparisons against [Null] are
    resolved by {!compare} (total order, [Null] smallest) for storage
    purposes, while three-valued logic is handled in {!Expr}. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

let is_null = function Null -> true | Int _ | Float _ | Bool _ | Str _ -> false

(** Total order used by indexes and ORDER BY.  [Null] sorts first; values of
    distinct runtime types are ordered by a fixed type rank so that the order
    is total even on heterogeneous data.  Numeric [Int]/[Float] compare by
    numeric value. *)
let compare a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | Str _ -> 3
  in
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Bool x, Bool y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | (Null | Int _ | Float _ | Bool _ | Str _), _ ->
    Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash (1, i)
  | Float f ->
    (* Hash a float that is integral the same as the integer, so that
       Int 2 and Float 2.0 (which are [equal]) also collide. *)
    if Float.is_integer f && Float.abs f < 1e18 then
      Hashtbl.hash (1, int_of_float f)
    else Hashtbl.hash (2, f)
  | Bool b -> Hashtbl.hash (3, b)
  | Str s -> Hashtbl.hash (4, s)

(* The C primitive behind [Printf]'s float conversions, without the
   format interpreter around it. *)
external format_float : string -> float -> string = "caml_format_float"

(** Exact float text: the shorter of [%.15g] and [%.17g] that reads back
    bit-equal, with a [.] added when the digits alone would read as an
    integer.  Floats of up to 12 significant digits print as
    [string_of_float] prints them. *)
let float_to_exact f =
  let s = format_float "%.15g" f in
  let s =
    if Float.equal (float_of_string s) f then s else format_float "%.17g" f
  in
  Stdlib.valid_float_lexem s

let add_quoted buf s =
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\''

(** SQL rendering; floats as [%g]. *)
let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> format_float "%g" f
  | Bool b -> if b then "TRUE" else "FALSE"
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    add_quoted buf s;
    Buffer.contents buf

let add_to_buffer buf = function
  | Str s -> add_quoted buf s
  | v -> Buffer.add_string buf (to_string v)

let pp ppf v = Format.pp_print_string ppf (to_string v)

(** Raw rendering without SQL quoting, used by CSV export and display. *)
let to_display = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f -> format_float "%g" f
  | Bool b -> if b then "true" else "false"
  | Str s -> s

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "bool"
  | Str _ -> "text"

(** Numeric coercion helpers; raise {!Errors.Db_error} on mismatch. *)

let as_int = function
  | Int i -> i
  | v -> Errors.type_errorf "expected int, got %s (%s)" (to_string v) (type_name v)

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> Errors.type_errorf "expected float, got %s" (to_string v)

let as_bool = function
  | Bool b -> b
  | v -> Errors.type_errorf "expected bool, got %s" (to_string v)

let as_string = function
  | Str s -> s
  | v -> Errors.type_errorf "expected text, got %s" (to_string v)

(** Arithmetic with int/float promotion.  [Null] propagates. *)
let arith ~op_name fi ff a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (ff (as_float a) (as_float b))
  | _ ->
    Errors.type_errorf "cannot apply %s to %s and %s" op_name (type_name a)
      (type_name b)

let add = arith ~op_name:"+" ( + ) ( +. )
let sub = arith ~op_name:"-" ( - ) ( -. )
let mul = arith ~op_name:"*" ( * ) ( *. )

let div a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> Errors.type_errorf "division by zero"
  | _, Float 0. -> Errors.type_errorf "division by zero"
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a /. as_float b)
  | _ -> Errors.type_errorf "cannot divide %s by %s" (type_name a) (type_name b)

let rem a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> Errors.type_errorf "modulo by zero"
  | Int x, Int y -> Int (x mod y)
  | _ -> Errors.type_errorf "%% requires ints, got %s and %s" (type_name a) (type_name b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> Errors.type_errorf "cannot negate %s" (type_name v)

let concat a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Str x, Str y -> Str (x ^ y)
  | x, y -> Str (to_display x ^ to_display y)
