(** Column types declared in schemas. *)

type t = TInt | TFloat | TBool | TText

let to_string = function
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TBool -> "BOOL"
  | TText -> "TEXT"

let pp ppf t = Fmt.string ppf (to_string t)

let of_string s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" -> Some TInt
  | "FLOAT" | "REAL" | "DOUBLE" -> Some TFloat
  | "BOOL" | "BOOLEAN" -> Some TBool
  | "TEXT" | "VARCHAR" | "STRING" | "CHAR" -> Some TText
  | _ -> None

(** [accepts t v] is true when value [v] may be stored in a column of type
    [t].  [Null] acceptance is decided separately by the column's
    nullability.  An integral [Float] is accepted by [TInt] columns after
    normalisation via {!normalize}. *)
let accepts t (v : Value.t) =
  match t, v with
  | _, Value.Null -> true
  | TInt, Value.Int _ -> true
  | TFloat, (Value.Float _ | Value.Int _) -> true
  | TBool, Value.Bool _ -> true
  | TText, Value.Str _ -> true
  | (TInt | TFloat | TBool | TText), _ -> false

(** [normalize t v] coerces [v] to the canonical representation for a column
    of type [t]: ints widen to floats in [TFloat] columns.  Raises on values
    the column does not accept. *)
let normalize t (v : Value.t) =
  match t, v with
  | _, Value.Null -> Value.Null
  | TFloat, Value.Int i -> Value.Float (float_of_int i)
  | _ ->
    if accepts t v then v
    else
      Errors.type_errorf "value %s does not fit column type %s"
        (Value.to_string v) (to_string t)

(** Type of a value, for inference; [Null] has no ctype. *)
let of_value = function
  | Value.Null -> None
  | Value.Int _ -> Some TInt
  | Value.Float _ -> Some TFloat
  | Value.Bool _ -> Some TBool
  | Value.Str _ -> Some TText
