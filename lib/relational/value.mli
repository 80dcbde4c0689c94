(** Runtime values stored in tuples.

    The engine is dynamically typed at the value level; schemas (see
    {!Schema}) constrain which values a column accepts.  [Null] is a first
    class value with SQL-ish semantics: {!compare} gives a total order for
    storage purposes ([Null] smallest), while three-valued logic lives in
    {!Expr}. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used by indexes and ORDER BY.  [Null] sorts first; values
    of distinct runtime types are ordered by a fixed type rank; numeric
    [Int]/[Float] compare by numeric value (so [Int 2 = Float 2.0]). *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}, including the Int/Float numeric overlap. *)

val to_string : t -> string
(** SQL rendering: strings quoted with [''] escaping, floats as [%g]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** {!to_string} appended to a buffer. *)

val pp : Format.formatter -> t -> unit
(** {!to_string} on a formatter. *)

val float_to_exact : float -> string
(** Float text that reads back bit-equal through [float_of_string]: the
    shorter of [%.15g] and [%.17g] that round-trips, always carrying a [.]
    or an exponent (or reading [inf]/[nan]).  Floats of up to 12
    significant digits print as [string_of_float] prints them. *)

val to_display : t -> string
(** Raw rendering without SQL quoting, used by CSV export and display;
    [Null] shows as the empty string. *)

(** {1 Coercions} — raise {!Errors.Db_error} on mismatch. *)

val as_int : t -> int
val as_float : t -> float
(** [Int] widens. *)

val as_bool : t -> bool
val as_string : t -> string

(** {1 Arithmetic} — int/float promotion; [Null] propagates. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Integer division on two ints; raises on division by zero. *)

val rem : t -> t -> t
val neg : t -> t
val concat : t -> t -> t
