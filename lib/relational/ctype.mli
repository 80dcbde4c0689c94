(** Column types declared in schemas. *)

type t = TInt | TFloat | TBool | TText

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string : string -> t option
(** Accepts common SQL spellings (INT/INTEGER/BIGINT, FLOAT/REAL/DOUBLE,
    BOOL/BOOLEAN, TEXT/VARCHAR/STRING/CHAR), case-insensitively. *)

val accepts : t -> Value.t -> bool
(** [accepts t v] — may [v] be stored in a column of type [t]?  [Null]
    acceptance is decided separately by the column's nullability; [TFloat]
    accepts ints (widened by {!normalize}). *)

val normalize : t -> Value.t -> Value.t
(** Coerce to the canonical representation for the column type; raises on
    values the column does not accept. *)

val of_value : Value.t -> t option
(** Type of a value, for inference; [Null] has no ctype. *)
