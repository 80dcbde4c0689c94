(** Lexical tokens. *)

type t =
  | INT of int
  | FLOAT of float
  | STRING of string
  | IDENT of string  (** unquoted identifier or non-reserved keyword *)
  | KW of string  (** reserved keyword, uppercased *)
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | SEMI
  | EQ
  | NEQ
  | LT
  | LEQ
  | GT
  | GEQ
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | CONCAT  (** || *)
  | QMARK  (** positional parameter in prepared statements *)
  | EOF

(** Reserved words of the dialect (uppercase). *)
let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "INTO"; "ANSWER"; "CHOOSE"; "AND"; "OR"; "NOT";
    "IN"; "IS"; "NULL"; "TRUE"; "FALSE"; "AS"; "DISTINCT"; "GROUP"; "BY";
    "ORDER"; "ASC"; "DESC"; "LIMIT"; "CREATE"; "TABLE"; "DROP"; "INDEX";
    "UNIQUE"; "ON"; "PRIMARY"; "KEY"; "INSERT"; "VALUES"; "UPDATE"; "SET";
    "DELETE"; "JOIN"; "INNER"; "CROSS"; "BEGIN"; "COMMIT"; "ROLLBACK";
    "EXPLAIN"; "SHOW"; "TABLES"; "PENDING"; "HAVING"; "LEFT"; "OUTER";
    "UNION"; "INTERSECT"; "EXCEPT"; "ALL"; "BETWEEN"; "LIKE"; "VIEW";
    "ANALYZE"; "THEN"; "DECREMENT";
  ]

(* The lexer's keyword test: one [match] on the uppercased spelling.  It
   must list exactly [keywords] (the sql suite checks the two agree). *)
let is_reserved = function
  | "SELECT" | "FROM" | "WHERE" | "INTO" | "ANSWER" | "CHOOSE" | "AND" | "OR"
  | "NOT" | "IN" | "IS" | "NULL" | "TRUE" | "FALSE" | "AS" | "DISTINCT"
  | "GROUP" | "BY" | "ORDER" | "ASC" | "DESC" | "LIMIT" | "CREATE" | "TABLE"
  | "DROP" | "INDEX" | "UNIQUE" | "ON" | "PRIMARY" | "KEY" | "INSERT"
  | "VALUES" | "UPDATE" | "SET" | "DELETE" | "JOIN" | "INNER" | "CROSS"
  | "BEGIN" | "COMMIT" | "ROLLBACK" | "EXPLAIN" | "SHOW" | "TABLES"
  | "PENDING" | "HAVING" | "LEFT" | "OUTER" | "UNION" | "INTERSECT" | "EXCEPT"
  | "ALL" | "BETWEEN" | "LIKE" | "VIEW" | "ANALYZE" | "THEN" | "DECREMENT" ->
    true
  | _ -> false

let equal a b =
  match a, b with
  | INT x, INT y -> Int.equal x y
  | FLOAT x, FLOAT y -> Float.equal x y
  | STRING x, STRING y | IDENT x, IDENT y | KW x, KW y -> String.equal x y
  | (INT _ | FLOAT _ | STRING _ | IDENT _ | KW _), _ -> false
  | _ -> a == b (* constant constructors *)

let to_string = function
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | IDENT s -> s
  | KW s -> s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | SEMI -> ";"
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LEQ -> "<="
  | GT -> ">"
  | GEQ -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | PERCENT -> "%"
  | CONCAT -> "||"
  | QMARK -> "?"
  | EOF -> "<eof>"
