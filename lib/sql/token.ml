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

(* Built once; the lexer consults it for every identifier it meets. *)
module Kw = Hashtbl.Make (String)

let keyword_set =
  let h = Kw.create 128 in
  List.iter (fun k -> Kw.replace h k ()) keywords;
  h

let is_keyword s = Kw.mem keyword_set (String.uppercase_ascii s)

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
