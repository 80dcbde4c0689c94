(** Render AST back to SQL text.

    Expressions print fully parenthesised, so printing followed by parsing
    is the identity on ASTs — a property enforced by the random round-trip
    fuzzer in the test suite (`test/test_ast_fuzz.ml`).  Float literals
    print exactly ({!Relational.Value.float_to_exact}), so a stored view
    or label keeps the constant it was given.

    There is one renderer, which builds the text in one buffer; the
    formatter entry points print its string. *)

val statement : Format.formatter -> Ast.statement -> unit

val expr_to_string : Ast.expr -> string
val select_to_string : Ast.select -> string
val statement_to_string : Ast.statement -> string
