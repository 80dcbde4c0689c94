(** Hand-written lexer.  Produces a token array with source positions for
    error reporting.  SQL conventions: identifiers and keywords are
    case-insensitive, strings are single-quoted with [''] escaping, [--]
    starts a line comment. *)

open Relational

type lexed = { tokens : (Token.t * int) array }  (** token, byte offset *)

let fail pos msg =
  Errors.fail (Errors.Parse_error (Printf.sprintf "%s (at offset %d)" msg pos))

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : lexed =
  let n = String.length src in
  (* about one token per five bytes of SQL; the array doubles past that *)
  let tokens = ref (Array.make ((n / 5) + 4) (Token.EOF, 0)) and count = ref 0 in
  let emit pos tok =
    if !count = Array.length !tokens then begin
      let grown = Array.make (2 * !count) (Token.EOF, 0) in
      Array.blit !tokens 0 grown 0 !count;
      tokens := grown
    end;
    !tokens.(!count) <- (tok, pos);
    incr count
  in
  let rec skip_line_comment i = if i >= n || src.[i] = '\n' then i else skip_line_comment (i + 1) in
  let rec loop i =
    if i >= n then emit i Token.EOF
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> loop (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' -> loop (skip_line_comment (i + 2))
      | '(' ->
        emit i Token.LPAREN;
        loop (i + 1)
      | ')' ->
        emit i Token.RPAREN;
        loop (i + 1)
      | ',' ->
        emit i Token.COMMA;
        loop (i + 1)
      | '.' when not (i + 1 < n && is_digit src.[i + 1]) ->
        emit i Token.DOT;
        loop (i + 1)
      | '*' ->
        emit i Token.STAR;
        loop (i + 1)
      | ';' ->
        emit i Token.SEMI;
        loop (i + 1)
      | '=' ->
        emit i Token.EQ;
        loop (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '>' ->
        emit i Token.NEQ;
        loop (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' ->
        emit i Token.LEQ;
        loop (i + 2)
      | '<' ->
        emit i Token.LT;
        loop (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '=' ->
        emit i Token.GEQ;
        loop (i + 2)
      | '>' ->
        emit i Token.GT;
        loop (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' ->
        emit i Token.NEQ;
        loop (i + 2)
      | '+' ->
        emit i Token.PLUS;
        loop (i + 1)
      | '-' ->
        emit i Token.MINUS;
        loop (i + 1)
      | '/' ->
        emit i Token.SLASH;
        loop (i + 1)
      | '%' ->
        emit i Token.PERCENT;
        loop (i + 1)
      | '|' when i + 1 < n && src.[i + 1] = '|' ->
        emit i Token.CONCAT;
        loop (i + 2)
      | '?' ->
        emit i Token.QMARK;
        loop (i + 1)
      | '\'' -> lex_string i (i + 1) (Buffer.create 16)
      | c when is_digit c || (c = '.' && i + 1 < n && is_digit src.[i + 1]) ->
        lex_number i i
      | c when is_ident_start c -> lex_ident i i
      | c -> fail i (Printf.sprintf "unexpected character %C" c)
  and lex_string start i buf =
    if i >= n then fail start "unterminated string literal"
    else if src.[i] = '\'' then
      if i + 1 < n && src.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        lex_string start (i + 2) buf
      end
      else begin
        emit start (Token.STRING (Buffer.contents buf));
        loop (i + 1)
      end
    else begin
      Buffer.add_char buf src.[i];
      lex_string start (i + 1) buf
    end
  and lex_number start i =
    let j = ref i in
    let is_float = ref false in
    while
      !j < n
      && (is_digit src.[!j]
         || src.[!j] = '.'
         || src.[!j] = 'e'
         || src.[!j] = 'E'
         || ((src.[!j] = '+' || src.[!j] = '-')
            && !j > i
            && (src.[!j - 1] = 'e' || src.[!j - 1] = 'E')))
    do
      if src.[!j] = '.' || src.[!j] = 'e' || src.[!j] = 'E' then is_float := true;
      incr j
    done;
    let text = String.sub src start (!j - start) in
    (if !is_float then
       match float_of_string_opt text with
       | Some f -> emit start (Token.FLOAT f)
       | None -> fail start ("bad numeric literal " ^ text)
     else
       match int_of_string_opt text with
       | Some k -> emit start (Token.INT k)
       | None -> fail start ("bad integer literal " ^ text));
    loop !j
  and lex_ident start i =
    let j = ref i in
    while !j < n && is_ident_char src.[!j] do
      incr j
    done;
    let text = String.sub src start (!j - start) in
    let upper =
      if String.exists (fun c -> c >= 'a' && c <= 'z') text then
        String.uppercase_ascii text
      else text
    in
    emit start (if Token.is_reserved upper then Token.KW upper else Token.IDENT text);
    loop !j
  in
  loop 0;
  { tokens = Array.sub !tokens 0 !count }
