(** Recursive-descent parser for the Youtopia SQL dialect (see {!Ast}).

    Operator precedence (low to high): OR, AND, NOT, comparison / IN / IS,
    additive (plus, minus, concat), multiplicative (times, div, mod),
    unary minus.

    Entangled heads: the paper's grammar
    [SELECT es INTO ANSWER R [, ANSWER R'] …] contributes the same tuple to
    every listed relation; the extended form
    [SELECT (es) INTO ANSWER R, (es') INTO ANSWER R' …] contributes distinct
    tuples (needed for the flight+hotel coordination scenario). *)

open Relational

type state = { lexed : Lexer.lexed; mutable pos : int; mutable n_params : int }

let peek st = fst st.lexed.Lexer.tokens.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.lexed.Lexer.tokens then
    fst st.lexed.Lexer.tokens.(st.pos + 1)
  else Token.EOF

let offset st = snd st.lexed.Lexer.tokens.(st.pos)

let fail st msg =
  Errors.fail
    (Errors.Parse_error
       (Printf.sprintf "%s, found %s (at offset %d)" msg
          (Token.to_string (peek st))
          (offset st)))

let advance st = st.pos <- st.pos + 1

(* Token tests compare monomorphically; a keyword test reads the KW
   payload in place instead of building a token to compare against. *)
let at st tok = Token.equal (peek st) tok
let at_kw st kw = match peek st with Token.KW k -> String.equal k kw | _ -> false
let at2_kw st kw = match peek2 st with Token.KW k -> String.equal k kw | _ -> false

let eat st tok =
  if at st tok then advance st
  else fail st ("expected " ^ Token.to_string tok)

let accept st tok =
  if at st tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw =
  if at_kw st kw then begin
    advance st;
    true
  end
  else false

let eat_kw st kw = if at_kw st kw then advance st else fail st ("expected " ^ kw)

let ident st =
  match peek st with
  | Token.IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

let integer st =
  match peek st with
  | Token.INT i ->
    advance st;
    i
  | _ -> fail st "expected integer"

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "OR" then Ast.E_bin (Expr.Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "AND" then Ast.E_bin (Expr.And, lhs, parse_and st) else lhs

and parse_not st =
  if accept_kw st "NOT" then Ast.E_not (parse_not st) else parse_cmp st

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | Token.EQ ->
    advance st;
    Ast.E_bin (Expr.Eq, lhs, parse_add st)
  | Token.NEQ ->
    advance st;
    Ast.E_bin (Expr.Neq, lhs, parse_add st)
  | Token.LT ->
    advance st;
    Ast.E_bin (Expr.Lt, lhs, parse_add st)
  | Token.LEQ ->
    advance st;
    Ast.E_bin (Expr.Leq, lhs, parse_add st)
  | Token.GT ->
    advance st;
    Ast.E_bin (Expr.Gt, lhs, parse_add st)
  | Token.GEQ ->
    advance st;
    Ast.E_bin (Expr.Geq, lhs, parse_add st)
  | Token.KW "IS" ->
    advance st;
    let negated = accept_kw st "NOT" in
    eat_kw st "NULL";
    Ast.E_is_null (lhs, not negated)
  | Token.KW "IN" -> parse_in st lhs ~negated:false
  | Token.KW "LIKE" ->
    advance st;
    Ast.E_like (lhs, parse_add st, false)
  | Token.KW "BETWEEN" ->
    advance st;
    parse_between st lhs ~negated:false
  | Token.KW "NOT" when at2_kw st "IN" ->
    advance st;
    parse_in st lhs ~negated:true
  | Token.KW "NOT" when at2_kw st "LIKE" ->
    advance st;
    advance st;
    Ast.E_like (lhs, parse_add st, true)
  | Token.KW "NOT" when at2_kw st "BETWEEN" ->
    advance st;
    advance st;
    parse_between st lhs ~negated:true
  | _ -> lhs

(** Desugar [lhs [NOT] BETWEEN lo AND hi] into a conjunction. *)
and parse_between st lhs ~negated =
  let lo = parse_add st in
  eat_kw st "AND";
  let hi = parse_add st in
  let conj =
    Ast.E_bin
      ( Expr.And,
        Ast.E_bin (Expr.Geq, lhs, lo),
        Ast.E_bin (Expr.Leq, lhs, hi) )
  in
  if negated then Ast.E_not conj else conj

(** Parse the tail of [lhs [NOT] IN …]. *)
and parse_in st lhs ~negated =
  eat_kw st "IN";
  let lhs_list = match lhs with Ast.E_tuple es -> es | e -> [ e ] in
  if accept_kw st "ANSWER" then begin
    let rel = ident st in
    if negated then
      Errors.fail (Errors.Parse_error "NOT IN ANSWER is not supported");
    Ast.E_in_answer (lhs_list, rel)
  end
  else begin
    eat st Token.LPAREN;
    match peek st with
    | Token.KW "SELECT" ->
      let sub = parse_select_body st in
      eat st Token.RPAREN;
      Ast.E_in_select (lhs_list, negated, sub)
    | _ ->
      let first = parse_expr st in
      let values = ref [ first ] in
      while accept st Token.COMMA do
        values := parse_expr st :: !values
      done;
      eat st Token.RPAREN;
      let e =
        match lhs_list with
        | [ single ] -> Ast.E_in_values (single, List.rev !values)
        | _ ->
          Errors.fail
            (Errors.Parse_error "tuple IN (value list) is not supported")
      in
      if negated then Ast.E_not e else e
  end

and parse_add st =
  let rec loop lhs =
    match peek st with
    | Token.PLUS ->
      advance st;
      loop (Ast.E_bin (Expr.Add, lhs, parse_mul st))
    | Token.MINUS ->
      advance st;
      loop (Ast.E_bin (Expr.Sub, lhs, parse_mul st))
    | Token.CONCAT ->
      advance st;
      loop (Ast.E_bin (Expr.Concat, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek st with
    | Token.STAR ->
      advance st;
      loop (Ast.E_bin (Expr.Mul, lhs, parse_unary st))
    | Token.SLASH ->
      advance st;
      loop (Ast.E_bin (Expr.Div, lhs, parse_unary st))
    | Token.PERCENT ->
      advance st;
      loop (Ast.E_bin (Expr.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  if accept st Token.MINUS then Ast.E_neg (parse_unary st) else parse_primary st

and parse_primary st =
  match peek st with
  | Token.INT i ->
    advance st;
    Ast.E_lit (Value.Int i)
  | Token.FLOAT f ->
    advance st;
    Ast.E_lit (Value.Float f)
  | Token.STRING s ->
    advance st;
    Ast.E_lit (Value.Str s)
  | Token.QMARK ->
    advance st;
    let i = st.n_params in
    st.n_params <- st.n_params + 1;
    Ast.E_param i
  | Token.KW "NULL" ->
    advance st;
    Ast.E_lit Value.Null
  | Token.KW "TRUE" ->
    advance st;
    Ast.E_lit (Value.Bool true)
  | Token.KW "FALSE" ->
    advance st;
    Ast.E_lit (Value.Bool false)
  | Token.LPAREN ->
    advance st;
    let first = parse_expr st in
    if accept st Token.COMMA then begin
      (* Tuple literal: only legal before IN / INTO ANSWER. *)
      let rest = ref [ first ] in
      let continue = ref true in
      while !continue do
        rest := parse_expr st :: !rest;
        continue := accept st Token.COMMA
      done;
      eat st Token.RPAREN;
      Ast.E_tuple (List.rev !rest)
    end
    else begin
      eat st Token.RPAREN;
      first
    end
  | Token.IDENT name -> (
    advance st;
    match peek st with
    | Token.LPAREN ->
      advance st;
      let args =
        if at st Token.STAR then begin
          advance st;
          [ Ast.E_star ]
        end
        else if at st Token.RPAREN then []
        else begin
          let first = parse_expr st in
          let args = ref [ first ] in
          while accept st Token.COMMA do
            args := parse_expr st :: !args
          done;
          List.rev !args
        end
      in
      eat st Token.RPAREN;
      Ast.E_func (String.lowercase_ascii name, args)
    | Token.DOT ->
      advance st;
      let col = ident st in
      Ast.E_col (Some name, col)
    | _ -> Ast.E_col (None, name))
  | _ -> fail st "expected expression"

(* ------------------------------------------------------------------ *)
(* SELECT *)

and parse_select_body st : Ast.select =
  eat_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  (* Select items.  A leading tuple item signals the multi-head entangled
     form and must be followed by INTO. *)
  let items = ref [] in
  let parse_item () =
    if at st Token.STAR then begin
      advance st;
      Ast.S_star
    end
    else begin
      let e = parse_expr st in
      let alias =
        if accept_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Token.IDENT a ->
            advance st;
            Some a
          | _ -> None
      in
      Ast.S_expr (e, alias)
    end
  in
  items := [ parse_item () ];
  (* Multi-head form: (tuple) INTO ANSWER R, (tuple) INTO ANSWER R', …  *)
  let into_answer = ref [] in
  let head_exprs_of_item = function
    | Ast.S_expr (Ast.E_tuple es, _) -> es
    | Ast.S_expr (e, _) -> [ e ]
    | Ast.S_star ->
      Errors.fail (Errors.Parse_error "cannot use * as an entangled head")
  in
  let rec more_items () =
    if accept st Token.COMMA then begin
      items := parse_item () :: !items;
      more_items ()
    end
  in
  (* If the first item is a tuple, commas separate heads, not items; in that
     case we parse `INTO ANSWER R` right away and loop on heads. *)
  (match !items with
  | [ Ast.S_expr (Ast.E_tuple first_tuple, _) ] when at_kw st "INTO" ->
    eat_kw st "INTO";
    eat_kw st "ANSWER";
    let rel = ident st in
    into_answer := [ first_tuple, rel ];
    let rec heads () =
      if accept st Token.COMMA then begin
        if accept_kw st "ANSWER" then begin
          (* same tuple into another relation *)
          let rel' = ident st in
          into_answer := (first_tuple, rel') :: !into_answer;
          heads ()
        end
        else begin
          let item = parse_item () in
          eat_kw st "INTO";
          eat_kw st "ANSWER";
          let rel' = ident st in
          into_answer := (head_exprs_of_item item, rel') :: !into_answer;
          heads ()
        end
      end
    in
    heads ();
    items := []
  | _ ->
    more_items ();
    (* Paper form: items INTO ANSWER R [, ANSWER R'] … *)
    if accept_kw st "INTO" then begin
      eat_kw st "ANSWER";
      let tuple = List.concat_map head_exprs_of_item (List.rev !items) in
      let rel = ident st in
      into_answer := [ tuple, rel ];
      while at st Token.COMMA && at2_kw st "ANSWER" do
        advance st;
        (* COMMA *)
        eat_kw st "ANSWER";
        let rel' = ident st in
        into_answer := (tuple, rel') :: !into_answer
      done;
      items := []
    end);
  let items = List.rev !items in
  let into_answer = List.rev !into_answer in
  (* FROM with comma and JOIN … ON (inner ON folded into WHERE); LEFT
     [OUTER] JOINs are kept separate — they apply after the inner block. *)
  let from = ref [] in
  let left_joins = ref [] in
  let join_preds = ref [] in
  if accept_kw st "FROM" then begin
    let parse_from_ref () =
      let source =
        if at st Token.LPAREN then begin
          advance st;
          if not (at_kw st "SELECT") then
            fail st "expected SELECT in derived table";
          let sub = parse_select_body st in
          eat st Token.RPAREN;
          Ast.F_subquery sub
        end
        else Ast.F_table (ident st)
      in
      let alias =
        if accept_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Token.IDENT a ->
            advance st;
            Some a
          | _ -> None
      in
      Ast.{ f_source = source; f_alias = alias }
    in
    let parse_from_item () = from := parse_from_ref () :: !from in
    parse_from_item ();
    let rec joins () =
      if accept st Token.COMMA then begin
        parse_from_item ();
        joins ()
      end
      else if at_kw st "LEFT" then begin
        advance st;
        ignore (accept_kw st "OUTER");
        eat_kw st "JOIN";
        let item = parse_from_ref () in
        if not (accept_kw st "ON") then fail st "expected ON after LEFT JOIN";
        left_joins := (item, parse_expr st) :: !left_joins;
        joins ()
      end
      else if at_kw st "JOIN"
              || at_kw st "INNER"
              || at_kw st "CROSS"
      then begin
        let cross = accept_kw st "CROSS" in
        ignore (accept_kw st "INNER");
        eat_kw st "JOIN";
        parse_from_item ();
        if not cross then
          if accept_kw st "ON" then join_preds := parse_expr st :: !join_preds
          else fail st "expected ON after JOIN";
        joins ()
      end
    in
    joins ()
  end;
  let where =
    if accept_kw st "WHERE" then Some (parse_expr st) else None
  in
  (* Fulfilment effects: THEN <dml> [THEN <dml>] … — each clause is one
     effect, so the commas inside SET lists and VALUES tuples are
     unambiguous. *)
  let fulfilment = ref [] in
  while at_kw st "THEN" do
    advance st;
    fulfilment := parse_fulfilment_effect st :: !fulfilment
  done;
  let fulfilment = List.rev !fulfilment in
  let where =
    match List.rev !join_preds, where with
    | [], w -> w
    | preds, None ->
      Some
        (List.fold_left
           (fun acc p -> Ast.E_bin (Expr.And, acc, p))
           (List.hd preds) (List.tl preds))
    | preds, Some w ->
      Some (List.fold_left (fun acc p -> Ast.E_bin (Expr.And, acc, p)) w preds)
  in
  let group_by =
    if accept_kw st "GROUP" then begin
      eat_kw st "BY";
      let first = parse_expr st in
      let acc = ref [ first ] in
      while accept st Token.COMMA do
        acc := parse_expr st :: !acc
      done;
      List.rev !acc
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      eat_kw st "BY";
      let parse_key () =
        let e = parse_expr st in
        let dir =
          if accept_kw st "DESC" then Plan.Desc
          else begin
            ignore (accept_kw st "ASC");
            Plan.Asc
          end
        in
        e, dir
      in
      let acc = ref [ parse_key () ] in
      while accept st Token.COMMA do
        acc := parse_key () :: !acc
      done;
      List.rev !acc
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (integer st) else None in
  let choose = if accept_kw st "CHOOSE" then Some (integer st) else None in
  let setop =
    let kind =
      if accept_kw st "UNION" then Some Plan.Union
      else if accept_kw st "INTERSECT" then Some Plan.Intersect
      else if accept_kw st "EXCEPT" then Some Plan.Except
      else None
    in
    match kind with
    | None -> None
    | Some kind ->
      let all = accept_kw st "ALL" in
      Some (kind, all, parse_select_body st)
  in
  {
    Ast.distinct;
    items;
    into_answer;
    from = List.rev !from;
    left_joins = List.rev !left_joins;
    where;
    fulfilment;
    group_by;
    having;
    order_by;
    limit;
    choose;
    setop;
  }

(* One THEN clause.  WHERE parts are restricted to [col = term AND …] —
   that is all the fulfilment executor supports (equality pins against the
   match's substitution), so richer predicates are rejected at parse time.
   Right-hand sides use the additive grammar: AND must terminate a pin, and
   comparisons inside a pin value are meaningless. *)
and parse_fulfilment_effect st : Ast.fulfilment_effect =
  let parse_eq_pins () =
    let parse_pin () =
      let col = ident st in
      eat st Token.EQ;
      col, parse_add st
    in
    let acc = ref [ parse_pin () ] in
    while accept_kw st "AND" do
      acc := parse_pin () :: !acc
    done;
    List.rev !acc
  in
  if accept_kw st "INSERT" then begin
    eat_kw st "INTO";
    let table = ident st in
    eat_kw st "VALUES";
    eat st Token.LPAREN;
    let acc = ref [ parse_add st ] in
    while accept st Token.COMMA do
      acc := parse_add st :: !acc
    done;
    eat st Token.RPAREN;
    Ast.Fx_insert (table, List.rev !acc)
  end
  else if accept_kw st "UPDATE" then begin
    let table = ident st in
    eat_kw st "SET";
    let parse_set () =
      let col = ident st in
      eat st Token.EQ;
      col, parse_add st
    in
    let sets = ref [ parse_set () ] in
    while accept st Token.COMMA do
      sets := parse_set () :: !sets
    done;
    eat_kw st "WHERE";
    Ast.Fx_update
      { fx_table = table; fx_set = List.rev !sets; fx_where = parse_eq_pins () }
  end
  else if accept_kw st "DECREMENT" then begin
    let table = ident st in
    eat st Token.DOT;
    let column = ident st in
    eat_kw st "WHERE";
    Ast.Fx_decrement
      { fx_table = table; fx_column = column; fx_where = parse_eq_pins () }
  end
  else fail st "expected INSERT, UPDATE or DECREMENT after THEN"

(* ------------------------------------------------------------------ *)
(* Statements *)

let parse_column_defs st =
  eat st Token.LPAREN;
  let cols = ref [] in
  let table_pk = ref [] in
  let parse_one () =
    if at_kw st "PRIMARY" then begin
      advance st;
      eat_kw st "KEY";
      eat st Token.LPAREN;
      let acc = ref [ ident st ] in
      while accept st Token.COMMA do
        acc := ident st :: !acc
      done;
      eat st Token.RPAREN;
      table_pk := List.rev !acc
    end
    else begin
      let name = ident st in
      let ty_name =
        match peek st with
        | Token.IDENT s ->
          advance st;
          s
        | _ -> fail st "expected column type"
      in
      let c_type =
        match Ctype.of_string ty_name with
        | Some t -> t
        | None ->
          Errors.fail (Errors.Parse_error ("unknown column type " ^ ty_name))
      in
      let c_nullable = ref true in
      let c_primary = ref false in
      let rec modifiers () =
        if accept_kw st "NOT" then begin
          eat_kw st "NULL";
          c_nullable := false;
          modifiers ()
        end
        else if accept_kw st "NULL" then modifiers ()
        else if accept_kw st "PRIMARY" then begin
          eat_kw st "KEY";
          c_primary := true;
          c_nullable := false;
          modifiers ()
        end
      in
      modifiers ();
      cols :=
        Ast.{ c_name = name; c_type; c_nullable = !c_nullable; c_primary = !c_primary }
        :: !cols
    end
  in
  parse_one ();
  while accept st Token.COMMA do
    parse_one ()
  done;
  eat st Token.RPAREN;
  List.rev !cols, !table_pk

let rec parse_statement st : Ast.statement =
  match peek st with
  | Token.KW "SELECT" -> Ast.Select (parse_select_body st)
  | Token.KW "EXPLAIN" ->
    advance st;
    if accept_kw st "ANALYZE" then begin
      if not (at_kw st "SELECT") then
        fail st "EXPLAIN ANALYZE takes a SELECT";
      Ast.Explain_analyze (parse_select_body st)
    end
    else Ast.Explain (parse_statement st)
  | Token.KW "ANALYZE" ->
    advance st;
    Ast.Analyze (ident st)
  | Token.KW "SHOW" ->
    advance st;
    if accept_kw st "TABLES" then Ast.Show_tables
    else if accept_kw st "PENDING" then Ast.Show_pending
    else fail st "expected TABLES or PENDING after SHOW"
  | Token.KW "BEGIN" ->
    advance st;
    Ast.Begin_txn
  | Token.KW "COMMIT" ->
    advance st;
    Ast.Commit_txn
  | Token.KW "ROLLBACK" ->
    advance st;
    Ast.Rollback_txn
  | Token.KW "CREATE" -> (
    advance st;
    let unique = accept_kw st "UNIQUE" in
    if accept_kw st "TABLE" then begin
      if unique then fail st "UNIQUE TABLE is not a thing";
      let name = ident st in
      if accept_kw st "AS" then begin
        if not (at_kw st "SELECT") then fail st "expected SELECT after AS";
        Ast.Create_table_as { cta_name = name; cta_query = parse_select_body st }
      end
      else begin
      let cols, table_pk = parse_column_defs st in
      let col_pk =
        List.filter_map
          (fun c -> if c.Ast.c_primary then Some c.Ast.c_name else None)
          cols
      in
      let t_primary_key =
        match table_pk, col_pk with
        | [], pk -> pk
        | pk, [] -> pk
        | _ ->
          Errors.fail
            (Errors.Parse_error
               "both table-level and column-level PRIMARY KEY given")
      in
      Ast.Create_table { t_name = name; t_columns = cols; t_primary_key }
      end
    end
    else if accept_kw st "VIEW" then begin
      if unique then fail st "UNIQUE VIEW is not a thing";
      let name = ident st in
      eat_kw st "AS";
      if not (at_kw st "SELECT") then fail st "expected SELECT after AS";
      Ast.Create_view { v_name = name; v_query = parse_select_body st }
    end
    else if accept_kw st "INDEX" then begin
      let i_name = ident st in
      eat_kw st "ON";
      let i_table = ident st in
      eat st Token.LPAREN;
      let acc = ref [ ident st ] in
      while accept st Token.COMMA do
        acc := ident st :: !acc
      done;
      eat st Token.RPAREN;
      Ast.Create_index
        { i_name; i_table; i_columns = List.rev !acc; i_unique = unique }
    end
    else fail st "expected TABLE, VIEW or INDEX after CREATE")
  | Token.KW "DROP" ->
    advance st;
    if accept_kw st "VIEW" then Ast.Drop_view (ident st)
    else begin
      eat_kw st "TABLE";
      Ast.Drop_table (ident st)
    end
  | Token.KW "INSERT" ->
    advance st;
    eat_kw st "INTO";
    let table = ident st in
    let columns =
      if at st Token.LPAREN then begin
        advance st;
        let acc = ref [ ident st ] in
        while accept st Token.COMMA do
          acc := ident st :: !acc
        done;
        eat st Token.RPAREN;
        Some (List.rev !acc)
      end
      else None
    in
    if at_kw st "SELECT" then
      Ast.Insert
        {
          in_table = table;
          in_columns = columns;
          in_rows = [];
          in_select = Some (parse_select_body st);
        }
    else begin
      eat_kw st "VALUES";
      let parse_row () =
        eat st Token.LPAREN;
        let acc = ref [ parse_expr st ] in
        while accept st Token.COMMA do
          acc := parse_expr st :: !acc
        done;
        eat st Token.RPAREN;
        List.rev !acc
      in
      let rows = ref [ parse_row () ] in
      while accept st Token.COMMA do
        rows := parse_row () :: !rows
      done;
      Ast.Insert
        {
          in_table = table;
          in_columns = columns;
          in_rows = List.rev !rows;
          in_select = None;
        }
    end
  | Token.KW "UPDATE" ->
    advance st;
    let table = ident st in
    eat_kw st "SET";
    let parse_set () =
      let col = ident st in
      eat st Token.EQ;
      col, parse_expr st
    in
    let sets = ref [ parse_set () ] in
    while accept st Token.COMMA do
      sets := parse_set () :: !sets
    done;
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Ast.Update { u_table = table; u_sets = List.rev !sets; u_where = where }
  | Token.KW "DELETE" ->
    advance st;
    eat_kw st "FROM";
    let table = ident st in
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Ast.Delete { d_table = table; d_where = where }
  | _ -> fail st "expected a statement"

(** [parse_one sql] parses a single statement (trailing [;] allowed). *)
let parse_one sql =
  let st = { lexed = Lexer.tokenize sql; pos = 0; n_params = 0 } in
  let stmt = parse_statement st in
  ignore (accept st Token.SEMI);
  if not (at st Token.EOF) then fail st "trailing input after statement";
  stmt

(** [parse_prepared sql] — like {!parse_one} but also returns the number of
    positional [?] parameters. *)
let parse_prepared sql =
  let st = { lexed = Lexer.tokenize sql; pos = 0; n_params = 0 } in
  let stmt = parse_statement st in
  ignore (accept st Token.SEMI);
  if not (at st Token.EOF) then fail st "trailing input after statement";
  stmt, st.n_params

(** [parse_script sql] parses a [;]-separated script. *)
let parse_script sql =
  let st = { lexed = Lexer.tokenize sql; pos = 0; n_params = 0 } in
  let acc = ref [] in
  while not (at st Token.EOF) do
    acc := parse_statement st :: !acc;
    if not (at st Token.EOF) then eat st Token.SEMI
  done;
  List.rev !acc

(** [parse_expression s] parses a standalone expression (for tests). *)
let parse_expression s =
  let st = { lexed = Lexer.tokenize s; pos = 0; n_params = 0 } in
  let e = parse_expr st in
  if not (at st Token.EOF) then fail st "trailing input after expression";
  e
