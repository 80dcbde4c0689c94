(** Render AST back to SQL text (round-trip tested against the parser).
    One renderer writes every statement into a single buffer; the
    [Format] entry points wrap it. *)

open Relational

let add = Buffer.add_string
let add_int buf i = add buf (string_of_int i)

let add_sep_list buf sep f = function
  | [] -> ()
  | x :: rest ->
    f buf x;
    List.iter
      (fun x ->
        add buf sep;
        f buf x)
      rest

let add_list buf f xs = add_sep_list buf ", " f xs

(* A literal re-lexes as the same token: floats print exactly and always
   carry a [.] or an exponent, infinities as an overflowing literal. *)
let add_literal buf = function
  | Value.Float f when Float.abs f = Float.infinity ->
    add buf (if f > 0. then "1e999" else "-1e999")
  | Value.Float f -> add buf (Value.float_to_exact f)
  | v -> Value.add_to_buffer buf v

let rec add_expr buf (e : Ast.expr) =
  match e with
  | Ast.E_lit v -> add_literal buf v
  | Ast.E_param i ->
    Buffer.add_char buf '?';
    add_int buf i
  | Ast.E_col (None, n) -> add buf n
  | Ast.E_col (Some q, n) ->
    add buf q;
    Buffer.add_char buf '.';
    add buf n
  | Ast.E_neg e ->
    add buf "(-";
    add_expr buf e;
    Buffer.add_char buf ')'
  | Ast.E_not e ->
    add buf "(NOT ";
    add_expr buf e;
    Buffer.add_char buf ')'
  | Ast.E_is_null (e, is_null) ->
    Buffer.add_char buf '(';
    add_expr buf e;
    add buf (if is_null then " IS NULL)" else " IS NOT NULL)")
  | Ast.E_bin (op, a, b) ->
    Buffer.add_char buf '(';
    add_expr buf a;
    Buffer.add_char buf ' ';
    add buf (Expr.binop_to_string op);
    Buffer.add_char buf ' ';
    add_expr buf b;
    Buffer.add_char buf ')'
  | Ast.E_in_values (e, vs) ->
    Buffer.add_char buf '(';
    add_expr buf e;
    add buf " IN (";
    add_list buf add_expr vs;
    add buf "))"
  | Ast.E_in_select (es, negated, sub) ->
    Buffer.add_char buf '(';
    add_tuple buf es;
    add buf (if negated then " NOT IN (" else " IN (");
    add_select buf sub;
    add buf "))"
  | Ast.E_in_answer (es, rel) ->
    Buffer.add_char buf '(';
    add_tuple buf es;
    add buf " IN ANSWER ";
    add buf rel;
    Buffer.add_char buf ')'
  | Ast.E_like (a, b, negated) ->
    Buffer.add_char buf '(';
    add_expr buf a;
    add buf (if negated then " NOT LIKE " else " LIKE ");
    add_expr buf b;
    Buffer.add_char buf ')'
  | Ast.E_func (f, args) ->
    add buf f;
    Buffer.add_char buf '(';
    add_list buf add_expr args;
    Buffer.add_char buf ')'
  | Ast.E_star -> Buffer.add_char buf '*'
  | Ast.E_tuple es -> add_tuple buf es

and add_tuple buf = function
  | [ e ] -> add_expr buf e
  | es ->
    Buffer.add_char buf '(';
    add_list buf add_expr es;
    Buffer.add_char buf ')'

and add_assign buf (c, e) =
  add buf c;
  add buf " = ";
  add_expr buf e

and add_fulfilment_effect buf (fx : Ast.fulfilment_effect) =
  match fx with
  | Ast.Fx_insert (table, es) ->
    add buf "INSERT INTO ";
    add buf table;
    add buf " VALUES (";
    add_list buf add_expr es;
    Buffer.add_char buf ')'
  | Ast.Fx_update { fx_table; fx_set; fx_where } ->
    add buf "UPDATE ";
    add buf fx_table;
    add buf " SET ";
    add_list buf add_assign fx_set;
    add buf " WHERE ";
    add_sep_list buf " AND " add_assign fx_where
  | Ast.Fx_decrement { fx_table; fx_column; fx_where } ->
    add buf "DECREMENT ";
    add buf fx_table;
    Buffer.add_char buf '.';
    add buf fx_column;
    add buf " WHERE ";
    add_sep_list buf " AND " add_assign fx_where

and add_from_item buf (f : Ast.from_item) =
  (match f.Ast.f_source with
  | Ast.F_table name -> add buf name
  | Ast.F_subquery sub ->
    Buffer.add_char buf '(';
    add_select buf sub;
    Buffer.add_char buf ')');
  match f.Ast.f_alias with
  | None -> ()
  | Some a ->
    Buffer.add_char buf ' ';
    add buf a

and add_select buf (s : Ast.select) =
  add buf "SELECT ";
  if s.Ast.distinct then add buf "DISTINCT ";
  (match s.Ast.items, s.Ast.into_answer with
  | items, [] ->
    add_list buf
      (fun buf -> function
        | Ast.S_star -> Buffer.add_char buf '*'
        | Ast.S_expr (e, None) -> add_expr buf e
        | Ast.S_expr (e, Some a) ->
          add_expr buf e;
          add buf " AS ";
          add buf a)
      items
  | _, heads ->
    add_list buf
      (fun buf (es, rel) ->
        add_tuple buf es;
        add buf " INTO ANSWER ";
        add buf rel)
      heads);
  (match s.Ast.from with
  | [] -> ()
  | from ->
    add buf " FROM ";
    add_list buf add_from_item from);
  List.iter
    (fun (f, on_pred) ->
      add buf " LEFT JOIN ";
      add_from_item buf f;
      add buf " ON ";
      add_expr buf on_pred)
    s.Ast.left_joins;
  (match s.Ast.where with
  | None -> ()
  | Some w ->
    add buf " WHERE ";
    add_expr buf w);
  List.iter
    (fun fx ->
      add buf " THEN ";
      add_fulfilment_effect buf fx)
    s.Ast.fulfilment;
  (match s.Ast.group_by with
  | [] -> ()
  | gs ->
    add buf " GROUP BY ";
    add_list buf add_expr gs);
  (match s.Ast.having with
  | None -> ()
  | Some h ->
    add buf " HAVING ";
    add_expr buf h);
  (match s.Ast.order_by with
  | [] -> ()
  | os ->
    add buf " ORDER BY ";
    add_list buf
      (fun buf (e, d) ->
        add_expr buf e;
        add buf (match d with Plan.Asc -> " ASC" | Plan.Desc -> " DESC"))
      os);
  (match s.Ast.limit with
  | None -> ()
  | Some n ->
    add buf " LIMIT ";
    add_int buf n);
  (match s.Ast.choose with
  | None -> ()
  | Some k ->
    add buf " CHOOSE ";
    add_int buf k);
  match s.Ast.setop with
  | None -> ()
  | Some (kind, all, rhs) ->
    add buf
      (match kind with
      | Plan.Union -> " UNION"
      | Plan.Intersect -> " INTERSECT"
      | Plan.Except -> " EXCEPT");
    add buf (if all then " ALL " else " ");
    add_select buf rhs

let add_names buf names = add_list buf Buffer.add_string names

let rec add_statement buf (st : Ast.statement) =
  match st with
  | Ast.Select s -> add_select buf s
  | Ast.Create_table { t_name; t_columns; t_primary_key } ->
    add buf "CREATE TABLE ";
    add buf t_name;
    add buf " (";
    add_list buf
      (fun buf (c : Ast.column_def) ->
        add buf c.Ast.c_name;
        Buffer.add_char buf ' ';
        add buf (Ctype.to_string c.Ast.c_type);
        if not c.Ast.c_nullable then add buf " NOT NULL")
      t_columns;
    (match t_primary_key with
    | [] -> ()
    | pk ->
      add buf ", PRIMARY KEY (";
      add_names buf pk;
      Buffer.add_char buf ')');
    Buffer.add_char buf ')'
  | Ast.Drop_table n ->
    add buf "DROP TABLE ";
    add buf n
  | Ast.Create_view { v_name; v_query } ->
    add buf "CREATE VIEW ";
    add buf v_name;
    add buf " AS ";
    add_select buf v_query
  | Ast.Drop_view n ->
    add buf "DROP VIEW ";
    add buf n
  | Ast.Create_index { i_name; i_table; i_columns; i_unique } ->
    add buf (if i_unique then "CREATE UNIQUE INDEX " else "CREATE INDEX ");
    add buf i_name;
    add buf " ON ";
    add buf i_table;
    add buf " (";
    add_names buf i_columns;
    Buffer.add_char buf ')'
  | Ast.Insert { in_table; in_columns; in_rows; in_select } -> (
    add buf "INSERT INTO ";
    add buf in_table;
    (match in_columns with
    | None -> ()
    | Some cols ->
      add buf " (";
      add_names buf cols;
      Buffer.add_char buf ')');
    Buffer.add_char buf ' ';
    match in_select with
    | Some sub -> add_select buf sub
    | None ->
      add buf "VALUES ";
      add_list buf
        (fun buf row ->
          Buffer.add_char buf '(';
          add_list buf add_expr row;
          Buffer.add_char buf ')')
        in_rows)
  | Ast.Create_table_as { cta_name; cta_query } ->
    add buf "CREATE TABLE ";
    add buf cta_name;
    add buf " AS ";
    add_select buf cta_query
  | Ast.Update { u_table; u_sets; u_where } ->
    add buf "UPDATE ";
    add buf u_table;
    add buf " SET ";
    add_list buf add_assign u_sets;
    add_where buf u_where
  | Ast.Delete { d_table; d_where } ->
    add buf "DELETE FROM ";
    add buf d_table;
    add_where buf d_where
  | Ast.Explain s ->
    add buf "EXPLAIN ";
    add_statement buf s
  | Ast.Explain_analyze s ->
    add buf "EXPLAIN ANALYZE ";
    add_select buf s
  | Ast.Analyze t ->
    add buf "ANALYZE ";
    add buf t
  | Ast.Show_tables -> add buf "SHOW TABLES"
  | Ast.Show_pending -> add buf "SHOW PENDING"
  | Ast.Begin_txn -> add buf "BEGIN"
  | Ast.Commit_txn -> add buf "COMMIT"
  | Ast.Rollback_txn -> add buf "ROLLBACK"

and add_where buf = function
  | None -> ()
  | Some w ->
    add buf " WHERE ";
    add_expr buf w

let render f x =
  let buf = Buffer.create 128 in
  f buf x;
  Buffer.contents buf

let expr_to_string e = render add_expr e
let select_to_string s = render add_select s
let statement_to_string st = render add_statement st
let statement ppf st = Format.pp_print_string ppf (statement_to_string st)
