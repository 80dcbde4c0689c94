(* Reference renderers for the byte-identity properties in
   [test_render.ml]: the [Fmt]/[Printf] renderers the buffer-based ones
   replaced, kept verbatim except that floats print in the exact text of
   [Value.float_to_exact] wherever the replacements deliberately changed
   them (SQL literals and the WAL/wire value codec).  Result display
   keeps [%g]. *)

open Relational

(* ---------------- values and tuples (display) ---------------- *)

let value_pp ppf = function
  | Value.Null -> Fmt.string ppf "NULL"
  | Value.Int i -> Fmt.int ppf i
  | Value.Float f -> Fmt.pf ppf "%g" f
  | Value.Bool b -> Fmt.string ppf (if b then "TRUE" else "FALSE")
  | Value.Str s ->
    Fmt.pf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))

let tuple_pp ppf (t : Tuple.t) =
  Fmt.pf ppf "(@[%a@])" Fmt.(array ~sep:(any ", ") value_pp) t

let result_to_string = function
  | Sql.Run.Rows (schema, rows) ->
    Fmt.str "@[<v>%a@,%a@,(%d row(s))@]"
      Fmt.(list ~sep:(any " | ") string)
      (Schema.column_names schema)
      Fmt.(list ~sep:cut tuple_pp)
      rows (List.length rows)
  | Sql.Run.Affected n -> Printf.sprintf "%d row(s) affected" n
  | Sql.Run.Ok_msg m -> m
  | Sql.Run.Explained p -> p

(* ---------------- SQL text ---------------- *)

module Pretty = struct
  let sql_literal ppf = function
    | Value.Float f -> Fmt.string ppf (Value.float_to_exact f)
    | v -> value_pp ppf v

  let rec expr ppf (e : Sql.Ast.expr) =
    match e with
    | Sql.Ast.E_lit v -> sql_literal ppf v
    | Sql.Ast.E_param i -> Fmt.pf ppf "?%d" i
    | Sql.Ast.E_col (None, n) -> Fmt.string ppf n
    | Sql.Ast.E_col (Some q, n) -> Fmt.pf ppf "%s.%s" q n
    | Sql.Ast.E_neg e -> Fmt.pf ppf "(-%a)" expr e
    | Sql.Ast.E_not e -> Fmt.pf ppf "(NOT %a)" expr e
    | Sql.Ast.E_is_null (e, true) -> Fmt.pf ppf "(%a IS NULL)" expr e
    | Sql.Ast.E_is_null (e, false) -> Fmt.pf ppf "(%a IS NOT NULL)" expr e
    | Sql.Ast.E_bin (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" expr a (Expr.binop_to_string op) expr b
    | Sql.Ast.E_in_values (e, vs) ->
      Fmt.pf ppf "(%a IN (%a))" expr e Fmt.(list ~sep:(any ", ") expr) vs
    | Sql.Ast.E_in_select (es, negated, sub) ->
      Fmt.pf ppf "(%a %sIN (%a))" tuple es
        (if negated then "NOT " else "")
        select sub
    | Sql.Ast.E_in_answer (es, rel) -> Fmt.pf ppf "(%a IN ANSWER %s)" tuple es rel
    | Sql.Ast.E_like (a, b, negated) ->
      Fmt.pf ppf "(%a %sLIKE %a)" expr a (if negated then "NOT " else "") expr b
    | Sql.Ast.E_func (f, args) ->
      Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") expr) args
    | Sql.Ast.E_star -> Fmt.string ppf "*"
    | Sql.Ast.E_tuple es -> tuple ppf es

  and tuple ppf = function
    | [ e ] -> expr ppf e
    | es -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") expr) es

  and fulfilment_effect ppf (fx : Sql.Ast.fulfilment_effect) =
    let pins ppf ps =
      Fmt.(list ~sep:(any " AND ") (fun ppf (c, e) -> pf ppf "%s = %a" c expr e))
        ppf ps
    in
    match fx with
    | Sql.Ast.Fx_insert (table, es) ->
      Fmt.pf ppf "INSERT INTO %s VALUES (%a)" table
        Fmt.(list ~sep:(any ", ") expr)
        es
    | Sql.Ast.Fx_update { fx_table; fx_set; fx_where } ->
      Fmt.pf ppf "UPDATE %s SET %a WHERE %a" fx_table
        Fmt.(list ~sep:(any ", ") (fun ppf (c, e) -> pf ppf "%s = %a" c expr e))
        fx_set pins fx_where
    | Sql.Ast.Fx_decrement { fx_table; fx_column; fx_where } ->
      Fmt.pf ppf "DECREMENT %s.%s WHERE %a" fx_table fx_column pins fx_where

  and select ppf (s : Sql.Ast.select) =
    Fmt.pf ppf "SELECT ";
    if s.Sql.Ast.distinct then Fmt.pf ppf "DISTINCT ";
    (match s.Sql.Ast.items, s.Sql.Ast.into_answer with
    | items, [] ->
      Fmt.(list ~sep:(any ", "))
        (fun ppf -> function
          | Sql.Ast.S_star -> Fmt.string ppf "*"
          | Sql.Ast.S_expr (e, None) -> expr ppf e
          | Sql.Ast.S_expr (e, Some a) -> Fmt.pf ppf "%a AS %s" expr e a)
        ppf items
    | _, heads ->
      Fmt.(list ~sep:(any ", "))
        (fun ppf (es, rel) -> Fmt.pf ppf "%a INTO ANSWER %s" tuple es rel)
        ppf heads);
    let from_item ppf (f : Sql.Ast.from_item) =
      (match f.Sql.Ast.f_source with
      | Sql.Ast.F_table name -> Fmt.string ppf name
      | Sql.Ast.F_subquery sub -> Fmt.pf ppf "(%a)" select sub);
      match f.Sql.Ast.f_alias with None -> () | Some a -> Fmt.pf ppf " %s" a
    in
    (match s.Sql.Ast.from with
    | [] -> ()
    | from ->
      Fmt.pf ppf " FROM %a" Fmt.(list ~sep:(any ", ") from_item) from);
    List.iter
      (fun (f, on_pred) ->
        Fmt.pf ppf " LEFT JOIN %a ON %a" from_item f expr on_pred)
      s.Sql.Ast.left_joins;
    (match s.Sql.Ast.where with
    | None -> ()
    | Some w -> Fmt.pf ppf " WHERE %a" expr w);
    List.iter (fun fx -> Fmt.pf ppf " THEN %a" fulfilment_effect fx) s.Sql.Ast.fulfilment;
    (match s.Sql.Ast.group_by with
    | [] -> ()
    | gs -> Fmt.pf ppf " GROUP BY %a" Fmt.(list ~sep:(any ", ") expr) gs);
    (match s.Sql.Ast.having with
    | None -> ()
    | Some h -> Fmt.pf ppf " HAVING %a" expr h);
    (match s.Sql.Ast.order_by with
    | [] -> ()
    | os ->
      Fmt.pf ppf " ORDER BY %a"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (e, d) ->
              Fmt.pf ppf "%a %s" expr e
                (match d with Plan.Asc -> "ASC" | Plan.Desc -> "DESC")))
        os);
    (match s.Sql.Ast.limit with None -> () | Some n -> Fmt.pf ppf " LIMIT %d" n);
    (match s.Sql.Ast.choose with None -> () | Some k -> Fmt.pf ppf " CHOOSE %d" k);
    match s.Sql.Ast.setop with
    | None -> ()
    | Some (kind, all, rhs) ->
      Fmt.pf ppf " %s%s %a"
        (match kind with
        | Plan.Union -> "UNION"
        | Plan.Intersect -> "INTERSECT"
        | Plan.Except -> "EXCEPT")
        (if all then " ALL" else "")
        select rhs

  let rec statement ppf (st : Sql.Ast.statement) =
    match st with
    | Sql.Ast.Select s -> select ppf s
    | Sql.Ast.Create_table { t_name; t_columns; t_primary_key } ->
      let col ppf (c : Sql.Ast.column_def) =
        Fmt.pf ppf "%s %s%s" c.Sql.Ast.c_name
          (Ctype.to_string c.Sql.Ast.c_type)
          (if c.Sql.Ast.c_nullable then "" else " NOT NULL")
      in
      Fmt.pf ppf "CREATE TABLE %s (%a%a)" t_name
        Fmt.(list ~sep:(any ", ") col)
        t_columns
        (fun ppf -> function
          | [] -> ()
          | pk ->
            Fmt.pf ppf ", PRIMARY KEY (%a)" Fmt.(list ~sep:(any ", ") string) pk)
        t_primary_key
    | Sql.Ast.Drop_table n -> Fmt.pf ppf "DROP TABLE %s" n
    | Sql.Ast.Create_view { v_name; v_query } ->
      Fmt.pf ppf "CREATE VIEW %s AS %a" v_name select v_query
    | Sql.Ast.Drop_view n -> Fmt.pf ppf "DROP VIEW %s" n
    | Sql.Ast.Create_index { i_name; i_table; i_columns; i_unique } ->
      Fmt.pf ppf "CREATE %sINDEX %s ON %s (%a)"
        (if i_unique then "UNIQUE " else "")
        i_name i_table
        Fmt.(list ~sep:(any ", ") string)
        i_columns
    | Sql.Ast.Insert { in_table; in_columns; in_rows; in_select } -> (
      Fmt.pf ppf "INSERT INTO %s%a " in_table
        (fun ppf -> function
          | None -> ()
          | Some cols ->
            Fmt.pf ppf " (%a)" Fmt.(list ~sep:(any ", ") string) cols)
        in_columns;
      match in_select with
      | Some sub -> select ppf sub
      | None ->
        Fmt.pf ppf "VALUES %a"
          Fmt.(
            list ~sep:(any ", ") (fun ppf row ->
                Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") expr) row))
          in_rows)
    | Sql.Ast.Create_table_as { cta_name; cta_query } ->
      Fmt.pf ppf "CREATE TABLE %s AS %a" cta_name select cta_query
    | Sql.Ast.Update { u_table; u_sets; u_where } ->
      Fmt.pf ppf "UPDATE %s SET %a" u_table
        Fmt.(
          list ~sep:(any ", ") (fun ppf (c, e) -> Fmt.pf ppf "%s = %a" c expr e))
        u_sets;
      (match u_where with None -> () | Some w -> Fmt.pf ppf " WHERE %a" expr w)
    | Sql.Ast.Delete { d_table; d_where } ->
      Fmt.pf ppf "DELETE FROM %s" d_table;
      (match d_where with None -> () | Some w -> Fmt.pf ppf " WHERE %a" expr w)
    | Sql.Ast.Explain s -> Fmt.pf ppf "EXPLAIN %a" statement s
    | Sql.Ast.Explain_analyze s -> Fmt.pf ppf "EXPLAIN ANALYZE %a" select s
    | Sql.Ast.Analyze t -> Fmt.pf ppf "ANALYZE %s" t
    | Sql.Ast.Show_tables -> Fmt.string ppf "SHOW TABLES"
    | Sql.Ast.Show_pending -> Fmt.string ppf "SHOW PENDING"
    | Sql.Ast.Begin_txn -> Fmt.string ppf "BEGIN"
    | Sql.Ast.Commit_txn -> Fmt.string ppf "COMMIT"
    | Sql.Ast.Rollback_txn -> Fmt.string ppf "ROLLBACK"


  let expr_to_string e = Fmt.str "%a" expr e
  let select_to_string s = Fmt.str "%a" select s
  let statement_to_string st = Fmt.str "%a" statement st
end

(* ---------------- WAL record codec ---------------- *)

module Wal = struct
  open Relational.Wal

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '%' -> Buffer.add_string buf "%25"
        | '|' -> Buffer.add_string buf "%7C"
        | '\n' -> Buffer.add_string buf "%0A"
        | '\r' -> Buffer.add_string buf "%0D"
        | ';' -> Buffer.add_string buf "%3B"
        | ',' -> Buffer.add_string buf "%2C"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let encode_value = function
    | Value.Null -> "n"
    | Value.Int i -> "i" ^ string_of_int i
    | Value.Float f -> "f" ^ Value.float_to_exact f
    | Value.Bool b -> "b" ^ string_of_bool b
    | Value.Str s -> "s" ^ escape s

  let encode_tuple (t : Tuple.t) =
    String.concat "," (List.map encode_value (Tuple.to_list t))

  let encode_schema (s : Schema.t) =
    let col (c : Schema.column) =
      Printf.sprintf "%s:%s:%b" (escape c.Schema.col_name)
        (Ctype.to_string c.Schema.col_type)
        c.Schema.nullable
    in
    Printf.sprintf "%s;%s;%s" (escape s.Schema.name)
      (String.concat "," (List.map string_of_int s.Schema.primary_key))
      (String.concat ";" (List.map col (Array.to_list s.Schema.columns)))

  let encode_record = function
    | Create_table s -> "S|" ^ encode_schema s
    | Drop_table n -> "X|" ^ escape n
    | Insert (t, row) -> Printf.sprintf "I|%s|%s" (escape t) (encode_tuple row)
    | Delete (t, row) -> Printf.sprintf "D|%s|%s" (escape t) (encode_tuple row)
    | Update (t, o, n) ->
      Printf.sprintf "U|%s|%s|%s" (escape t) (encode_tuple o) (encode_tuple n)
    | Commit id -> "C|" ^ string_of_int id
    | Lsn_base lsn -> "L|" ^ string_of_int lsn
end

(* ---------------- wire messages ---------------- *)

module Wire = struct
  open Net.Wire

  let esc = Wal.escape

  let encode_notification (n : Core.Events.notification) =
    let answers =
      String.concat ","
        (List.map
           (fun (rel, tup) -> esc rel ^ ";" ^ esc (Wal.encode_tuple tup))
           n.Core.Events.answers)
    in
    Printf.sprintf "%d|%s|%s|%s|%s" n.Core.Events.query_id
      (esc n.Core.Events.owner) (esc n.Core.Events.label)
      (String.concat ";" (List.map string_of_int n.Core.Events.group))
      answers

  let rec encode_body = function
    | Sql_result s -> "SQL|" ^ esc s
    | Registered id -> "REG|" ^ string_of_int id
    | Answered n -> "ANS|" ^ esc (encode_notification n)
    | Rejected m -> "REJ|" ^ esc m
    | Listing s -> "LST|" ^ esc s
    | Multi bodies ->
      String.concat "|" ("MUL" :: List.map (fun b -> esc (encode_body b)) bodies)

  let encode_request = function
    | Hello { version; user } -> Printf.sprintf "HELLO|%d|%s" version (esc user)
    | Submit { id; sql } -> Printf.sprintf "SUBMIT|%d|%s" id (esc sql)
    | Cancel { id; query_id } -> Printf.sprintf "CANCEL|%d|%d" id query_id
    | Admin { id; what } -> Printf.sprintf "ADMIN|%d|%s" id (esc what)
    | Ping { id; payload } -> Printf.sprintf "PING|%d|%s" id (esc payload)
    | Bye -> "BYE"
    | Replica_hello { version; replica_id; last_lsn } ->
      Printf.sprintf "RHELLO|%d|%s|%d" version (esc replica_id) last_lsn
    | Repl_ack { lsn } -> Printf.sprintf "RACK|%d" lsn

  let encode_response = function
    | Welcome { version; banner } ->
      Printf.sprintf "WELCOME|%d|%s" version (esc banner)
    | Result { id; body } ->
      Printf.sprintf "RESULT|%d|%s" id (esc (encode_body body))
    | Error { id; message } -> Printf.sprintf "ERROR|%d|%s" id (esc message)
    | Pong { id; payload } -> Printf.sprintf "PONG|%d|%s" id (esc payload)
    | Stats { id; body } -> Printf.sprintf "STATS|%d|%s" id (esc body)
    | Push n -> "PUSH|" ^ esc (encode_notification n)
    | Snapshot_chunk { lsn; seq; last; data } ->
      Printf.sprintf "SNAP|%d|%d|%d|%s" lsn seq (Bool.to_int last) (esc data)
    | Wal_recs { lsn; sent_at_us; last; records } ->
      Printf.sprintf "WREC|%d|%d|%d|%s" lsn sent_at_us (Bool.to_int last)
        (esc records)

  let encode_response_raw = function
    | Wal_recs { lsn; sent_at_us; last; records } ->
      Some
        (Printf.sprintf "WREC|%d|%d|%d\n%s" lsn sent_at_us (Bool.to_int last)
           records)
    | Snapshot_chunk { lsn; seq; last; data } ->
      Some (Printf.sprintf "SNAP|%d|%d|%d\n%s" lsn seq (Bool.to_int last) data)
    | Result { id; body = Sql_result s }
      when String.length s >= raw_result_threshold ->
      Some (Printf.sprintf "RESULT|%d\n%s" id s)
    | _ -> None
end
