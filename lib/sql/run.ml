(** Plain SQL statement execution against a {!Relational.Database}.

    This is the "execution engine" box of the paper's Figure 2 for ordinary
    SQL.  Entangled queries never reach this module — the system layer
    routes them to the coordination component instead; calling {!exec} on
    one is an error.

    A {!session} carries an optional interactive transaction (BEGIN /
    COMMIT / ROLLBACK); statements outside an explicit transaction are
    auto-committed. *)

open Relational

type session = { db : Database.t; mutable open_txn : Txn.t option }

let make_session db = { db; open_txn = None }

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Ok_msg of string
  | Explained of string

(* The header line, one line per row (an empty result leaves a blank
   line), then the row count. *)
let result_to_string = function
  | Rows (schema, rows) ->
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i (c : Schema.column) ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf c.Schema.col_name)
      schema.Schema.columns;
    Buffer.add_char buf '\n';
    let n =
      List.fold_left
        (fun n row ->
          if n > 0 then Buffer.add_char buf '\n';
          Tuple.add_to_buffer buf row;
          n + 1)
        0 rows
    in
    Buffer.add_string buf "\n(";
    Buffer.add_string buf (string_of_int n);
    Buffer.add_string buf " row(s))";
    Buffer.contents buf
  | Affected n -> string_of_int n ^ " row(s) affected"
  | Ok_msg m -> m
  | Explained p -> p

(* Run [f txn] in the session's open transaction, or in a one-shot one. *)
let in_txn session f =
  match session.open_txn with
  | Some txn -> f txn
  | None -> Database.with_txn session.db f

let exec_insert session ~in_table ~in_columns ~in_rows ~in_select =
  let table = Database.find_table session.db in_table in
  let schema = Table.schema table in
  let reorder row_values =
    match in_columns with
    | None ->
      if List.length row_values <> Schema.arity schema then
        Errors.schema_errorf "INSERT supplies %d value(s), %s has %d column(s)"
          (List.length row_values) in_table (Schema.arity schema);
      Array.of_list row_values
    | Some cols ->
      if List.length cols <> List.length row_values then
        Errors.schema_errorf "INSERT column list and VALUES arity differ";
      let row = Array.make (Schema.arity schema) Value.Null in
      List.iter2
        (fun col v -> row.(Schema.column_index schema col) <- v)
        cols row_values;
      row
  in
  let rows =
    match in_select with
    | None ->
      List.map
        (fun exprs ->
          reorder
            (List.map (Compile.constant_expr session.db.Database.catalog) exprs))
        in_rows
    | Some sub ->
      (* INSERT INTO … SELECT …: evaluate, then route through the same
         column-reordering logic *)
      let cat = session.db.Database.catalog in
      let plan = Compile.compile_select cat sub in
      Executor.run cat plan
      |> List.map (fun row -> reorder (Tuple.to_list row))
  in
  in_txn session (fun txn -> Affected (Mutation.insert_rows txn table rows))

let exec_update session ~u_table ~u_sets ~u_where =
  let cat = session.db.Database.catalog in
  let table = Database.find_table session.db u_table in
  let schema = Table.schema table in
  let assignments =
    List.map
      (fun (col, e) ->
        Schema.column_index schema col, Compile.expr_for_table cat table e)
      u_sets
  in
  let pred = Option.map (Compile.expr_for_table cat table) u_where in
  in_txn session (fun txn ->
      Affected (Mutation.update_where txn table assignments pred))

let exec_delete session ~d_table ~d_where =
  let cat = session.db.Database.catalog in
  let table = Database.find_table session.db d_table in
  let pred = Option.map (Compile.expr_for_table cat table) d_where in
  in_txn session (fun txn -> Affected (Mutation.delete_where txn table pred))

let exec session (stmt : Ast.statement) : result =
  match stmt with
  | Ast.Select s when s.Ast.into_answer <> [] ->
    Errors.internalf
      "entangled query reached the plain execution engine (route it through \
       the coordinator)"
  | Ast.Select s ->
    let cat = session.db.Database.catalog in
    let plan = Compile.compile_select cat s in
    Rows (plan.Plan.schema, Executor.run cat plan)
  | Ast.Create_table { t_name; t_columns; t_primary_key } ->
    if session.open_txn <> None then
      Errors.fail (Errors.Txn_error "DDL inside an explicit transaction");
    let columns =
      List.map
        (fun (c : Ast.column_def) ->
          Schema.column ~nullable:c.Ast.c_nullable c.Ast.c_name c.Ast.c_type)
        t_columns
    in
    let schema = Schema.make t_name columns in
    let primary_key =
      List.map (fun n -> Schema.column_index schema n) t_primary_key
    in
    let schema = Schema.make ~primary_key t_name columns in
    ignore (Database.create_table session.db schema);
    Ok_msg (Printf.sprintf "table %s created" t_name)
  | Ast.Create_view { v_name; v_query } ->
    if session.open_txn <> None then
      Errors.fail (Errors.Txn_error "DDL inside an explicit transaction");
    let cat = session.db.Database.catalog in
    (* validate the definition now so errors surface at CREATE VIEW time *)
    ignore (Compile.compile_select cat v_query);
    Catalog.create_view cat v_name (Pretty.select_to_string v_query);
    Ok_msg (Printf.sprintf "view %s created" v_name)
  | Ast.Drop_view name ->
    Catalog.drop_view session.db.Database.catalog name;
    Ok_msg (Printf.sprintf "view %s dropped" name)
  | Ast.Drop_table name ->
    if session.open_txn <> None then
      Errors.fail (Errors.Txn_error "DDL inside an explicit transaction");
    Database.drop_table session.db name;
    Ok_msg (Printf.sprintf "table %s dropped" name)
  | Ast.Create_index { i_name; i_table; i_columns; i_unique } ->
    let table = Database.find_table session.db i_table in
    let schema = Table.schema table in
    let positions =
      Array.of_list (List.map (Schema.column_index schema) i_columns)
    in
    ignore (Table.create_index ~unique:i_unique table i_name positions);
    Ok_msg (Printf.sprintf "index %s created on %s" i_name i_table)
  | Ast.Insert { in_table; in_columns; in_rows; in_select } ->
    exec_insert session ~in_table ~in_columns ~in_rows ~in_select
  | Ast.Create_table_as { cta_name; cta_query } ->
    if session.open_txn <> None then
      Errors.fail (Errors.Txn_error "DDL inside an explicit transaction");
    let cat = session.db.Database.catalog in
    let plan = Compile.compile_select cat cta_query in
    let rows = Executor.run cat plan in
    let schema = Schema.rename plan.Plan.schema cta_name in
    let table = Database.create_table session.db schema in
    in_txn session (fun txn -> ignore (Mutation.insert_rows txn table rows));
    Ok_msg
      (Printf.sprintf "table %s created with %d row(s)" cta_name
         (List.length rows))
  | Ast.Update { u_table; u_sets; u_where } ->
    exec_update session ~u_table ~u_sets ~u_where
  | Ast.Delete { d_table; d_where } ->
    exec_delete session ~d_table ~d_where
  | Ast.Begin_txn ->
    (match session.open_txn with
    | Some _ -> Errors.fail (Errors.Txn_error "transaction already open")
    | None -> session.open_txn <- Some (Txn.begin_ session.db.Database.txns));
    Ok_msg "transaction started"
  | Ast.Commit_txn ->
    (match session.open_txn with
    | None -> Errors.fail (Errors.Txn_error "no open transaction")
    | Some txn ->
      Txn.commit txn;
      session.open_txn <- None);
    Ok_msg "committed"
  | Ast.Rollback_txn ->
    (match session.open_txn with
    | None -> Errors.fail (Errors.Txn_error "no open transaction")
    | Some txn ->
      Txn.rollback txn;
      session.open_txn <- None);
    Ok_msg "rolled back"
  | Ast.Explain (Ast.Select s) when s.Ast.into_answer = [] ->
    let plan = Compile.compile_select session.db.Database.catalog s in
    Explained (Plan.explain plan)
  | Ast.Explain inner -> Explained (Pretty.statement_to_string inner)
  | Ast.Explain_analyze sel ->
    if sel.Ast.into_answer <> [] then
      Errors.fail
        (Errors.Parse_error "EXPLAIN ANALYZE does not take entangled queries");
    let cat = session.db.Database.catalog in
    let plan = Compile.compile_select cat sel in
    let _, annotated = Executor.explain_analyze cat plan in
    Explained annotated
  | Ast.Analyze name ->
    let table = Database.find_table session.db name in
    let stats = Tablestats.get table in
    let schema = Table.schema table in
    let lines =
      Printf.sprintf "%s: %d row(s)" name stats.Tablestats.rows
      :: List.mapi
           (fun i (c : Schema.column) ->
             let cs = stats.Tablestats.columns.(i) in
             Printf.sprintf "  %-16s ndv=%-6d nulls=%-6d range=[%s, %s]"
               c.Schema.col_name cs.Tablestats.distinct cs.Tablestats.nulls
               (match cs.Tablestats.min_value with
               | Some v -> Value.to_display v
               | None -> "-")
               (match cs.Tablestats.max_value with
               | Some v -> Value.to_display v
               | None -> "-"))
           (Array.to_list schema.Schema.columns)
    in
    Ok_msg (String.concat "\n" lines)
  | Ast.Show_tables ->
    let cat = session.db.Database.catalog in
    Ok_msg
      (String.concat "\n"
         (List.map
            (fun n ->
              let t = Catalog.find cat n in
              Printf.sprintf "%s (%d rows)" n (Table.row_count t))
            (Catalog.table_names cat)
         @ List.map
             (fun n -> Printf.sprintf "%s (view)" n)
             (Catalog.view_names cat)))
  | Ast.Show_pending ->
    Errors.internalf "SHOW PENDING must be handled by the system layer"

(** [exec_sql session sql] parses and executes one statement. *)
let exec_sql session sql = exec session (Parser.parse_one sql)

