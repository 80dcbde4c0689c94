(* Test runner: every suite registered here; `dune runtest` runs them all. *)

let () =
  Alcotest.run "youtopia"
    [
      "value", Test_value.suite;
      "relational", Test_relational.suite;
      "query", Test_query.suite;
      "storage", Test_storage.suite;
      "wal-torn", Test_wal_torn.suite;
      "fault", Test_fault.suite;
      "checkpoint", Test_checkpoint.suite;
      "group-commit", Test_group_commit.suite;
      "stats", Test_stats.suite;
      "sql", Test_sql.suite;
      "sql-features", Test_sql_features.suite;
      "entangled", Test_entangled.suite;
      "system", Test_system.suite;
      "travel", Test_travel.suite;
      "scenarios", Test_scenarios.suite;
      "extensions", Test_extensions.suite;
      "matcher-props", Test_matcher_props.suite;
      "incremental", Test_incremental.suite;
      "pending-index", Test_pending_index.suite;
      "frontend", Test_frontend.suite;
      "net", Test_net.suite;
      "replication", Test_replication.suite;
      "edge-cases", Test_edge_cases.suite;
      "random-sql", Test_random_sql.suite;
      "ast-fuzz", Test_ast_fuzz.suite;
      "render", Test_render.suite;
      "protocol", Test_protocol.suite;
      "decoders", Test_decoders.suite;
    ]
