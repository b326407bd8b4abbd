let () =
  Alcotest.run "alice"
    [ ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("elaborate", Test_elaborate.tests);
      ("config", Test_config.tests);
      ("analysis", Test_analysis.tests);
      ("synth", Test_synth.tests);
      ("lutmap", Test_lutmap.tests);
      ("fabric", Test_fabric.tests);
      ("sat", Test_sat.tests);
      ("solver_fuzz", Test_solver_fuzz.tests);
      ("diag", Test_diag.tests);
      ("parallel", Test_parallel.tests);
      ("fault", Test_fault.tests);
      ("security", Test_security.tests);
      ("flow", Test_flow.tests);
      ("clustering", Test_clustering.tests);
      ("engine", Test_engine.tests);
      ("stages", Test_stages.tests);
      ("splice", Test_splice.tests);
      ("pareto", Test_pareto.tests);
      ("advisor", Test_advisor.tests);
      ("scorer", Test_scorer.tests);
      ("server", Test_server.tests);
      ("redact", Test_redact.tests);
      ("decompose", Test_decompose.tests);
      ("structural", Test_structural.tests);
      ("benchmarks", Test_benchmarks.tests);
      ("golden", Test_golden.tests) ]
