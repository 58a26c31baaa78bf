(* Test entry point: one alcotest run over all library suites. *)

let () =
  Alcotest.run "soc-dsl-repro"
    [
      ("util", Test_util.suite);
      ("htg", Test_htg.suite);
      ("kernel", Test_kernel.suite);
      ("rtl", Test_rtl.suite);
      ("hls", Test_hls.suite);
      ("axi", Test_axi.suite);
      ("platform", Test_platform.suite);
      ("dsl", Test_dsl.suite);
      ("analysis", Test_analysis.suite);
      ("flow", Test_flow.suite);
      ("apps", Test_apps.suite);
      ("integration", Test_integration.suite);
      ("dse", Test_dse.suite);
      ("opt", Test_opt.suite);
      ("extensions", Test_extensions.suite);
      ("workloads", Test_workloads.suite);
      ("cosim", Test_cosim.suite);
      ("csim", Test_csim.suite);
      ("fault", Test_fault.suite);
      ("perf", Test_perf.suite);
      ("farm", Test_farm.suite);
      ("journal", Test_journal.suite);
      ("serve", Test_serve.suite);
      ("remote", Test_remote.suite);
      ("verify", Test_verify.suite);
      ("fuzz", Test_fuzz.suite);
      ("tune", Test_tune.suite);
    ]
