(** Test runner: all suites. *)

let () =
  Alcotest.run "compcerto"
    [
      Test_values.suite;
      Test_mem.suite;
      Test_mem_diff.suite;
      Test_meminj.suite;
      Test_target.suite;
      Test_smallstep.suite;
      Test_obs.suite;
      Test_snapshot.suite;
      Test_callconv.suite;
      Test_frontend.suite;
      Test_pipeline.suite;
      Test_programs.suite;
      Test_perpass.suite;
      Test_linking.suite;
      Test_open.suite;
      Test_parametricity.suite;
      Test_passes.suite;
      Test_allocdiff.suite;
      Test_mutstate.suite;
      Test_convalg.suite;
      Test_stages.suite;
      Test_sloc.suite;
      Test_refinement.suite;
      Test_random.suite;
      Test_diagnostics.suite;
      Test_faultinject.suite;
      Test_chaos.suite;
      Test_robust.suite;
      Test_harness.suite;
      Test_service.suite;
    ]
