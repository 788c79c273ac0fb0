(* Aggregates every suite; [dune runtest] runs them all. *)
let () =
  Alcotest.run "subconsensus"
    (Test_sim.suite @ Test_objects.suite @ Test_rwmem.suite
   @ Test_renaming.suite @ Test_tasks.suite @ Test_alg2.suite
   @ Test_alg3.suite @ Test_alg4.suite @ Test_alg5.suite @ Test_alg6.suite
   @ Test_hierarchy.suite @ Test_sse.suite @ Test_linearizability.suite
   @ Test_valence.suite @ Test_classic.suite @ Test_bgsim.suite @ Test_power.suite
   @ Test_edge.suite @ Test_refinement.suite @ Test_crash.suite
   @ Test_properties.suite @ Test_reduction.suite @ Test_analysis.suite
   @ Test_obs.suite @ Test_parallel.suite @ Test_recovery.suite
   @ Test_fp_incremental.suite @ Test_progress.suite @ Test_determinism.suite
   @ Test_experiments.suite)
