(* Test runner: aggregates the per-subsystem suites. *)

let () = Alcotest.run "jahob" (Test_logic.suite @ Test_sat.suite @ Test_euf.suite @ Test_arith.suite @ Test_smt.suite @ Test_mona.suite @ Test_fol.suite @ Test_javaparser.suite @ Test_bapa.suite @ Test_fca.suite @ Test_system.suite @ Test_misc.suite @ Test_semantics.suite @ Test_dispatch.suite @ Test_trace.suite @ Test_gen.suite @ Test_corpus.suite @ Test_sharing.suite @ Test_daemon.suite @ Test_incremental.suite)
