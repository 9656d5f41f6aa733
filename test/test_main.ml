(* Entry point: aggregates all suites.

   Ordering constraint: [Test_cache] contains [Unix.fork]-based tests
   (stale-temp GC), and on OCaml 5 fork refuses to run once any domain
   has been created -- so it must precede every suite that spins up an
   [Exec.Pool] with worker domains ([Test_lazy]'s concurrency tests,
   [Test_exec], [Test_serve]). *)

let () =
  Alcotest.run "antlrkit"
    (Test_grammar.suite @ Test_analysis.suite @ Test_runtime.suite
   @ Test_baselines.suite @ Test_minimize.suite @ Test_report.suite
   @ Test_bench_grammars.suite @ Test_cache.suite
   @ Test_lazy.suite @ Test_profile.suite
   @ Test_props.suite @ Test_lexer.suite @ Test_fuzz.suite @ Test_obs.suite
   @ Test_bitset.suite @ Test_exec.suite @ Test_codegen.suite
   @ Test_serve.suite)
