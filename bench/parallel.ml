(* Multicore scaling bench: analysis fan-out and batched parsing across
   the execution layer's worker pool, at jobs in {1, 2, 4, 8} on the six
   benchmark grammars.

   Two measured quantities per (grammar, jobs) point:

   - [analysis]: wall time of a full eager compile with per-decision DFA
     construction fanned across the pool;
   - [parse]: batched-parse throughput (tokens/s) of the grammar's corpus
     sharded across the pool, via the same [Runtime.Batch] driver the CLI
     uses.

   And two correctness bits the CI gate enforces regardless of machine:

   - [digest_match] -- the pooled compilation's normalized payload digest
     ([Compiled_cache.payload_digest]) must be byte-identical to the
     sequential one at every job count;
   - [lazy_digest_match] -- a lazy-strategy compilation batch-parsed over
     the same corpus must warm up to the same canonical on-disk blob
     (same payload digest) at every job count: the engines' concurrent
     growth may discover states in any interleaving, but the canonical
     serialized form (BFS renumbering, see [Lazy_dfa.to_portable]) is
     interleaving-independent.

   Speedups are reported but gated only when the runner is actually
   multicore: they depend on the core count, which telemetry records in
   [cores]/[backend] so a reader can judge the scaling numbers (on a
   single-core machine every speedup is ~1.0x and that is the honest
   result).  Telemetry rows land under "parallel.<grammar>"; CI's
   bench-smoke gate checks the digest bits against the committed
   BENCH_parallel.json. *)

module Workload = Bench_grammars.Workload

let job_counts = [ 1; 2; 4; 8 ]

let median_ms ?(reps = 5) (f : unit -> unit) : float =
  let ts = Array.init reps (fun _ -> snd (Common.time f) *. 1e3) in
  Array.sort compare ts;
  ts.(reps / 2)

(* One (grammar, jobs) measurement. *)
type point = {
  p_jobs : int;
  p_analysis_ms : float;
  p_parse_tok_s : float;
  p_digest : string;
  p_lazy_parse_tok_s : float;
  p_lazy_digest : string; (* warm blob after the lazy batch *)
}

let measure_point (spec : Workload.spec) ~(inputs : Runtime.Batch.input list)
    ~(corpus_tokens : int) (jobs : int) : point =
  Exec.Pool.with_pool ~jobs (fun pool ->
      let digest = ref "" in
      let p_analysis_ms =
        median_ms (fun () ->
            let c =
              Llstar.Compiled.of_source_exn ~pool spec.Workload.grammar_text
            in
            digest := Llstar.Compiled_cache.payload_digest c)
      in
      let c = Llstar.Compiled.of_source_exn ~pool spec.Workload.grammar_text in
      let config = spec.Workload.lexer_config in
      (* predicate env: stateless dispatch tables, safe to share across
         worker domains *)
      let env = Workload.env_of_spec spec in
      let parse_ms =
        median_ms (fun () ->
            let results = Runtime.Batch.run ~pool ~config ~env c inputs in
            Array.iter
              (fun (r : Runtime.Batch.result_) ->
                match r.Runtime.Batch.outcome with
                | Runtime.Batch.Parsed _ -> ()
                | _ -> failwith "parallel bench: corpus input failed to parse")
              results)
      in
      (* Lazy strategy: a single cold batch (medians would measure warm
         engines), then the canonical digest of the warmed-up blob.  The
         engines are shared by every chunk, so this doubles as the
         concurrency leg of the bench. *)
      let lc =
        Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy
          spec.Workload.grammar_text
      in
      let lazy_parse_ms =
        let ts =
          snd
            (Common.time (fun () ->
                 ignore (Runtime.Batch.run ~pool ~config ~env lc inputs)))
        in
        ts *. 1e3
      in
      {
        p_jobs = jobs;
        p_analysis_ms;
        p_parse_tok_s = float_of_int corpus_tokens /. (parse_ms /. 1e3);
        p_digest = !digest;
        p_lazy_parse_tok_s =
          float_of_int corpus_tokens /. (lazy_parse_ms /. 1e3);
        p_lazy_digest = Llstar.Compiled_cache.payload_digest lc;
      })

let run () =
  Common.section
    "Multicore scaling: parallel analysis and batched parsing (Exec.Pool)";
  Fmt.pr "backend=%s cores=%d (speedups are relative to jobs=1 on THIS \
          machine)@."
    Exec.Pool.backend
    (Exec.Pool.available_cores ());
  Fmt.pr "%-11s %4s | %10s %7s | %12s %7s | %s@." "grammar" "jobs"
    "analysis" "x" "parse tok/s" "x" "digest";
  List.iter
    (fun (spec : Workload.spec) ->
      let corpus = Common.corpus spec in
      let cw = Common.compiled spec in
      let inputs =
        List.mapi
          (fun i text ->
            { Runtime.Batch.name = Printf.sprintf "sent%03d" i; text })
          corpus.Workload.texts
      in
      let corpus_tokens =
        List.fold_left
          (fun acc text -> acc + Array.length (Workload.lex_exn cw text))
          0 corpus.Workload.texts
      in
      let points =
        List.map (measure_point spec ~inputs ~corpus_tokens) job_counts
      in
      let base = List.hd points in
      let digests_match =
        List.for_all (fun p -> p.p_digest = base.p_digest) points
      in
      let lazy_digests_match =
        List.for_all (fun p -> p.p_lazy_digest = base.p_lazy_digest) points
      in
      List.iter
        (fun p ->
          Fmt.pr "%-11s %4d | %8.1fms %6.2fx | %12.0f %6.2fx | %s/%s@."
            spec.Workload.name p.p_jobs p.p_analysis_ms
            (base.p_analysis_ms /. p.p_analysis_ms)
            p.p_parse_tok_s
            (p.p_parse_tok_s /. base.p_parse_tok_s)
            (if p.p_digest = base.p_digest then "ok" else "MISMATCH")
            (if p.p_lazy_digest = base.p_lazy_digest then "ok"
             else "LAZY-MISMATCH"))
        points;
      if not digests_match then
        Fmt.pr "  *** DIGEST MISMATCH: parallel analysis diverged from \
                sequential ***@.";
      if not lazy_digests_match then
        Fmt.pr "  *** LAZY DIGEST MISMATCH: concurrently grown engines \
                diverged from the sequential warm blob ***@.";
      Common.Tel.add
        (Printf.sprintf "parallel.%s" spec.Workload.name)
        (Obs.Json.obj
           [
             ("backend", Obs.Json.str Exec.Pool.backend);
             ("cores", Obs.Json.int (Exec.Pool.available_cores ()));
             ("corpus_tokens", Obs.Json.int corpus_tokens);
             ("digest_match", Obs.Json.bool digests_match);
             ("lazy_digest_match", Obs.Json.bool lazy_digests_match);
             ( "points",
               Obs.Json.list
                 (List.map
                    (fun p ->
                      Obs.Json.obj
                        [
                          ("jobs", Obs.Json.int p.p_jobs);
                          ("analysis_ms", Obs.Json.float p.p_analysis_ms);
                          ( "analysis_speedup",
                            Obs.Json.float
                              (base.p_analysis_ms /. p.p_analysis_ms) );
                          ( "parse_tokens_per_s",
                            Obs.Json.float p.p_parse_tok_s );
                          ( "parse_speedup",
                            Obs.Json.float
                              (p.p_parse_tok_s /. base.p_parse_tok_s) );
                          ( "lazy_parse_tokens_per_s",
                            Obs.Json.float p.p_lazy_parse_tok_s );
                          ( "lazy_parse_speedup",
                            Obs.Json.float
                              (p.p_lazy_parse_tok_s
                              /. base.p_lazy_parse_tok_s) );
                        ])
                    points) );
           ]))
    Bench_grammars.Specs.all
