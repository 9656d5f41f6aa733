(* Lazy on-demand DFA construction: equivalence with the eager analysis.

   Two properties pin the tentpole:

   - parsing with a lazily compiled grammar produces byte-identical trees
     to the eager compilation, on every benchmark grammar, over generated
     corpora (prediction equivalence);
   - driving a fresh lazy engine to completion reproduces the eager
     analysis result structurally -- same DFA states in the same order,
     same classification, same warnings (construction equivalence). *)

open Helpers
module Workload = Bench_grammars.Workload

let eager_cache = Hashtbl.create 8

let eager_of (spec : Workload.spec) =
  match Hashtbl.find_opt eager_cache spec.Workload.name with
  | Some cw -> cw
  | None ->
      let cw = Workload.compile spec in
      Hashtbl.add eager_cache spec.Workload.name cw;
      cw

let lazy_compile (spec : Workload.spec) =
  Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy
    spec.Workload.grammar_text

let tree_str c tree = Runtime.Tree.to_string (Llstar.Compiled.sym c) tree

let parse_str c env toks =
  match Runtime.Interp.parse ~env c toks with
  | Ok tree -> "ok: " ^ tree_str c tree
  | Error errs ->
      Fmt.str "error: %a"
        Fmt.(list (Runtime.Parse_error.pp (Llstar.Compiled.sym c)))
        errs

let per_grammar (spec : Workload.spec) =
  let name = spec.Workload.name in
  [
    test (name ^ ": lazy parses byte-identical to eager") (fun () ->
        let cw = eager_of spec in
        let cl = lazy_compile spec in
        let env = Workload.env_of_spec spec in
        let corpus = Workload.build_corpus cw ~target_tokens:1200 in
        check bool "corpus nonempty" true (corpus.Workload.programs > 0);
        List.iteri
          (fun i text ->
            let toks = Workload.lex_exn cw text in
            check string
              (Printf.sprintf "program %d" i)
              (parse_str cw.Workload.c env toks)
              (parse_str cl env toks))
          corpus.Workload.texts;
        (* warm pass: the second parse must hit only materialized states
           and still agree *)
        List.iteri
          (fun i text ->
            let toks = Workload.lex_exn cw text in
            check string
              (Printf.sprintf "warm program %d" i)
              (parse_str cw.Workload.c env toks)
              (parse_str cl env toks))
          corpus.Workload.texts);
    test (name ^ ": completed lazy engines match eager analysis") (fun () ->
        let cw = eager_of spec in
        let c = cw.Workload.c in
        let atn = c.Llstar.Compiled.atn in
        let opts = c.Llstar.Compiled.opts in
        Array.iteri
          (fun i d ->
            let eng = Llstar.Lazy_dfa.create ~opts atn d in
            let r = Llstar.Lazy_dfa.complete eng in
            let e = c.Llstar.Compiled.results.(i) in
            if r <> e then
              Alcotest.failf
                "decision %d: completed lazy result differs from eager \
                 (lazy: %d states, eager: %d states)"
                i r.Llstar.Analysis.dfa.Llstar.Look_dfa.nstates
                e.Llstar.Analysis.dfa.Llstar.Look_dfa.nstates)
          atn.Atn.decisions);
  ]

let small_cases =
  [
    test "lazy compile materializes only start states" (fun () ->
        let c =
          Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy
            "grammar T; s : A B C | A B D | E ;"
        in
        check bool "is lazy" true
          (Llstar.Compiled.strategy c = Llstar.Compiled.Lazy);
        let eng = Option.get (Llstar.Compiled.engine c 0) in
        check bool "incomplete" false (Llstar.Lazy_dfa.is_complete eng);
        let eager = Llstar.Compiled.of_source_exn "grammar T; s : A B C | A B D | E ;" in
        check bool "fewer states than eager" true
          (Llstar.Lazy_dfa.materialized eng
          < (Llstar.Compiled.dfa eager 0).Llstar.Look_dfa.nstates));
    test "prediction grows the DFA state by state" (fun () ->
        let src = "grammar T; s : A B C | A B D | E ;" in
        let c =
          Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy src
        in
        let eng = Option.get (Llstar.Compiled.engine c 0) in
        let before = Llstar.Lazy_dfa.materialized eng in
        let p = Runtime.Profile.create () in
        (match Runtime.Interp.parse ~profile:p c (lex c "A B D") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse failed");
        check bool "grew" true (Llstar.Lazy_dfa.materialized eng > before);
        check bool "lazy states profiled" true
          (Runtime.Profile.lazy_dfa_states p > 0);
        (* a second identical parse should add nothing *)
        let after = Llstar.Lazy_dfa.materialized eng in
        (match Runtime.Interp.parse c (lex c "A B D") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "second parse failed");
        check int "warm parse adds no states" after
          (Llstar.Lazy_dfa.materialized eng));
    test "repeated sprouts yield exactly one non-LL-regular warning"
      (fun () ->
        (* Section 5.4 grammar: recursion in both alternatives of [s]
           engages the Bounded fallback.  The engagement reason used to be
           re-appended on every sprout refresh, so N discovered states
           produced N copies of the warning (and re-concatenated the list
           each time).  It must appear exactly once, mid-build and after
           completion, matching the eager analysis. *)
        let src = "grammar F; s : a 'c' | a 'd' ; a : 'a' a | 'b' ;" in
        let c =
          Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy src
        in
        let d = rule_decision c "s" in
        let eng = Option.get (Llstar.Compiled.engine c d) in
        let count_nlr (r : Llstar.Analysis.result) =
          List.length
            (List.filter
               (function Llstar.Analysis.Non_ll_regular _ -> true | _ -> false)
               r.Llstar.Analysis.warnings)
        in
        (* D0's closure stops at terminal edges, so the recursion is only
           discovered while sprouting deeper states *)
        check int "no warning at creation" 0
          (count_nlr (Llstar.Lazy_dfa.result eng));
        (* several predictions from distinct lookahead depths: each sprouts
           new states *)
        List.iter
          (fun input ->
            match Runtime.Interp.parse c (lex c input) with
            | Ok _ -> ()
            | Error _ -> Alcotest.failf "parse of %S failed" input)
          [ "b c"; "a b d"; "a a b c"; "a a a b c" ];
        check bool "sprouted several states" true
          (Llstar.Lazy_dfa.sprouted eng >= 2);
        check int "still one warning mid-build" 1
          (count_nlr (Llstar.Lazy_dfa.result eng));
        let r = Llstar.Lazy_dfa.complete eng in
        check int "one warning when complete" 1 (count_nlr r);
        let eager = Llstar.Compiled.of_source_exn src in
        check bool "warnings equal eager" true
          (r.Llstar.Analysis.warnings
          = eager.Llstar.Compiled.results.(d).Llstar.Analysis.warnings));
  ]

(* --- concurrency: shared engines under parallel prediction ------------- *)

(* The tentpole contract: one lazy compilation shared by many concurrently
   predicting tasks answers exactly like the eager compilation, and the
   engine state it converges to is canonically identical (same warm-blob
   digest) to the one a sequential run reaches -- whatever the
   interleaving.  On a 4.x build the pool degrades to inline execution and
   these become plain determinism checks. *)
let concurrency_tests =
  [
    test "concurrent sprouts: many tasks race one cold engine" (fun () ->
        let spec = Bench_grammars.Mini_java.spec in
        let cw = eager_of spec in
        let corpus = Workload.build_corpus cw ~target_tokens:800 in
        let toks = List.map (Workload.lex_exn cw) corpus.Workload.texts in
        let expected =
          let env = Workload.env_of_spec spec in
          List.map (parse_str cw.Workload.c env) toks
        in
        (* sequential reference: one task's worth of parses on a fresh
           lazy engine set, then its canonical on-disk form *)
        let seq_digest =
          let cl = lazy_compile spec in
          let env = Workload.env_of_spec spec in
          List.iter (fun t -> ignore (parse_str cl env t)) toks;
          Llstar.Compiled_cache.payload_digest cl
        in
        let cl = lazy_compile spec in
        Exec.Pool.with_pool ~jobs:8 (fun pool ->
            let tasks =
              List.init 16 (fun _ ->
                  Exec.Pool.submit pool (fun () ->
                      let env = Workload.env_of_spec spec in
                      List.map (parse_str cl env) toks))
            in
            List.iteri
              (fun ti got ->
                List.iteri
                  (fun i (e, g) ->
                    check string (Printf.sprintf "task %d program %d" ti i) e g)
                  (List.combine expected got))
              (List.map Exec.Pool.await tasks));
        (* every task saw correct answers *and* the racily-grown engines
           canonicalize to the sequential blob *)
        check string "canonical digest = sequential"
          seq_digest
          (Llstar.Compiled_cache.payload_digest cl));
    test "warm-saved blob digest: parallel batch = sequential" (fun () ->
        List.iter
          (fun (spec : Workload.spec) ->
            let cw = eager_of spec in
            let corpus = Workload.build_corpus cw ~target_tokens:800 in
            let env = Workload.env_of_spec spec in
            let config = spec.Workload.lexer_config in
            let inputs =
              List.mapi
                (fun i text -> { Runtime.Batch.name = string_of_int i; text })
                corpus.Workload.texts
            in
            let digest_after ~jobs =
              let cl = lazy_compile spec in
              Exec.Pool.with_pool ~jobs (fun pool ->
                  Array.iter
                    (fun (r : Runtime.Batch.result_) ->
                      if not (Runtime.Batch.outcome_ok r.Runtime.Batch.outcome)
                      then
                        Alcotest.failf "%s input %s did not parse"
                          spec.Workload.name r.Runtime.Batch.input.name)
                    (Runtime.Batch.run ~pool ~config ~env cl inputs));
              Llstar.Compiled_cache.payload_digest cl
            in
            let seq = digest_after ~jobs:1 in
            List.iter
              (fun jobs ->
                check string
                  (Printf.sprintf "%s digest jobs=%d" spec.Workload.name jobs)
                  seq (digest_after ~jobs))
              [ 2; 4 ])
          Bench_grammars.Specs.all);
    qtest ~count:40 "random grammars: parallel lazy verdicts = sequential"
      (QCheck.pair Test_props.arb_grammar
         (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
            (QCheck.list_of_size (QCheck.Gen.int_bound 8)
               (QCheck.int_bound 4))))
      (fun (g, sentences) ->
        let compile_lazy () =
          match
            Llstar.Compiled.compile ~analysis_opts:Test_props.rand_opts
              ~strategy:Llstar.Compiled.Lazy g
          with
          | Ok c -> Some c
          | Error _ -> None
        in
        match compile_lazy () with
        | None -> true (* unlucky generated shape; nothing to compare *)
        | Some c0 ->
            let names =
              List.map
                (List.map (fun i -> [| "A"; "B"; "C"; "D"; "E" |].(i)))
                sentences
            in
            let verdicts c toks_list =
              (* two passes: a cold parse that sprouts and a warm one that
                 must hit only materialized states *)
              List.concat_map
                (fun toks ->
                  List.map
                    (fun () ->
                      match Runtime.Interp.recognize c toks with
                      | Ok () -> true
                      | Error _ -> false)
                    [ (); () ])
                toks_list
            in
            let toks_list c =
              List.map (fun ns -> Test_props.tokens_of_names c ns) names
            in
            let seq = verdicts c0 (toks_list c0) in
            List.for_all
              (fun jobs ->
                match compile_lazy () with
                | None -> true
                | Some c ->
                    let toks_list = toks_list c in
                    let par =
                      Exec.Pool.with_pool ~jobs (fun pool ->
                          let tasks =
                            List.map
                              (fun toks ->
                                Exec.Pool.submit pool (fun () ->
                                    List.map
                                      (fun () ->
                                        match
                                          Runtime.Interp.recognize c toks
                                        with
                                        | Ok () -> true
                                        | Error _ -> false)
                                      [ (); () ]))
                              toks_list
                          in
                          List.concat_map Exec.Pool.await tasks)
                    in
                    par = seq)
              [ 2; 4 ]);
  ]

(* --- Bounded retries that stop converging ------------------------------ *)

(* Sprout [eng] breadth first -- every terminal of every reachable state,
   in the eager construction's order -- until the engine rebuilds or [limit]
   fresh states have been sprouted.  Returns how it ended and the number of
   fresh states. *)
let sprout_bfs ?(limit = max_int) c eng =
  let nterms = Grammar.Sym.num_terms (Llstar.Compiled.sym c) in
  let seen = Hashtbl.create 256 and q = Queue.create () in
  let visit s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      Queue.add s q
    end
  in
  visit 0;
  let fresh = ref 0 in
  let rec next_state () =
    match Queue.take_opt q with
    | None -> `Exhausted
    | Some s -> next_term s 0
  and next_term s term =
    if term >= nterms then next_state ()
    else
      match Llstar.Lazy_dfa.sprout eng ~state:s ~term with
      | Llstar.Lazy_dfa.Rebuilt -> `Rebuilt
      | Llstar.Lazy_dfa.Edge { target; fresh = f } ->
          visit target;
          if f then incr fresh;
          if !fresh >= limit then `Limit else next_term s (term + 1)
      | Llstar.Lazy_dfa.Resolved | Llstar.Lazy_dfa.No_edge ->
          next_term s (term + 1)
  in
  let ended = next_state () in
  (ended, !fresh)

(* A building engine's open-state counts per depth, without trailing
   zeros. *)
let open_counts eng =
  match eng.Llstar.Lazy_dfa.phase with
  | Llstar.Lazy_dfa.Done -> Alcotest.fail "engine no longer building"
  | Llstar.Lazy_dfa.Building b ->
      let a = b.Llstar.Analysis.open_at_depth in
      let n = ref (Array.length a) in
      while !n > 0 && a.(!n - 1) = 0 do decr n done;
      Array.to_list (Array.sub a 0 !n)

let not_converging (r : Llstar.Analysis.result) =
  List.exists
    (function Llstar.Analysis.Not_converging _ -> true | _ -> false)
    r.Llstar.Analysis.warnings

let frontier_cases =
  [
    test "sprouting MiniVB's diverging decision rebuilds to the eager result"
      (fun () ->
        let spec = Option.get (Bench_grammars.Specs.find "MiniVB") in
        let eager = (eager_of spec).Workload.c in
        let d =
          match
            List.find_opt
              (fun i -> not_converging eager.Llstar.Compiled.results.(i))
              (List.init (Llstar.Compiled.num_decisions eager) Fun.id)
          with
          | Some d -> d
          | None -> Alcotest.fail "no MiniVB decision stops converging"
        in
        let c = lazy_compile spec in
        let eng = Option.get (Llstar.Compiled.engine c d) in
        check bool "rebuilt" true (fst (sprout_bfs c eng) = `Rebuilt);
        check int "one rebuild" 1 (Llstar.Lazy_dfa.rebuilds eng);
        let r = Llstar.Lazy_dfa.result eng in
        check bool "same result as eager" true
          (r = eager.Llstar.Compiled.results.(d));
        check bool "LL(1) fallback DFA" true
          r.Llstar.Analysis.dfa.Llstar.Look_dfa.fallback);
    test "a restored engine stops converging where a fresh one would"
      (fun () ->
        let src = example_grammar "diverging.g" in
        let c =
          Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy src
        in
        let d = rule_decision c "s" in
        let eng = Option.get (Llstar.Compiled.engine c d) in
        (* most of the way to the limit, still building *)
        check bool "partial sprout" true
          (fst (sprout_bfs ~limit:150 c eng) = `Limit);
        let restored =
          Llstar.Lazy_dfa.of_portable ~opts:c.Llstar.Compiled.opts
            c.Llstar.Compiled.atn
            c.Llstar.Compiled.atn.Atn.decisions.(d)
            (Llstar.Lazy_dfa.to_portable eng)
        in
        check (Alcotest.list int) "open counts rebuilt" (open_counts eng)
          (open_counts restored);
        (* Canonical ids are this BFS's discovery order, so both engines
           sprout the same states in the same order from here; one that had
           forgotten its counts would go on to the next depth. *)
        let ended, fresh = sprout_bfs c eng in
        check bool "fresh engine rebuilds" true (ended = `Rebuilt);
        check bool "restored engine rebuilds after as many states" true
          (sprout_bfs c restored = (`Rebuilt, fresh));
        let eager = Llstar.Compiled.of_source_exn src in
        check bool "same result as eager" true
          (Llstar.Lazy_dfa.result restored
          = eager.Llstar.Compiled.results.(d)));
  ]

let suite =
  [
    ( "lazy_dfa",
      small_cases @ concurrency_tests
      @ List.concat_map per_grammar Bench_grammars.Specs.all
      @ frontier_cases );
  ]
