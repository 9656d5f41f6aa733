(* Integration tests over the six benchmark grammars: every grammar
   compiles, its decision mix has the paper-like shape, the handwritten
   samples parse, and corpus generation produces validated programs. *)

open Helpers
module Workload = Bench_grammars.Workload

let compiled = Hashtbl.create 8

let cw_of (spec : Workload.spec) =
  match Hashtbl.find_opt compiled spec.name with
  | Some cw -> cw
  | None ->
      let cw = Workload.compile spec in
      Hashtbl.add compiled spec.name cw;
      cw

let per_grammar (spec : Workload.spec) =
  [
    test (spec.name ^ ": compiles with paper-like decision mix") (fun () ->
        let cw = cw_of spec in
        let r = cw.Workload.c.Llstar.Compiled.report in
        check bool "has decisions" true (r.Llstar.Report.n > 20);
        check bool "mostly fixed" true
          (Llstar.Report.pct_fixed r > 80.0);
        check bool "mostly LL(1)" true (Llstar.Report.pct_ll1 r > 70.0);
        check bool "some backtracking tail" true (r.Llstar.Report.backtrack >= 1));
    test (spec.name ^ ": handwritten samples parse") (fun () ->
        let cw = cw_of spec in
        let env = Workload.env_of_spec spec in
        List.iteri
          (fun i sample ->
            match Workload.lex cw sample with
            | Error e ->
                Alcotest.failf "sample %d lex error: %a" i
                  Runtime.Lexer_engine.pp_error e
            | Ok toks -> (
                match Runtime.Interp.parse ~env cw.Workload.c toks with
                | Ok tree ->
                    check string
                      (Printf.sprintf "sample %d yield" i)
                      (String.concat " "
                         (List.map
                            (fun (t : Runtime.Token.t) -> t.Runtime.Token.text)
                            (Array.to_list toks)))
                      (Runtime.Tree.yield tree)
                | Error errs ->
                    Alcotest.failf "sample %d: %a" i
                      Fmt.(
                        list
                          (Runtime.Parse_error.pp
                             (Llstar.Compiled.sym cw.Workload.c)))
                      errs))
          spec.samples);
    test (spec.name ^ ": corpus generates and validates") (fun () ->
        let cw = cw_of spec in
        let corpus = Workload.build_corpus ~seed:7 cw ~target_tokens:1500 in
        check bool "enough tokens" true (corpus.Workload.tokens >= 1500);
        check bool "samples all accepted" true
          (corpus.Workload.programs >= List.length spec.samples));
  ]

let deterministic_dfas (spec : Workload.spec) =
  test (spec.name ^ ": DFAs are deterministic and well-formed") (fun () ->
      let cw = cw_of spec in
      Array.iter
        (fun (r : Llstar.Analysis.result) ->
          let dfa = r.Llstar.Analysis.dfa in
          for s = 0 to dfa.Llstar.Look_dfa.nstates - 1 do
            (* terminal edges deterministic *)
            let seen = Hashtbl.create 8 in
            Array.iter
              (fun (t, tgt) ->
                (match Hashtbl.find_opt seen t with
                | Some _ -> Alcotest.failf "duplicate edge on terminal %d" t
                | None -> Hashtbl.add seen t ());
                check bool "target in range" true
                  (tgt >= 0 && tgt < dfa.Llstar.Look_dfa.nstates))
              dfa.Llstar.Look_dfa.edges.(s);
            (* accepting states predict a real alternative *)
            let a = dfa.Llstar.Look_dfa.accept.(s) in
            check bool "accept >= 0" true (a >= 0);
            Array.iter
              (fun (e : Llstar.Look_dfa.pred_edge) ->
                check bool "pred alt positive" true (e.Llstar.Look_dfa.alt >= 1))
              dfa.Llstar.Look_dfa.preds.(s)
          done)
        cw.Workload.c.Llstar.Compiled.results)

let dot_export_tests =
  [
    test "DFA and ATN DOT export are well-formed" (fun () ->
        let c = compile "grammar D; s : A B | A C | (D)* E ;" in
        let dot =
          Llstar.Dfa_dot.to_dot (Llstar.Compiled.sym c) (Llstar.Compiled.dfa c 0)
        in
        check bool "digraph" true (Helpers.contains dot "digraph");
        check bool "accept marker" true (Helpers.contains dot "=> 1");
        let adot = Atn.Dot.to_dot c.Llstar.Compiled.atn in
        check bool "atn digraph" true (Helpers.contains adot "digraph ATN"));
  ]



(* Corpus generation is deterministic per seed, so benchmark runs are
   reproducible. *)
let determinism_tests =
  [
    test "corpus generation is deterministic per seed" (fun () ->
        let spec = Bench_grammars.Mini_java.spec in
        let cw = cw_of spec in
        let c1 = Workload.build_corpus ~seed:11 cw ~target_tokens:1000 in
        let c2 = Workload.build_corpus ~seed:11 cw ~target_tokens:1000 in
        let c3 = Workload.build_corpus ~seed:12 cw ~target_tokens:1000 in
        check string "same seed, same corpus" c1.Workload.text c2.Workload.text;
        check bool "different seed, different corpus" true
          (c1.Workload.text <> c3.Workload.text));
  ]

let suite =
  [
    ( "benchmark-grammars",
      List.concat_map per_grammar Bench_grammars.Specs.all );
    ("dfa-wellformed", List.map deterministic_dfas Bench_grammars.Specs.all);
    ("dot-export", dot_export_tests);
    ("workload", determinism_tests);
  ]
