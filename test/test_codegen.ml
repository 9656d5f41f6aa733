(* Code-generation tests (lib/codegen): the compiled-away parsers must be
   indistinguishable from the {!Runtime.Interp} oracle.

   Four layers:

   - the six generated parsers (lib/gen, emitted at build time by the
     dune rules there) agree with the interpreter -- accept/reject, error
     kind and position, consumed token count -- over a freshly built
     workload corpus, and so does Interp fed by the chunked lexer through
     a 256-token sliding window; a bench grammar without a generated
     parser fails, and the registry holds exactly the bench grammars'
     parsers, each with the compiled grammar's token and rule interning;
   - the closure-execution backend ({!Codegen.Exec}, which interprets
     the IR with the exact control flow the emitter prints) agrees with
     the interpreter on qcheck-random grammars and random token strings,
     at both the default inline threshold and [~inline_threshold:0]
     (everything table-driven), so both decision-lowering strategies are
     exercised;
   - emission is deterministic (lower + emit twice, byte-identical);
   - every committed fuzz-corpus reproducer replays without divergence
     through the generated parser.

   The fuzz-corpus directory is located with {!Helpers.find_up}; a
   sandboxed run without it is trivially green. *)

open Helpers
module Workload = Bench_grammars.Workload
module RtG = Runtime.Generated

let spec_exn name =
  match Bench_grammars.Specs.find name with
  | Some s -> s
  | None -> Alcotest.failf "no bench spec %s" name

let generated_parser name =
  match Gen.Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "no generated parser for %s" name

(* ------------------------------------------------------------------ *)
(* Generated parsers vs the interpreter over workload corpora          *)

let corpus_agreement (spec : Workload.spec) =
  let name = spec.Workload.name in
  test (Printf.sprintf "%s: generated agrees with Interp on corpus" name)
    (fun () ->
      let cw = Workload.compile spec in
      let env = Workload.env_of_spec spec in
      let (module P : RtG.PARSER) = generated_parser name in
      let corpus = Workload.build_corpus cw ~target_tokens:2_000 in
      List.iter
        (fun text ->
          let toks = Workload.lex_exn cw text in
          let got = P.outcome ~env toks in
          let want = RtG.interp_outcome ~env cw.Workload.c toks in
          if not (RtG.agree got want) then
            Alcotest.failf "%s diverges on %S: generated=%s interp=%s" name
              text (RtG.describe got) (RtG.describe want);
          let streamed, _, _ =
            streamed_verdict ~env ~config:spec.Workload.lexer_config
              ~window:256 cw.Workload.c text
          in
          if not (verdict_agree (Parsed want) streamed) then
            Alcotest.failf "%s diverges on %S: streamed=%s interp=%s" name
              text
              (describe_verdict streamed)
              (RtG.describe want))
        corpus.Workload.texts)

(* The generated module's embedded vocabulary must match the compiled
   grammar's interning, or token ids in emitted match arms mean the wrong
   terminal. *)
let vocabulary_matches (spec : Workload.spec) =
  let name = spec.Workload.name in
  test (Printf.sprintf "%s: embedded vocabulary matches compile" name)
    (fun () ->
      let cw = Workload.compile spec in
      let sym = Llstar.Compiled.sym cw.Workload.c in
      let (module P : RtG.PARSER) = generated_parser name in
      check int "terminal count" (Grammar.Sym.num_terms sym)
        (Array.length P.token_names);
      Array.iteri
        (fun i n -> check string (Printf.sprintf "term %d" i)
            (Grammar.Sym.term_name sym i) n)
        P.token_names)

(* The registry holds exactly one generated parser per bench grammar, in
   Specs order, each emitted from that grammar: its name matches and its
   rule names are the compiled grammar's rule interning, which
   {!RtG.rebuild_sym} relies on to reconstruct ids. *)
let registry_matches_specs =
  test "registry: one generated parser per bench grammar" (fun () ->
      check (Alcotest.list string) "registry names in Specs order"
        (List.map (fun (s : Workload.spec) -> s.Workload.name)
           Bench_grammars.Specs.all)
        (List.map fst Gen.Registry.parsers);
      List.iter
        (fun (spec : Workload.spec) ->
          let name = spec.Workload.name in
          let (module P : RtG.PARSER) = generated_parser name in
          check string (name ^ " grammar_name") name P.grammar_name;
          let sym = Llstar.Compiled.sym (Workload.compile spec).Workload.c in
          check int (name ^ " rule count") (Grammar.Sym.num_nonterms sym)
            (Array.length P.rule_names);
          Array.iteri
            (fun i n ->
              check string
                (Printf.sprintf "%s rule %d" name i)
                (Grammar.Sym.nonterm_name sym i) n)
            P.rule_names)
        Bench_grammars.Specs.all)

(* ------------------------------------------------------------------ *)
(* Exec backend vs Interp on random grammars (both decision plans)     *)

let exec_agrees_with_interp ~inline_threshold (g, word) =
  match Test_props.compile_rand g with
  | None -> true
  | Some c -> (
      match Codegen.Lower.lower ~inline_threshold c with
      | Error m -> Alcotest.failf "lower failed on a compiled grammar: %s" m
      | Ok ir ->
          let (module P : RtG.PARSER) = Codegen.Exec.to_parser ir in
          let names = List.map (fun i -> Test_props.terminals.(i)) word in
          let toks = Test_props.tokens_of_names c names in
          let got = P.outcome toks in
          let want = RtG.interp_outcome c toks in
          RtG.agree got want)

let arb_grammar_and_word =
  QCheck.pair Test_props.arb_grammar
    (QCheck.list_of_size (QCheck.Gen.int_bound 6) (QCheck.int_bound 4))

let props =
  [
    qtest ~count:150 "exec backend agrees with Interp (inline decisions)"
      arb_grammar_and_word
      (exec_agrees_with_interp
         ~inline_threshold:Codegen.Lower.default_inline_threshold);
    qtest ~count:150 "exec backend agrees with Interp (table decisions)"
      arb_grammar_and_word
      (exec_agrees_with_interp ~inline_threshold:0);
    qtest ~count:100 "exec backend accepts drawn sentences iff Interp does"
      Test_props.arb_grammar_and_sentence (fun (g, sentence) ->
        match (Test_props.compile_rand g, sentence) with
        | None, _ | _, None -> true
        | Some c, Some sentence -> (
            match Codegen.Lower.lower c with
            | Error m ->
                Alcotest.failf "lower failed on a compiled grammar: %s" m
            | Ok ir ->
                let (module P : RtG.PARSER) = Codegen.Exec.to_parser ir in
                let toks = Test_props.tokens_of_names c sentence in
                RtG.agree (P.outcome toks) (RtG.interp_outcome c toks)));
  ]

(* ------------------------------------------------------------------ *)
(* Emission determinism                                               *)

(* Mirror lib/gen/emit: same lexer hint and grammar text, so the emitted
   text is exactly what the build compiles. *)
let emit_for (spec : Workload.spec) =
  let cw = Workload.compile spec in
  match
    Codegen.Lower.lower ~lexer:spec.Workload.lexer_config
      ~grammar_text:spec.Workload.grammar_text cw.Workload.c
  with
  | Error m -> Alcotest.failf "lower %s: %s" spec.Workload.name m
  | Ok ir -> Codegen.Emit_ocaml.emit ir

let determinism_tests =
  [
    test "emission is deterministic (lower + emit twice)" (fun () ->
        List.iter
          (fun (spec : Workload.spec) ->
            check bool (spec.Workload.name ^ " byte-identical") true
              (String.equal (emit_for spec) (emit_for spec)))
          Bench_grammars.Specs.all);
  ]

(* ------------------------------------------------------------------ *)
(* Fuzz-corpus reproducers replayed through the generated parsers      *)

let replay_tests =
  [
    test "committed reproducers agree generated-vs-Interp" (fun () ->
        match find_up "fuzz-corpus" with
        | None -> ()
        | Some dir ->
            Array.iter
              (fun file ->
                if Filename.check_suffix file ".txt" then
                  match
                    Fuzz.Driver.read_reproducer (Filename.concat dir file)
                  with
                  | Error m -> Alcotest.fail m
                  | Ok rp -> (
                      let name = rp.Fuzz.Driver.rp_grammar in
                      match Gen.Registry.find name with
                      | None -> () (* reproducer for a non-bench grammar *)
                      | Some (module P : RtG.PARSER) -> (
                          match Fuzz.Oracle.create (spec_exn name) with
                          | Error e ->
                              Alcotest.failf "oracle: %a"
                                Llstar.Compiled.pp_error e
                          | Ok o ->
                              let toks =
                                Fuzz.Oracle.tokens_of_names o
                                  rp.Fuzz.Driver.rp_tokens
                              in
                              let spec = spec_exn name in
                              let env = Workload.env_of_spec spec in
                              let cw = Workload.compile spec in
                              let got = P.outcome ~env toks in
                              let want =
                                RtG.interp_outcome ~env cw.Workload.c toks
                              in
                              if not (RtG.agree got want) then
                                Alcotest.failf
                                  "%s: generated=%s interp=%s" file
                                  (RtG.describe got) (RtG.describe want))))
              (Sys.readdir dir));
  ]

let suite =
  [
    ( "codegen: corpus agreement",
      List.map corpus_agreement Bench_grammars.Specs.all );
    ( "codegen: vocabulary",
      List.map vocabulary_matches Bench_grammars.Specs.all
      @ [ registry_matches_specs ] );
    ("codegen: random grammars", props);
    ("codegen: determinism", determinism_tests);
    ("codegen: reproducer replay", replay_tests);
  ]
