(* Differential-fuzzer tests: the mutation engine and shrinker (determinism
   under a fixed seed), oracle smoke tests, replay of any committed
   reproducers under fuzz-corpus/, and regression tests for the
   recovery/profiling bugs the fuzzer flushed out:

   - [Interp.follow_set] walked *into* nullable callees and out through
     every caller of the callee's rule, so a shared nullable rule leaked
     the FOLLOW of unrelated call sites into the sync set (recovery then
     stopped skipping too early); the fix contributes the callee's FIRST
     set and falls through to the state after the call iff the callee is
     nullable;
   - [Interp.eval_synpred] pre-set the stream's high-water mark to the
     speculation start, so an empty synpred fragment reported a lookahead
     reach of 1 token despite examining nothing; likewise
     [Token_stream.of_array] claimed index 0 was examined before any
     lt/la call. *)

open Helpers
module Workload = Bench_grammars.Workload

(* ------------------------------------------------------------------ *)
(* Satellite regressions: recovery sync sets                           *)

(* x is followed by 'E'? 'C' at its only call site; rule b is *also*
   called before 'D', so walking into b and out through all of b's
   callers wrongly added 'D' to follow(x). *)
let follow_src = "grammar P; s : x b 'C' b 'D' ; x : 'A' ; b : 'E' ? ;"

let interp_for c text =
  Runtime.Interp.create c (Runtime.Token_stream.of_array (lex c text))

let rule_id c name =
  match Atn.rule_by_name c.Llstar.Compiled.atn name with
  | Some r -> r
  | None -> Alcotest.failf "no rule %s" name

let mem_follow c t rule term =
  let set = Runtime.Interp.follow_set t (rule_id c rule) in
  match Grammar.Sym.find_term (Llstar.Compiled.sym c) term with
  | Some id -> Bitset.mem set id
  | None -> Alcotest.failf "no terminal %s" term

let recovery_tests =
  [
    test "follow_set does not leak other call sites of a shared callee"
      (fun () ->
        let c = compile follow_src in
        let t = interp_for c "A" in
        check bool "'E' in follow(x)" true (mem_follow c t "x" "'E'");
        check bool "'C' in follow(x) (b is nullable)" true
          (mem_follow c t "x" "'C'");
        (* pre-fix: the walk entered b, reached b's stop state and jumped
           through b's second call site, adding 'D' *)
        check bool "'D' not in follow(x)" false (mem_follow c t "x" "'D'"));
    test "follow_set continues past nullable callees" (fun () ->
        let c = compile "grammar Q; s : x b 'B' ; b : 'C' ? ; x : 'A' ;" in
        let t = interp_for c "A" in
        check bool "'C' in follow(x)" true (mem_follow c t "x" "'C'");
        check bool "'B' in follow(x) (through nullable b)" true
          (mem_follow c t "x" "'B'");
        check bool "'A' not in follow(x)" false (mem_follow c t "x" "'A'"));
    test "recover_to_follow skips tokens outside the sync set" (fun () ->
        let c = compile follow_src in
        let t = interp_for c "D E C" in
        (* recovering inside x: 'D' is junk here (it only follows the
           *second* b call), 'E' is real follow material *)
        Runtime.Interp.recover_to_follow t (rule_id c "x");
        check int "stopped on 'E'" 1
          (Runtime.Token_stream.index t.Runtime.Interp.ts));
  ]

(* ------------------------------------------------------------------ *)
(* Satellite regressions: speculation reach                            *)

let reach_tests =
  [
    test "fresh token stream has examined nothing" (fun () ->
        let ts =
          Runtime.Token_stream.of_array [| Runtime.Token.make 5 "x" |]
        in
        check int "initial high water" (-1) (Runtime.Token_stream.high_water ts);
        ignore (Runtime.Token_stream.la ts 1);
        check int "after la 1" 0 (Runtime.Token_stream.high_water ts));
    test "empty speculation reports zero lookahead reach" (fun () ->
        let c = compile "grammar R; s : e 'A' ; e : ;" in
        let t = interp_for c "A" in
        let ok = Runtime.Interp.eval_synpred t (rule_id c "e") in
        let reach = t.Runtime.Interp.synpred_reach in
        check bool "speculation succeeds" true ok;
        (* pre-fix: the high-water mark was pre-set to the start position,
           so reach came out as 1 despite no token being examined *)
        check int "reach" 0 reach);
    test "non-empty speculation still counts examined tokens" (fun () ->
        let c = compile "grammar S; s : e 'C' ; e : 'A' 'B' ;" in
        let t = interp_for c "A B C" in
        let ok = Runtime.Interp.eval_synpred t (rule_id c "e") in
        let reach = t.Runtime.Interp.synpred_reach in
        check bool "speculation succeeds" true ok;
        check int "reach" 2 reach);
  ]

(* ------------------------------------------------------------------ *)
(* Satellite: Result-returning compile paths                           *)

let result_tests =
  [
    test "Workload.compile_result surfaces grammar errors as a value"
      (fun () ->
        let bad : Workload.spec =
          {
            Workload.name = "bad";
            grammar_text = "grammar Bad; s : undefined_rule ;";
            lexer_config = Runtime.Lexer_engine.default_config;
            samples = [];
            sample_lexeme = (fun _ n -> n);
            sem_preds = [];
            gen_start = None;
          }
        in
        match Workload.compile_result bad with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Error");
    test "Workload.compile_result compiles a good spec" (fun () ->
        match Workload.compile_result Bench_grammars.Mini_java.spec with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "unexpected error: %a" Llstar.Compiled.pp_error e);
  ]

(* ------------------------------------------------------------------ *)
(* Mutation engine                                                     *)

let mutate_tests =
  [
    test "operators transform as specified" (fun () ->
        let toks = [| "a"; "b"; "c" |] in
        let eq = Alcotest.(check (array string)) in
        eq "drop" [| "a"; "c" |] (Fuzz.Mutate.apply (Fuzz.Mutate.Drop 1) toks);
        eq "swap" [| "c"; "b"; "a" |]
          (Fuzz.Mutate.apply (Fuzz.Mutate.Swap (0, 2)) toks);
        eq "dup" [| "a"; "a"; "b"; "c" |]
          (Fuzz.Mutate.apply (Fuzz.Mutate.Dup 0) toks);
        eq "subst" [| "a"; "X"; "c" |]
          (Fuzz.Mutate.apply (Fuzz.Mutate.Subst (1, "X")) toks);
        (* out-of-range ops (possible after shrinking) are the identity *)
        eq "oob drop" toks (Fuzz.Mutate.apply (Fuzz.Mutate.Drop 9) toks);
        eq "oob swap" toks (Fuzz.Mutate.apply (Fuzz.Mutate.Swap (0, 9)) toks));
    test "mutation is deterministic under a fixed seed" (fun () ->
        let vocab = [| "x"; "y"; "z" |] in
        let toks = [| "a"; "b"; "c"; "d"; "e" |] in
        let run () =
          let rng = Grammar.Sentence_gen.rng_of_seed ~index:3 7 in
          Fuzz.Mutate.mutate rng ~vocab ~count:4 toks
        in
        let ops1, out1 = run () in
        let ops2, out2 = run () in
        Alcotest.(check (array string)) "same output" out1 out2;
        check int "same op count" (List.length ops1) (List.length ops2);
        List.iter2
          (fun a b ->
            check string "same op" (Fmt.str "%a" Fuzz.Mutate.pp_op a)
              (Fmt.str "%a" Fuzz.Mutate.pp_op b))
          ops1 ops2);
    test "empty sentences admit no mutation" (fun () ->
        let rng = Grammar.Sentence_gen.rng_of_seed 1 in
        check bool "no op" true
          (Fuzz.Mutate.random_op rng ~vocab:[| "x" |] [||] = None));
  ]

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)

let shrink_tests =
  [
    test "shrinks to the single failure-relevant token" (fun () ->
        let failing names = List.mem "X" names in
        let shrunk =
          Fuzz.Oracle.shrink ~failing [ "a"; "b"; "X"; "c"; "d"; "e" ]
        in
        Alcotest.(check (list string)) "minimal" [ "X" ] shrunk);
    test "shrinking preserves the failure and is deterministic" (fun () ->
        let failing names =
          List.length (List.filter (fun s -> s = "X") names) >= 2
        in
        let input = [ "X"; "a"; "b"; "X"; "c"; "X"; "d" ] in
        let s1 = Fuzz.Oracle.shrink ~failing input in
        let s2 = Fuzz.Oracle.shrink ~failing input in
        check bool "still failing" true (failing s1);
        Alcotest.(check (list string)) "deterministic" s1 s2;
        check int "minimal size" 2 (List.length s1));
    test "a non-failing input is returned unchanged" (fun () ->
        let input = [ "a"; "b" ] in
        Alcotest.(check (list string))
          "unchanged" input
          (Fuzz.Oracle.shrink ~failing:(fun _ -> false) input));
  ]

(* ------------------------------------------------------------------ *)
(* Oracle smoke + driver determinism                                   *)

let oracle_of_spec spec =
  match Fuzz.Oracle.create spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "oracle: %a" Llstar.Compiled.pp_error e

let oracle_tests =
  [
    test "generated MiniJava sentences produce no divergence" (fun () ->
        let spec = Bench_grammars.Mini_java.spec in
        let o = oracle_of_spec spec in
        let rng = Grammar.Sentence_gen.rng_of_seed 11 in
        let sentence =
          Grammar.Sentence_gen.generate ?start:spec.Workload.gen_start
            Fuzz.Oracle.(o.cw).Workload.gen ~rng ~size:20
        in
        let outcome, divs = Fuzz.Oracle.check o sentence in
        check bool "no divergences" true (divs = []);
        check bool "accepted" true
          (outcome.Fuzz.Oracle.o_llstar = Fuzz.Oracle.Accept));
    test "garbage input is rejected everywhere without divergence" (fun () ->
        let o = oracle_of_spec Bench_grammars.Mini_java.spec in
        let _, divs = Fuzz.Oracle.check o [ "'}'"; "'{'"; "ID" ] in
        check bool "no divergences" true (divs = []));
    test "fuzz runs are deterministic for a fixed seed" (fun () ->
        let spec = Bench_grammars.Mini_sql.spec in
        let run () =
          match Fuzz.Driver.run_spec ~seed:5 ~runs:20 ~size:15 spec with
          | Ok r -> r
          | Error e -> Alcotest.failf "driver: %a" Llstar.Compiled.pp_error e
        in
        let r1 = run () and r2 = run () in
        check int "accepted" r1.Fuzz.Driver.r_accepted r2.Fuzz.Driver.r_accepted;
        check int "rejected" r1.Fuzz.Driver.r_rejected r2.Fuzz.Driver.r_rejected;
        check int "failures"
          (List.length r1.Fuzz.Driver.r_failures)
          (List.length r2.Fuzz.Driver.r_failures));
    test "reproducer files round-trip" (fun () ->
        let dir = Filename.temp_file "fuzz" "" in
        Sys.remove dir;
        let d =
          {
            Fuzz.Oracle.d_grammar = "MiniJava";
            d_kind = "crash";
            d_detail = "example";
            d_tokens = [ "'class'"; "ID" ];
          }
        in
        let file =
          Fuzz.Driver.write_reproducer ~dir ~seed:9 ~run:3 d
            [ "'class'"; "ID" ]
        in
        (match Fuzz.Driver.read_reproducer file with
        | Error m -> Alcotest.fail m
        | Ok rp ->
            check string "grammar" "MiniJava" rp.Fuzz.Driver.rp_grammar;
            check string "kind" "crash" rp.Fuzz.Driver.rp_kind;
            Alcotest.(check (list string))
              "tokens" [ "'class'"; "ID" ] rp.Fuzz.Driver.rp_tokens);
        Sys.remove file;
        Unix.rmdir dir);
  ]

(* ------------------------------------------------------------------ *)
(* Corpus replay: every committed reproducer must stay fixed           *)

let replay_tests =
  [
    test "committed reproducers no longer diverge" (fun () ->
        match find_up "fuzz-corpus" with
        | None -> ()
        | Some dir ->
            let oracles = Hashtbl.create 8 in
            Array.iter
              (fun file ->
                if Filename.check_suffix file ".txt" then
                  let path = Filename.concat dir file in
                  match Fuzz.Driver.read_reproducer path with
                  | Error m -> Alcotest.fail m
                  | Ok rp -> (
                      match
                        Bench_grammars.Specs.find rp.Fuzz.Driver.rp_grammar
                      with
                      | None ->
                          Alcotest.failf "%s: unknown grammar %s" file
                            rp.Fuzz.Driver.rp_grammar
                      | Some spec ->
                          let o =
                            match
                              Hashtbl.find_opt oracles rp.Fuzz.Driver.rp_grammar
                            with
                            | Some o -> o
                            | None ->
                                let o = oracle_of_spec spec in
                                Hashtbl.add oracles rp.Fuzz.Driver.rp_grammar o;
                                o
                          in
                          match Fuzz.Driver.replay o rp with
                          | [] -> ()
                          | d :: _ ->
                              Alcotest.failf "%s regressed: %a" file
                                Fuzz.Oracle.pp_divergence d))
              (Sys.readdir dir));
  ]

let suite =
  [
    ("fuzz: recovery sync sets", recovery_tests);
    ("fuzz: speculation reach", reach_tests);
    ("fuzz: result compile paths", result_tests);
    ("fuzz: mutation engine", mutate_tests);
    ("fuzz: shrinker", shrink_tests);
    ("fuzz: oracle", oracle_tests);
    ("fuzz: corpus replay", replay_tests);
  ]
