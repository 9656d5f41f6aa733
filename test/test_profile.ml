(* Profile counters: the DFA depth and speculation depth are recorded
   separately (the old [record] folded speculation into the DFA depth,
   double-counting it), and the cached and retired lazy DFA-state
   counters. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Decision counts are part of the paper's results (Tables 3 and 4), so a
   change to prediction or speculation must leave them alone.  Each bench
   grammar's seed-7 4k-token corpus is parsed by Interp and by its
   generated parser; the two print the same profile (summary line and
   per-decision table: events, backtracks, avg/max k, speculation depth),
   whose digest is pinned. *)

module Workload = Bench_grammars.Workload

let corpus_programs (spec : Workload.spec) =
  let cw, _ = Test_cache.fresh_and_cached spec in
  let corpus = Workload.build_corpus ~seed:7 cw ~target_tokens:4000 in
  (cw, List.map (Workload.lex_exn cw) corpus.Workload.texts)

let profile_text (spec : Workload.spec) ~(generated : bool) : string =
  let cw, programs = corpus_programs spec in
  let env = Workload.env_of_spec spec in
  let p = Runtime.Profile.create () in
  let (module P : Runtime.Generated.PARSER) =
    Option.get (Gen.Registry.find spec.name)
  in
  List.iter
    (fun toks ->
      let ok =
        if generated then (P.outcome ~env ~profile:p toks).Runtime.Generated.ok
        else
          Result.is_ok
            (Runtime.Interp.recognize ~env ~profile:p cw.Workload.c toks)
      in
      if not ok then Alcotest.failf "%s: corpus program rejected" spec.name)
    programs;
  Fmt.str "%a@.%a" Runtime.Profile.pp p Runtime.Profile.pp_decisions p

let golden_tests =
  List.map
    (fun (name, digest) ->
      test (name ^ ": Interp and generated profiles match the digest")
        (fun () ->
          let spec = Option.get (Bench_grammars.Specs.find name) in
          List.iter
            (fun generated ->
              let text = profile_text spec ~generated in
              check string
                (if generated then "generated" else "Interp")
                digest
                (Digest.to_hex (Digest.string text)))
            [ false; true ]))
    [
      ("MiniJava", "58e5545a201d532cec2c1b5db46fbd2c");
      ("RatsC", "a6c55eb87a5bb928d63a5880fc55280a");
      ("RatsJava", "c324953688beae95d020c2aa36c1d460");
      ("MiniVB", "cae33533cfacfc183948540d7991561e");
      ("MiniSQL", "f1d8b95230b4aabad2fc5b2bc12e02f1");
      ("MiniCSharp", "9a455f72fa6a81dc578efaa92b5b5c55");
    ]

(* Every [Decision_exit] of a successful prediction reports as its [k] the
   number of [Dfa_edge] events since its [Decision_enter]: the first-token
   accept emits the edge the loop would have.  Decisions nest through
   speculation (a syntactic predicate runs after its decision's walk), so
   the counts live on a stack; a failed prediction (alt 0) reports k 0
   and is only popped. *)
let trace_walk_tests =
  List.map
    (fun (spec : Workload.spec) ->
      test (spec.name ^ ": decision k equals its DFA edges") (fun () ->
          let cw, programs = corpus_programs spec in
          let env = Workload.env_of_spec spec in
          let stack = ref [] and exits = ref 0 in
          let sink _ (ev : Obs.Trace.event) =
            match (ev, !stack) with
            | Obs.Trace.Decision_enter _, st -> stack := 0 :: st
            | Obs.Trace.Dfa_edge _, n :: st -> stack := (n + 1) :: st
            | Obs.Trace.Dfa_edge { decision; _ }, [] ->
                Alcotest.failf "d%d: edge outside a decision" decision
            | Obs.Trace.Decision_exit { decision; alt; k; pos }, n :: st ->
                stack := st;
                if alt <> 0 then begin
                  incr exits;
                  if k <> n then
                    Alcotest.failf "d%d at %d: k=%d after %d edges" decision
                      pos k n
                end
            | Obs.Trace.Decision_exit { decision; _ }, [] ->
                Alcotest.failf "d%d: exit without enter" decision
            | _ -> ()
          in
          let tracer = Obs.Trace.make sink in
          List.iter
            (fun toks ->
              match
                Runtime.Interp.recognize ~env ~tracer cw.Workload.c toks
              with
              | Ok () -> ()
              | Error _ -> Alcotest.failf "%s: corpus program rejected" spec.name)
            programs;
          check int "balanced" 0 (List.length !stack);
          check bool "exits checked" true (!exits > 0)))
    Bench_grammars.Specs.all

(* Memo entries die by one lifetime rule (DESIGN.md, "The speculation
   memo"); an entry dropped while a lookup could still come shows up as a
   miss where there was a hit.  Interp's [Memo_hit]/[Memo_miss] events
   over each bench grammar's seed-7 4k-token corpus (all six memoize) are
   pinned at what the table answered when it kept every entry. *)
let memo_counts ?env (c : Llstar.Compiled.t) name programs =
  let h = ref 0 and m = ref 0 in
  let sink _ = function
    | Obs.Trace.Memo_hit _ -> incr h
    | Obs.Trace.Memo_miss _ -> incr m
    | _ -> ()
  in
  let tracer = Obs.Trace.make sink in
  List.iter
    (fun toks ->
      if Runtime.Interp.recognize ?env ~tracer c toks <> Ok () then
        Alcotest.failf "%s: program rejected" name)
    programs;
  (!h, !m)

let memo_golden_tests =
  List.map
    (fun (name, hits, misses) ->
      test (name ^ ": memo hits and misses") (fun () ->
          let spec = Option.get (Bench_grammars.Specs.find name) in
          let cw, programs = corpus_programs spec in
          let env = Workload.env_of_spec spec in
          let h, m = memo_counts ~env cw.Workload.c name programs in
          check int "hits" hits h;
          check int "misses" misses m))
    [
      ("MiniJava", 277, 3363);
      ("RatsC", 1558, 8515);
      ("RatsJava", 1100, 4592);
      ("MiniVB", 0, 144);
      ("MiniSQL", 103, 5023);
      ("MiniCSharp", 344, 2893);
    ]
  @ [
      (* 2000 statements, each one speculation whose entries die when the
         next starts: every lookup misses *)
      test "StreamScale: memo hits and misses" (fun () ->
          let c = compile stream_scale_grammar in
          let h, m =
            memo_counts c "StreamScale" [ lex c (stream_scale_text 2000) ]
          in
          check int "hits" 0 h;
          check int "misses" 27000 m);
    ]

let suite =
  [
    ( "profile_counters",
      [
        test "dfa depth and speculation depth tracked separately" (fun () ->
            let p = Runtime.Profile.create () in
            (* (dfa depth, backtracked, speculation reach) *)
            Runtime.Profile.record p ~decision:0 ~depth:1 ~backtracked:false
              ~spec_depth:0;
            Runtime.Profile.record p ~decision:1 ~depth:2 ~backtracked:true
              ~spec_depth:5;
            Runtime.Profile.record p ~decision:1 ~depth:3 ~backtracked:true
              ~spec_depth:1;
            (* effective depths (Table 3): 1, max(2,5)=5, max(3,1)=3 *)
            check (Alcotest.float 1e-9) "avg k" 3.0 (Runtime.Profile.avg_k p);
            (* DFA-only depths: 1, 2, 3 *)
            check (Alcotest.float 1e-9) "avg dfa k" 2.0
              (Runtime.Profile.avg_dfa_k p);
            (* speculation depths over backtracking events: 5, 1 *)
            check (Alcotest.float 1e-9) "back k" 3.0
              (Runtime.Profile.back_k p);
            check int "max k" 5 (Runtime.Profile.max_k p);
            check int "dfa max k" 3 (Runtime.Profile.dfa_max_k p);
            check int "covered" 2 (Runtime.Profile.decisions_covered p));
        test "non-backtracking events ignore spec_depth" (fun () ->
            let p = Runtime.Profile.create () in
            (* a stale spec_depth must not leak into the effective depth
               when the event did not backtrack *)
            Runtime.Profile.record p ~decision:0 ~depth:2 ~backtracked:false
              ~spec_depth:9;
            check (Alcotest.float 1e-9) "avg k" 2.0 (Runtime.Profile.avg_k p);
            check int "max k" 2 (Runtime.Profile.max_k p);
            check (Alcotest.float 1e-9) "back k" 0.0
              (Runtime.Profile.back_k p));
        test "cached DFA-state counter" (fun () ->
            let p = Runtime.Profile.create () in
            Runtime.Profile.record_cached_states p ~decision:1 ~n:7;
            Runtime.Profile.record_cached_states p ~decision:0 ~n:0;
            check int "cached" 7 (Runtime.Profile.cached_dfa_states p);
            Runtime.Profile.reset p;
            check int "cached after reset" 0
              (Runtime.Profile.cached_dfa_states p));
        test "cached states alone cover no decision" (fun () ->
            (* a cache-loaded compilation credits every decision; only a
               prediction makes a decision covered *)
            let p = Runtime.Profile.create () in
            for d = 0 to 2 do
              Runtime.Profile.record_cached_states p ~decision:d ~n:3
            done;
            check int "covered before parsing" 0
              (Runtime.Profile.decisions_covered p);
            Runtime.Profile.record p ~decision:1 ~depth:1 ~backtracked:false
              ~spec_depth:0;
            check int "covered" 1 (Runtime.Profile.decisions_covered p));
        test "a fresh compile credits no cached or lazy DFA states" (fun () ->
            let c = compile "grammar T; s : A B C | A B D | E ;" in
            let p = Runtime.Profile.create () in
            List.iter
              (fun input ->
                match Runtime.Interp.parse ~profile:p c (lex c input) with
                | Ok _ -> ()
                | Error _ -> Alcotest.failf "parse of %S failed" input)
              [ "A B C"; "A B D"; "E" ];
            check int "decision events" 3 (Runtime.Profile.events p);
            check int "cached" 0 (Runtime.Profile.cached_dfa_states p);
            check int "lazy" 0 (Runtime.Profile.lazy_dfa_states p);
            (* the retired counter stays in the JSON document *)
            check bool "lazy_dfa_states field" true
              (Obs.Json.member "lazy_dfa_states" (Runtime.Profile.to_json p)
              = Some (Obs.Json.int 0)));
      ] );
    ("profile-golden", golden_tests);
    ("trace-walk", trace_walk_tests);
    ("memo-golden", memo_golden_tests);
  ]
