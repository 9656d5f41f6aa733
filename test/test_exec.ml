(* Execution-layer tests: the worker pool itself, parallel compilation
   determinism (the payload digest of a pooled compile must be
   byte-identical to the sequential one), the batched parse driver, the
   metrics merge that joins per-worker registries, and the wide-vocabulary
   regression for the lookahead-DFA edge bisection.

   On an OCaml 4.x build the pool is the sequential fallback; every test
   here still passes -- same API, jobs collapse to inline execution. *)

open Helpers

(* --- Exec.Pool --------------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "map_array preserves order" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun p ->
            let arr = Array.init 100 (fun i -> i) in
            let out = Exec.Pool.map_array p (fun i -> i * i) arr in
            Array.iteri (fun i v -> check int "square" (i * i) v) out));
    Alcotest.test_case "map_list preserves order" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:3 (fun p ->
            let out =
              Exec.Pool.map_list p string_of_int [ 3; 1; 4; 1; 5; 9; 2; 6 ]
            in
            check (Alcotest.list string) "strings"
              [ "3"; "1"; "4"; "1"; "5"; "9"; "2"; "6" ]
              out));
    Alcotest.test_case "jobs=1 runs inline" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:1 (fun p ->
            check int "jobs" 1 (Exec.Pool.jobs p);
            let t = Exec.Pool.submit p (fun () -> 42) in
            check int "result" 42 (Exec.Pool.await t)));
    Alcotest.test_case "exceptions re-raised at await" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:2 (fun p ->
            let t = Exec.Pool.submit p (fun () -> failwith "boom") in
            match Exec.Pool.await t with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> check string "message" "boom" m));
    Alcotest.test_case "an exception poisons only its task" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:2 (fun p ->
            let bad = Exec.Pool.submit p (fun () -> failwith "bad") in
            let good = Exec.Pool.submit p (fun () -> "good") in
            (try ignore (Exec.Pool.await bad) with Failure _ -> ());
            check string "good task unaffected" "good" (Exec.Pool.await good)));
    Alcotest.test_case "many tasks complete" `Quick (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun p ->
            let tasks =
              List.init 500 (fun i -> Exec.Pool.submit p (fun () -> i))
            in
            let sum =
              List.fold_left (fun a t -> a + Exec.Pool.await t) 0 tasks
            in
            check int "sum 0..499" (499 * 500 / 2) sum));
    Alcotest.test_case "shard_ranges covers exactly" `Quick (fun () ->
        List.iter
          (fun (shards, n) ->
            let ranges = Exec.Pool.shard_ranges ~shards n in
            (* contiguous, disjoint, covering [0, n) in order *)
            let covered =
              List.fold_left
                (fun pos (lo, hi) ->
                  check int "contiguous" pos lo;
                  Alcotest.(check bool) "non-empty" true (hi > lo);
                  hi)
                0 ranges
            in
            check int "covers n" n covered;
            Alcotest.(check bool)
              "at most [shards] ranges" true
              (List.length ranges <= shards))
          [ (1, 10); (4, 10); (3, 3); (8, 5); (2, 100); (7, 100) ]);
    Alcotest.test_case "shard_ranges n=0" `Quick (fun () ->
        check int "no ranges" 0 (List.length (Exec.Pool.shard_ranges ~shards:4 0)));
    Alcotest.test_case "resolve_jobs" `Quick (fun () ->
        check int "explicit" 3 (Exec.Pool.resolve_jobs 3);
        Alcotest.(check bool)
          "0 means all cores" true
          (Exec.Pool.resolve_jobs 0 >= 1);
        (* negatives are rejected with a clear message, never passed on
           to [create] *)
        List.iter
          (fun n ->
            match Exec.Pool.resolve_jobs n with
            | _ -> Alcotest.failf "resolve_jobs %d should raise" n
            | exception Invalid_argument m ->
                let contains s sub =
                  let ls = String.length s and lu = String.length sub in
                  let rec go i =
                    i + lu <= ls && (String.sub s i lu = sub || go (i + 1))
                  in
                  go 0
                in
                Alcotest.(check bool)
                  "message names the bad count" true
                  (contains m (string_of_int n)))
          [ -1; -8 ]);
    Alcotest.test_case "chunk_ranges covers exactly, several per worker"
      `Quick (fun () ->
        List.iter
          (fun (jobs, n) ->
            let ranges = Exec.Pool.chunk_ranges ~jobs n in
            let covered =
              List.fold_left
                (fun pos (lo, hi) ->
                  check int "contiguous" pos lo;
                  Alcotest.(check bool) "non-empty" true (hi > lo);
                  hi)
                0 ranges
            in
            check int "covers n" n covered;
            let chunks = List.length ranges in
            Alcotest.(check bool)
              "at most jobs*granularity chunks" true
              (chunks <= jobs * Exec.Pool.default_chunks_per_worker);
            (* enough chunks that no worker can idle behind one shard *)
            if n >= jobs * Exec.Pool.default_chunks_per_worker then
              check int "granularity chunks" (jobs * Exec.Pool.default_chunks_per_worker)
                chunks)
          [ (1, 10); (2, 100); (4, 7); (4, 1000); (3, 3) ]);
    Alcotest.test_case "chunk_ranges edge cases" `Quick (fun () ->
        check int "n=0" 0 (List.length (Exec.Pool.chunk_ranges ~jobs:4 0));
        (* boundaries depend only on (jobs, granularity, n) *)
        Alcotest.(check bool)
          "deterministic" true
          (Exec.Pool.chunk_ranges ~jobs:3 50 = Exec.Pool.chunk_ranges ~jobs:3 50);
        (match Exec.Pool.chunk_ranges ~jobs:0 5 with
        | _ -> Alcotest.fail "jobs=0 should raise"
        | exception Invalid_argument _ -> ());
        match Exec.Pool.chunk_ranges ~granularity:0 ~jobs:2 5 with
        | _ -> Alcotest.fail "granularity=0 should raise"
        | exception Invalid_argument _ -> ());
    (* Wakeup stress (serve-daemon hardening): thousands of near-empty
       tasks keep the workers bouncing between the condition wait and the
       queue, the shape most likely to expose a lost wakeup -- a missed
       signal here shows up as a hang (the suite's timeout), not as a
       wrong sum. *)
    Alcotest.test_case "submit storm: many tiny tasks, jobs=4" `Quick
      (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun p ->
            let n = 5_000 in
            let tasks = List.init n (fun i -> Exec.Pool.submit p (fun () -> i)) in
            let sum = List.fold_left (fun a t -> a + Exec.Pool.await t) 0 tasks in
            check int "all tasks ran exactly once" (n * (n - 1) / 2) sum));
    (* The serve layer submits from one sys-thread per connection; the
       queue lock and per-task cells must hold up under concurrent
       submitters, and every submitter must see its own results. *)
    Alcotest.test_case "concurrent submitters from sys-threads" `Quick
      (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun p ->
            let n_threads = 8 and per_thread = 400 in
            let sums = Array.make n_threads 0 in
            let submitter ti =
              let tasks =
                List.init per_thread (fun i ->
                    Exec.Pool.submit p (fun () -> (ti * per_thread) + i))
              in
              sums.(ti) <-
                List.fold_left (fun a t -> a + Exec.Pool.await t) 0 tasks
            in
            let threads =
              List.init n_threads (fun ti -> Thread.create submitter ti)
            in
            List.iter Thread.join threads;
            Array.iteri
              (fun ti got ->
                let lo = ti * per_thread in
                let want = (per_thread * lo) + (per_thread * (per_thread - 1) / 2) in
                check int (Printf.sprintf "thread %d sum" ti) want got)
              sums));
    (* Tasks submitted before shutdown must all be drained, never lost. *)
    Alcotest.test_case "shutdown drains queued work" `Quick (fun () ->
        let p = Exec.Pool.create ~jobs:4 in
        let n = 500 in
        let tasks = List.init n (fun i -> Exec.Pool.submit p (fun () -> i * 2)) in
        Exec.Pool.shutdown p;
        let sum = List.fold_left (fun a t -> a + Exec.Pool.await t) 0 tasks in
        check int "every pre-shutdown task completed" (n * (n - 1)) sum);
  ]

(* --- parallel compilation determinism ---------------------------------- *)

let digest_of ?pool src =
  Llstar.Compiled_cache.payload_digest
    (Llstar.Compiled.of_source_exn ?pool src)

let determinism_tests =
  [
    Alcotest.test_case "bench grammars: pooled compile digest = sequential"
      `Slow (fun () ->
        List.iter
          (fun (spec : Bench_grammars.Workload.spec) ->
            let seq = digest_of spec.Bench_grammars.Workload.grammar_text in
            List.iter
              (fun jobs ->
                Exec.Pool.with_pool ~jobs (fun pool ->
                    check string
                      (Printf.sprintf "%s jobs=%d"
                         spec.Bench_grammars.Workload.name jobs)
                      seq
                      (digest_of ~pool
                         spec.Bench_grammars.Workload.grammar_text)))
              [ 2; 4 ])
          Bench_grammars.Specs.all);
    (let rand_opts =
       {
         Llstar.Analysis.default_options with
         Llstar.Analysis.max_states = 200;
       }
     in
     let digest ?pool g =
       match Llstar.Compiled.compile ~analysis_opts:rand_opts ?pool g with
       | Ok c -> Some (Llstar.Compiled_cache.payload_digest c)
       | Error _ -> None
     in
     qtest ~count:60 "random grammars: pooled compile digest = sequential"
       Test_props.arb_grammar (fun g ->
         let seq = digest g in
         List.for_all
           (fun jobs ->
             Exec.Pool.with_pool ~jobs (fun pool -> digest ~pool g = seq))
           [ 2; 4 ]));
    Alcotest.test_case "pooled cache compile saves the sequential blob"
      `Quick (fun () ->
        let src = example_grammar "diverging.g" in
        let seq = digest_of src in
        Test_cache.with_dir (fun dir ->
            Exec.Pool.with_pool ~jobs:4 (fun pool ->
                let _, o = Test_cache.compile_cached ~pool ~dir src in
                check bool "miss" true (o = Llstar.Compiled_cache.Miss));
            let c, o = Test_cache.compile_cached ~dir src in
            check bool "hit" true (o = Llstar.Compiled_cache.Hit);
            check string "loaded digest = sequential" seq
              (Llstar.Compiled_cache.payload_digest c)));
  ]

(* --- batched parsing --------------------------------------------------- *)

let expr_src =
  {|
grammar Expr;
prog : e EOF ;
e : e '*' e | e '+' e | '(' e ')' | INT | ID ;
|}

let batch_inputs =
  [
    ("ok1", "1 + 2 * 3");
    ("ok2", "( x + 1 ) * y");
    ("bad", "1 + *");
    ("ok3", "7");
  ]

let run_batch ~jobs () =
  let c = compile expr_src in
  let profile = Runtime.Profile.create () in
  let inputs =
    List.map
      (fun (name, text) -> { Runtime.Batch.name; text })
      batch_inputs
  in
  let results =
    Exec.Pool.with_pool ~jobs (fun pool ->
        Runtime.Batch.run ~pool ~profile c inputs)
  in
  (results, profile)

let batch_tests =
  [
    Alcotest.test_case "outcomes in input order, any job count" `Quick
      (fun () ->
        let seq, seq_p = run_batch ~jobs:1 () in
        List.iter
          (fun jobs ->
            let par, par_p = run_batch ~jobs () in
            check int "same count" (Array.length seq) (Array.length par);
            Array.iteri
              (fun i (r : Runtime.Batch.result_) ->
                check string "name order" seq.(i).Runtime.Batch.input.name
                  r.Runtime.Batch.input.name;
                Alcotest.(check bool)
                  "same verdict" true
                  (Runtime.Batch.outcome_ok seq.(i).Runtime.Batch.outcome
                  = Runtime.Batch.outcome_ok r.Runtime.Batch.outcome))
              par;
            (* merged profile equals the sequential one on the headline
               counters *)
            check int "events" (Runtime.Profile.events seq_p)
              (Runtime.Profile.events par_p);
            check int "decisions covered"
              (Runtime.Profile.decisions_covered seq_p)
              (Runtime.Profile.decisions_covered par_p))
          [ 2; 3; 8 ]);
    Alcotest.test_case "batch with n <= 1 under a jobs>1 pool" `Quick
      (fun () ->
        let c = compile expr_src in
        Exec.Pool.with_pool ~jobs:2 (fun pool ->
            let rs =
              Runtime.Batch.run ~pool c
                [ { Runtime.Batch.name = "x"; text = "1" } ]
            in
            check int "one result" 1 (Array.length rs);
            Alcotest.(check bool)
              "parsed" true
              (Runtime.Batch.outcome_ok rs.(0).Runtime.Batch.outcome);
            check int "empty batch" 0
              (Array.length (Runtime.Batch.run ~pool c []))));
    Alcotest.test_case "cache-loaded batch matches sequential" `Quick
      (fun () ->
        let seq, _ = run_batch ~jobs:1 () in
        Test_cache.with_dir (fun dir ->
            ignore (Test_cache.compile_cached ~dir expr_src);
            let c, o = Test_cache.compile_cached ~dir expr_src in
            check bool "hit" true (o = Llstar.Compiled_cache.Hit);
            let inputs =
              List.map
                (fun (name, text) -> { Runtime.Batch.name; text })
                batch_inputs
            in
            List.iter
              (fun jobs ->
                let par =
                  Exec.Pool.with_pool ~jobs (fun pool ->
                      Runtime.Batch.run ~pool c inputs)
                in
                Array.iteri
                  (fun i (r : Runtime.Batch.result_) ->
                    check bool
                      (Printf.sprintf "input %d verdict, jobs=%d" i jobs)
                      (Runtime.Batch.outcome_ok seq.(i).Runtime.Batch.outcome)
                      (Runtime.Batch.outcome_ok r.Runtime.Batch.outcome))
                  par)
              [ 1; 2; 4 ]));
    Alcotest.test_case "verdicts" `Quick (fun () ->
        let rs, _ = run_batch ~jobs:2 () in
        let ok r = Runtime.Batch.outcome_ok r.Runtime.Batch.outcome in
        Alcotest.(check bool) "ok1" true (ok rs.(0));
        Alcotest.(check bool) "ok2" true (ok rs.(1));
        Alcotest.(check bool) "bad rejected" false (ok rs.(2));
        Alcotest.(check bool) "ok3" true (ok rs.(3));
        Alcotest.(check bool)
          "total tokens positive" true
          (Runtime.Batch.total_tokens rs > 0));
    (* Failure contract: fail-fast with a full drain.  Two inputs raise
       (via a semantic predicate); the exception surfaced must be the one
       at the smallest input index, and every non-raising input's work
       must still land in the merged profile -- nothing is dropped. *)
    Alcotest.test_case "fail-fast surfaces smallest index after a drain"
      `Quick (fun () ->
        (* ambiguous alternatives force the predicate to be evaluated on
           every prediction; it raises on inputs spelled "boom..." *)
        let c =
          Llstar.Compiled.of_source_exn
            "grammar B; s : {chk()}? ID | {pass()}? ID ;"
        in
        let env =
          Runtime.Interp.env_of_tables
            ~preds:
              [
                ( "chk()",
                  fun tok ->
                    if String.length tok.Runtime.Token.text >= 4
                       && String.sub tok.Runtime.Token.text 0 4 = "boom"
                    then failwith tok.Runtime.Token.text
                    else true );
                ("pass()", fun _ -> true);
              ]
            ()
        in
        let input name = { Runtime.Batch.name; text = name } in
        let ok_names = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
        let inputs =
          [ input "a"; input "b"; input "boomearly"; input "c"; input "d";
            input "boomlate"; input "e"; input "f" ]
        in
        (* ground truth: profile volume of the ok inputs, sequentially *)
        let ok_profile = Runtime.Profile.create () in
        ignore
          (Runtime.Batch.run ~env ~profile:ok_profile c
             (List.map input ok_names));
        List.iter
          (fun jobs ->
            Exec.Pool.with_pool ~jobs (fun pool ->
                let profile = Runtime.Profile.create () in
                match Runtime.Batch.run ~pool ~env ~profile c inputs with
                | _ -> Alcotest.fail "expected Failure"
                | exception Failure m ->
                    (* smallest raising index wins, as sequentially *)
                    check string
                      (Printf.sprintf "first failure, jobs=%d" jobs)
                      "boomearly" m;
                    (* drained: with one input per chunk at these sizes,
                       every ok input completed and was merged *)
                    if jobs > 1 then
                      check int
                        (Printf.sprintf "ok work merged, jobs=%d" jobs)
                        (Runtime.Profile.events ok_profile)
                        (Runtime.Profile.events profile)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "manifest expansion" `Quick (fun () ->
        let dir = Filename.temp_file "antlrkit" "manifest" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let a = Filename.concat dir "a.txt" in
        let b = Filename.concat dir "b.txt" in
        let manifest = Filename.concat dir "m.txt" in
        let write p s =
          let oc = open_out p in
          output_string oc s;
          close_out oc
        in
        write a "1 + 1";
        write b "2 * 2";
        write manifest (Printf.sprintf "# two inputs\n%s\n\n%s\n" a b);
        (match Runtime.Batch.load_inputs [ "@" ^ manifest ] with
        | Error e -> Alcotest.failf "load_inputs: %s" e
        | Ok inputs ->
            check
              (Alcotest.list string)
              "manifest order"
              [ a; b ]
              (List.map (fun i -> i.Runtime.Batch.name) inputs));
        (match Runtime.Batch.load_inputs [ "@" ^ dir ^ "/missing" ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "missing manifest should error");
        List.iter Sys.remove [ a; b; manifest ];
        Unix.rmdir dir);
  ]

(* --- batch inputs stream through the driver -------------------------- *)

(* One to three byte edits (deletion, replacement, insertion) drawn from
   characters that break the lexer as well as the parser. *)
let mutate_bytes rng text =
  let alphabet = "`$#\"'/*(){};,.+-=<>@ \n0aZ" in
  let pick () = alphabet.[Random.State.int rng (String.length alphabet)] in
  let n = String.length text in
  let at =
    List.init (1 + Random.State.int rng 3) (fun _ ->
        Random.State.int rng (max 1 n))
  in
  let b = Buffer.create (n + 4) in
  String.iteri
    (fun i ch ->
      if not (List.mem i at) then Buffer.add_char b ch
      else
        match Random.State.int rng 3 with
        | 0 -> ()
        | 1 -> Buffer.add_char b (pick ())
        | _ ->
            Buffer.add_char b ch;
            Buffer.add_char b (pick ()))
    text;
  Buffer.contents b

(* The independent reference: lex everything, then parse the array. *)
type reference =
  | Lex of Runtime.Lexer_engine.error
  | Syntax of Runtime.Parse_error.t list * int (* errors, tokens *)

let reference ~config ~env ~recover c text =
  match Runtime.Lexer_engine.tokenize config (Llstar.Compiled.sym c) text with
  | Error e -> Lex e
  | Ok toks -> (
      match Runtime.Interp.parse ~env ~recover c toks with
      | Ok _ -> Syntax ([], Array.length toks)
      | Error errors -> Syntax (errors, Array.length toks))

let matches_reference (want : reference) (got : Runtime.Drive.verdict) =
  match (want, got) with
  | Lex e, Runtime.Drive.Lex_error e' -> e = e'
  | Syntax (errors, n), Runtime.Drive.Parsed p ->
      p.Runtime.Drive.ok = (errors = [])
      && p.Runtime.Drive.errors = errors
      && p.Runtime.Drive.produced = n
  | _ -> false

(* Every bench corpus, each program also with byte mutations, through
   [Batch.run] at jobs 1 and 4: the verdict, the error list and the token
   count of every input must be the reference's.  Programs run to ~400
   tokens, past the lexer's 256-token chunk, so a parse that stops early
   leaves input that only the drain lexes. *)
let batch_matches_reference ~recover () =
  let lex = ref 0 and syntax = ref 0 and accepted = ref 0 in
  List.iter
    (fun (spec : Bench_grammars.Workload.spec) ->
      let name = spec.Bench_grammars.Workload.name in
      let config = spec.Bench_grammars.Workload.lexer_config in
      let env = Bench_grammars.Workload.env_of_spec spec in
      let cw, _ = Test_cache.fresh_and_cached spec in
      let c = cw.Bench_grammars.Workload.c in
      let corpus =
        Bench_grammars.Workload.build_corpus cw ~target_tokens:800
      in
      let rng = Random.State.make [| 20 |] in
      let texts =
        List.concat_map
          (fun text -> [ text; mutate_bytes rng text; mutate_bytes rng text ])
          corpus.Bench_grammars.Workload.texts
      in
      let inputs =
        List.mapi
          (fun i text -> { Runtime.Batch.name = string_of_int i; text })
          texts
      in
      let want = List.map (reference ~config ~env ~recover c) texts in
      List.iter
        (function
          | Lex _ -> incr lex
          | Syntax ([], _) -> incr accepted
          | Syntax (_, _) -> incr syntax)
        want;
      List.iter
        (fun jobs ->
          let got =
            Exec.Pool.with_pool ~jobs (fun pool ->
                Runtime.Batch.run ~pool ~config ~env ~recover c inputs)
          in
          List.iteri
            (fun i w ->
              if not (matches_reference w got.(i).Runtime.Batch.outcome) then
                Alcotest.failf "%s input %d, jobs=%d, recover=%b: %a" name i
                  jobs recover Runtime.Batch.pp_outcome
                  (Llstar.Compiled.sym c, got.(i)))
            want)
        [ 1; 4 ])
    Bench_grammars.Specs.all;
  (* the mutations reach every verdict kind *)
  check bool "some inputs fail to lex" true (!lex > 0);
  check bool "some inputs fail to parse" true (!syntax > 0);
  check bool "some inputs parse" true (!accepted > 0)

let batch_stream_tests =
  [
    Alcotest.test_case "batch = tokenize + parse on mutated corpora" `Quick
      (batch_matches_reference ~recover:false);
    Alcotest.test_case "batch = tokenize + parse ~recover on mutated corpora"
      `Quick (batch_matches_reference ~recover:true);
  ]

(* --- fuzz sharding determinism ----------------------------------------- *)

let sharded_fuzz (spec : Bench_grammars.Workload.spec) () =
  let run ?pool () =
    match Fuzz.Driver.run_spec ?pool ~seed:7 ~runs:30 spec with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "fuzz failed: %a" Llstar.Compiled.pp_error e
  in
  let seq = run () in
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          let par = run ~pool () in
          check int "accepted" seq.Fuzz.Driver.r_accepted
            par.Fuzz.Driver.r_accepted;
          check int "rejected" seq.Fuzz.Driver.r_rejected
            par.Fuzz.Driver.r_rejected;
          check int "mutated" seq.Fuzz.Driver.r_mutated
            par.Fuzz.Driver.r_mutated;
          check int "failures"
            (List.length seq.Fuzz.Driver.r_failures)
            (List.length par.Fuzz.Driver.r_failures)))
    [ 2; 4 ]

let fuzz_tests =
  [
    Alcotest.test_case "sharded fuzz report = sequential" `Slow
      (sharded_fuzz Bench_grammars.Mini_java.spec);
    (* MiniVB's diverging decision predicts with its LL(1) DFA. *)
    Alcotest.test_case "sharded fuzz report = sequential on MiniVB" `Slow
      (sharded_fuzz (Option.get (Bench_grammars.Specs.find "MiniVB")));
  ]

(* --- one compiled grammar shared by many workers ------------------------ *)

(* Worker domains share a compiled grammar and never write to it:
   prediction reads the lookahead DFAs the analysis (or the cache)
   produced, so concurrent parses agree with sequential ones and leave the
   compiled value's payload digest as it was. *)

let parse_str c env toks =
  match Runtime.Interp.parse ~env c toks with
  | Ok tree -> "ok: " ^ Runtime.Tree.to_string (Llstar.Compiled.sym c) tree
  | Error errs ->
      Fmt.str "error: %a"
        Fmt.(list (Runtime.Parse_error.pp (Llstar.Compiled.sym c)))
        errs

let shared_tests =
  [
    Alcotest.test_case "many tasks share one compiled grammar" `Quick
      (fun () ->
        let spec = Bench_grammars.Mini_java.spec in
        let cw, _ = Test_cache.fresh_and_cached spec in
        let c = cw.Bench_grammars.Workload.c in
        let before = Llstar.Compiled_cache.payload_digest c in
        let env = Bench_grammars.Workload.env_of_spec spec in
        let corpus =
          Bench_grammars.Workload.build_corpus cw ~target_tokens:800
        in
        let toks =
          List.map (Bench_grammars.Workload.lex_exn cw)
            corpus.Bench_grammars.Workload.texts
        in
        let expected = List.map (parse_str c env) toks in
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            let tasks =
              List.init 16 (fun _ ->
                  Exec.Pool.submit pool (fun () ->
                      List.map (parse_str c env) toks))
            in
            List.iteri
              (fun ti got ->
                List.iteri
                  (fun i (e, g) ->
                    check string (Printf.sprintf "task %d program %d" ti i) e g)
                  (List.combine expected got))
              (List.map Exec.Pool.await tasks));
        check string "compiled grammar unchanged" before
          (Llstar.Compiled_cache.payload_digest c));
    Alcotest.test_case "parallel batches leave every bench grammar unchanged"
      `Quick (fun () ->
        List.iter
          (fun (spec : Bench_grammars.Workload.spec) ->
            let name = spec.Bench_grammars.Workload.name in
            let cw, _ = Test_cache.fresh_and_cached spec in
            let c = cw.Bench_grammars.Workload.c in
            let before = Llstar.Compiled_cache.payload_digest c in
            let corpus =
              Bench_grammars.Workload.build_corpus cw ~target_tokens:800
            in
            let inputs =
              List.mapi
                (fun i text -> { Runtime.Batch.name = string_of_int i; text })
                corpus.Bench_grammars.Workload.texts
            in
            let run ~jobs =
              Exec.Pool.with_pool ~jobs (fun pool ->
                  Runtime.Batch.run ~pool
                    ~config:spec.Bench_grammars.Workload.lexer_config
                    ~env:(Bench_grammars.Workload.env_of_spec spec)
                    c inputs)
            in
            let verdicts rs =
              Array.map
                (fun (r : Runtime.Batch.result_) ->
                  Runtime.Batch.outcome_ok r.Runtime.Batch.outcome)
                rs
            in
            let seq = verdicts (run ~jobs:1) in
            check bool (name ^ " corpus parses") true
              (Array.for_all Fun.id seq);
            List.iter
              (fun jobs ->
                check (Alcotest.array bool)
                  (Printf.sprintf "%s verdicts, jobs=%d" name jobs)
                  seq
                  (verdicts (run ~jobs)))
              [ 2; 4 ];
            check string (name ^ " unchanged") before
              (Llstar.Compiled_cache.payload_digest c))
          Bench_grammars.Specs.all);
    qtest ~count:40 "random grammars: parallel verdicts = sequential"
      (QCheck.pair Test_props.arb_grammar
         (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
            (QCheck.list_of_size (QCheck.Gen.int_bound 8)
               (QCheck.int_bound 4))))
      (fun (g, sentences) ->
        match
          Llstar.Compiled.compile ~analysis_opts:Test_props.rand_opts g
        with
        | Error _ -> true (* unlucky generated shape; nothing to compare *)
        | Ok c ->
            let before = Llstar.Compiled_cache.payload_digest c in
            let toks_list =
              List.map
                (fun s ->
                  Test_props.tokens_of_names c
                    (List.map (fun i -> [| "A"; "B"; "C"; "D"; "E" |].(i)) s))
                sentences
            in
            let verdict toks =
              match Runtime.Interp.recognize c toks with
              | Ok () -> true
              | Error _ -> false
            in
            let seq = List.map verdict toks_list in
            List.for_all
              (fun jobs ->
                Exec.Pool.with_pool ~jobs (fun pool ->
                    Exec.Pool.map_list pool verdict toks_list)
                = seq)
              [ 2; 4 ]
            && Llstar.Compiled_cache.payload_digest c = before);
  ]

(* --- metrics merge ----------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "counters and histograms add" `Quick (fun () ->
        let module M = Obs.Metrics in
        let a = M.create () and b = M.create () in
        M.add (M.counter a "hits") 3;
        M.add (M.counter b "hits") 4;
        M.add (M.counter b "only_b") 7;
        let ha = M.histogram a "depth" and hb = M.histogram b "depth" in
        M.observe ha 1;
        M.observe ha 5;
        M.observe hb 9;
        M.merge ~into:a b;
        check int "hits" 7 (M.value (M.counter a "hits"));
        check int "only_b registered" 7 (M.value (M.counter a "only_b"));
        check int "h count" 3 (M.h_count ha);
        check int "h sum" 15 (M.h_sum ha);
        check int "h max" 9 (M.h_max ha));
    Alcotest.test_case "labeled cells merge independently" `Quick (fun () ->
        let module M = Obs.Metrics in
        let a = M.create () and b = M.create () in
        let l d = [ ("decision", string_of_int d) ] in
        M.add (M.counter a ~labels:(l 0) "events") 1;
        M.add (M.counter b ~labels:(l 0) "events") 2;
        M.add (M.counter b ~labels:(l 1) "events") 5;
        M.merge ~into:a b;
        check int "d0" 3 (M.value (M.counter a ~labels:(l 0) "events"));
        check int "d1" 5 (M.value (M.counter a ~labels:(l 1) "events")));
    Alcotest.test_case "profile merge repopulates per-decision view" `Quick
      (fun () ->
        let a = Runtime.Profile.create () in
        let b = Runtime.Profile.create () in
        Runtime.Profile.record a ~decision:0 ~depth:1 ~backtracked:false
          ~spec_depth:0;
        Runtime.Profile.record b ~decision:1 ~depth:3 ~backtracked:true
          ~spec_depth:5;
        Runtime.Profile.merge ~into:a b;
        check int "events" 2 (Runtime.Profile.events a);
        check int "decisions" 2 (Runtime.Profile.decisions_covered a);
        check int "max k" 5 (Runtime.Profile.max_k a));
  ]

(* --- Sym freeze + wide-vocabulary DFA lookup --------------------------- *)

(* A grammar whose first decision has one alternative per keyword: the
   decision state's edge row has hundreds of outgoing terminals, driving
   [Look_dfa.target] down the bisection path (rows longer than the linear
   cutoff).  Also a natural home for the freeze check: the vocabulary is
   frozen after compilation, so looking up known terminals works and
   interning new ones must raise. *)
let wide_n = 300

let wide_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "grammar Wide;\ns : ";
  for i = 0 to wide_n - 1 do
    if i > 0 then Buffer.add_string b " | ";
    Buffer.add_string b (Printf.sprintf "'kw%03d' 'end'" i)
  done;
  Buffer.add_string b " ;\n";
  Buffer.contents b

let wide_tests =
  [
    Alcotest.test_case "bisected edge lookup over a wide row" `Quick
      (fun () ->
        let c = compile wide_src in
        let sym = Llstar.Compiled.sym c in
        let dfa = Llstar.Compiled.dfa c 0 in
        (* the start state really is wide -- the bisection path is on *)
        Alcotest.(check bool)
          "row wider than the linear cutoff" true
          (Array.length dfa.Llstar.Look_dfa.edges.(dfa.Llstar.Look_dfa.start)
          > 8);
        (* every keyword predicts its own alternative *)
        for i = 0 to wide_n - 1 do
          let name = Printf.sprintf "'kw%03d'" i in
          let id = Option.get (Grammar.Sym.find_term sym name) in
          let tgt = Llstar.Look_dfa.target dfa dfa.Llstar.Look_dfa.start id in
          if tgt < 0 then Alcotest.failf "no edge for %s" name
          else
            match Llstar.Look_dfa.accept_of dfa tgt with
            | Some alt -> check int name (i + 1) alt
            | None -> Alcotest.failf "%s: target not accepting" name
        done;
        (* unknown terminals miss: EOF and an id beyond the vocabulary *)
        Alcotest.(check bool)
          "eof misses" true
          (Llstar.Look_dfa.target dfa dfa.Llstar.Look_dfa.start
             Grammar.Sym.eof
          = -1);
        Alcotest.(check bool)
          "unknown terminal misses" true
          (Llstar.Look_dfa.target dfa dfa.Llstar.Look_dfa.start 999_999
          = -1);
        (* end-to-end: a mid-row and a last keyword both parse; a keyword
           in the wrong position (still lexable) is rejected *)
        Alcotest.(check bool) "parses kw157" true (parses c "kw157 end");
        Alcotest.(check bool) "parses kw299" true (parses c "kw299 end");
        Alcotest.(check bool) "rejects bad" false (parses c "end kw000"));
    Alcotest.test_case "wildcard fallback still works" `Quick (fun () ->
        let c = compile "grammar W;\ns : 'a' . 'b' | 'a' 'x' 'c' ;" in
        Alcotest.(check bool) "wildcard matches" true (parses c "a c b");
        Alcotest.(check bool) "explicit beats wildcard" true
          (parses c "a x c");
        Alcotest.(check bool) "wild then b" true (parses c "a x b"));
    Alcotest.test_case "start rows equal the edge lookup, fresh and cached"
      `Quick (fun () ->
        (* the walk's first edge comes from [start_row], the rest from
           [target]: they must agree on every token of every decision,
           and the row must mark exactly the accepting targets *)
        let check_rows label (c : Llstar.Compiled.t) =
          let n = Grammar.Sym.num_terms (Llstar.Compiled.sym c) in
          for d = 0 to Llstar.Compiled.num_decisions c - 1 do
            let dfa = Llstar.Compiled.dfa c d in
            let row = dfa.Llstar.Look_dfa.start_row in
            check int (Printf.sprintf "%s d%d: row length" label d) n
              (Array.length row);
            Array.iteri
              (fun term entry ->
                let tgt =
                  Llstar.Look_dfa.target dfa dfa.Llstar.Look_dfa.start term
                in
                if Llstar.Look_dfa.row_target entry <> tgt then
                  Alcotest.failf "%s d%d: token %d" label d term;
                let accepting =
                  tgt >= 0 && dfa.Llstar.Look_dfa.accept.(tgt) <> 0
                in
                if accepting <> (entry < -1) then
                  Alcotest.failf "%s d%d: token %d accept mark" label d term)
              row
          done
        in
        check_rows "Wide" (compile wide_src);
        check_rows "wildcard" (compile "grammar W;\ns : . 'b' | 'a' 'c' ;");
        List.iter
          (fun (spec : Bench_grammars.Workload.spec) ->
            let cw, cached = Test_cache.fresh_and_cached spec in
            check_rows spec.name cw.Bench_grammars.Workload.c;
            check_rows (spec.name ^ " cached") cached)
          Bench_grammars.Specs.all);
    Alcotest.test_case "vocabulary freezes after compile" `Quick (fun () ->
        let c = compile expr_src in
        let sym = Llstar.Compiled.sym c in
        Alcotest.(check bool) "frozen" true (Grammar.Sym.is_frozen sym);
        (* existing lookups fine *)
        Alcotest.(check bool)
          "find known" true
          (Grammar.Sym.find_term sym "INT" <> None);
        (* interning a new symbol must raise, not silently mutate *)
        match Grammar.Sym.intern_term sym "NEW_TOKEN" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let suite =
  [
    ("exec-pool", pool_tests);
    ("exec-determinism", determinism_tests);
    ("exec-batch", batch_tests);
    ("exec-batch-stream", batch_stream_tests);
    ("exec-fuzz", fuzz_tests);
    ("exec-shared", shared_tests);
    ("exec-metrics", metrics_tests);
    ("exec-wide-dfa", wide_tests);
  ]
