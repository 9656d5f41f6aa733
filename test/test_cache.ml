(* Persistent compilation cache: round trips, corruption tolerance,
   stale-temp garbage collection, and the bench grammars loaded back from
   a blob. *)

open Helpers

let src = "grammar T; s : A B C | A B D | E ;"

(* Fresh private directory per test; removed afterwards. *)
let with_dir (f : string -> 'a) : 'a =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "antlrkit-test-cache-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let compile_cached ?analysis_opts ?minimize ?pool ~dir src =
  match
    Llstar.Compiled_cache.of_source ?analysis_opts ?minimize ?pool ~dir src
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "cache compile failed: %a" Llstar.Compiled.pp_error e

let blob_path dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".antlrkit-cache")
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one cache blob, found %d" (List.length files)

(* --- bench grammars through the cache ------------------------------------ *)

module Workload = Bench_grammars.Workload

let bench_pairs = Hashtbl.create 8

(* [spec] compiled fresh, and that compilation saved and loaded back. *)
let fresh_and_cached (spec : Workload.spec) =
  match Hashtbl.find_opt bench_pairs spec.Workload.name with
  | Some pair -> pair
  | None ->
      let cw = Workload.compile spec in
      let c = cw.Workload.c in
      let cached =
        with_dir (fun dir ->
            (match Llstar.Compiled_cache.save ~dir c with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "save failed: %s" e);
            match compile_cached ~dir spec.Workload.grammar_text with
            | c', Llstar.Compiled_cache.Hit -> c'
            | _, Llstar.Compiled_cache.Miss ->
                Alcotest.fail "the saved blob did not load")
      in
      Hashtbl.add bench_pairs spec.Workload.name (cw, cached);
      (cw, cached)

let parse_str c env toks =
  match Runtime.Interp.parse ~env c toks with
  | Ok tree -> "ok: " ^ Runtime.Tree.to_string (Llstar.Compiled.sym c) tree
  | Error errs ->
      Fmt.str "error: %a"
        Fmt.(list (Runtime.Parse_error.pp (Llstar.Compiled.sym c)))
        errs

let per_grammar (spec : Workload.spec) =
  let name = spec.Workload.name in
  [
    test (name ^ ": cache-loaded parses byte-identical to fresh") (fun () ->
        let cw, cached = fresh_and_cached spec in
        check bool "loaded from the cache" true
          (Llstar.Compiled.from_cache cached);
        let env = Workload.env_of_spec spec in
        let corpus = Workload.build_corpus cw ~target_tokens:1200 in
        check bool "corpus nonempty" true (corpus.Workload.programs > 0);
        List.iteri
          (fun i text ->
            let toks = Workload.lex_exn cw text in
            check string
              (Printf.sprintf "program %d" i)
              (parse_str cw.Workload.c env toks)
              (parse_str cached env toks))
          corpus.Workload.texts);
    test (name ^ ": cache-loaded analysis equals fresh") (fun () ->
        let cw, cached = fresh_and_cached spec in
        let c = cw.Workload.c in
        Array.iteri
          (fun i (r : Llstar.Analysis.result) ->
            if r <> Llstar.Compiled.result cached i then
              Alcotest.failf "decision %d: the loaded result differs" i)
          c.Llstar.Compiled.results;
        check string "payload digest"
          (Llstar.Compiled_cache.payload_digest c)
          (Llstar.Compiled_cache.payload_digest cached));
  ]

let suite =
  [
    ( "compiled_cache",
      [
        test "miss then hit, identical parses" (fun () ->
            with_dir (fun dir ->
                let c1, o1 = compile_cached ~dir src in
                check bool "first is a miss" true
                  (o1 = Llstar.Compiled_cache.Miss);
                check bool "fresh origin" false (Llstar.Compiled.from_cache c1);
                let c2, o2 = compile_cached ~dir src in
                check bool "second is a hit" true
                  (o2 = Llstar.Compiled_cache.Hit);
                check bool "cache origin" true (Llstar.Compiled.from_cache c2);
                check string "same tree" (parse_tree c1 "A B C")
                  (parse_tree c2 "A B C");
                check string "same tree 2" (parse_tree c1 "E")
                  (parse_tree c2 "E");
                check bool "same dfa" true
                  (Llstar.Compiled.dfa c1 0 = Llstar.Compiled.dfa c2 0)));
        test "different grammar, different key" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let _, o = compile_cached ~dir "grammar U; s : A | B ;" in
                check bool "other grammar misses" true
                  (o = Llstar.Compiled_cache.Miss)));
        test "analysis options are part of the key" (fun () ->
            let surface = Grammar.Meta_parser.parse src in
            (* k = 1 resolves the A B C / A B D conflict by order *)
            let opts =
              {
                (Llstar.Analysis.options_of_grammar surface) with
                Llstar.Analysis.k_cap = Some 1;
              }
            in
            let compile_k1 dir = compile_cached ~analysis_opts:opts ~dir src in
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let c1, o1 = compile_k1 dir in
                check bool "other options miss" true
                  (o1 = Llstar.Compiled_cache.Miss);
                let c2, o2 = compile_k1 dir in
                check bool "same options hit" true
                  (o2 = Llstar.Compiled_cache.Hit);
                let c3, o3 = compile_cached ~dir src in
                check bool "default options still hit" true
                  (o3 = Llstar.Compiled_cache.Hit);
                check bool "k = 1 blob rejects A B D" false
                  (parses c2 "A B D");
                check bool "fresh k = 1 rejects A B D" false
                  (parses c1 "A B D");
                check bool "default blob accepts A B D" true
                  (parses c3 "A B D")));
        test "a minimized load has its own key and hits on its second call"
          (fun () ->
            let src = Bench_grammars.Mini_java.spec.Workload.grammar_text in
            let sizes (c : Llstar.Compiled.t) =
              Array.map
                (fun (r : Llstar.Analysis.result) ->
                  r.Llstar.Analysis.dfa.Llstar.Look_dfa.nstates)
                c.Llstar.Compiled.results
            in
            let fresh =
              let surface = Grammar.Meta_parser.parse src in
              Llstar.Compiled.compile_exn
                ~analysis_opts:
                  {
                    (Llstar.Analysis.options_of_grammar surface) with
                    Llstar.Analysis.minimize = true;
                  }
                surface
            in
            with_dir (fun dir ->
                let plain, _ = compile_cached ~dir src in
                let m1, o1 = compile_cached ~minimize:true ~dir src in
                check bool "first minimized load misses" true
                  (o1 = Llstar.Compiled_cache.Miss);
                let m2, o2 = compile_cached ~minimize:true ~dir src in
                check bool "second minimized load hits" true
                  (o2 = Llstar.Compiled_cache.Hit);
                check bool "loaded from the cache" true
                  (Llstar.Compiled.from_cache m2);
                check (Alcotest.array int) "miss: fresh minimized sizes"
                  (sizes fresh) (sizes m1);
                check (Alcotest.array int) "hit: fresh minimized sizes"
                  (sizes fresh) (sizes m2);
                check bool "minimization shrank some DFA" true
                  (sizes plain <> sizes m2);
                check bool "own key" true
                  (Llstar.Compiled_cache.key_of plain
                  <> Llstar.Compiled_cache.key_of m2);
                let blobs =
                  Array.to_list (Sys.readdir dir)
                  |> List.filter (fun f ->
                         Filename.check_suffix f ".antlrkit-cache")
                in
                check int "one blob each" 2 (List.length blobs)));
        test "re-saving a hit keeps one loadable blob" (fun () ->
            with_dir (fun dir ->
                let c1, _ = compile_cached ~dir src in
                let path = blob_path dir in
                let c2, o = compile_cached ~dir src in
                check bool "hit" true (o = Llstar.Compiled_cache.Hit);
                (match Llstar.Compiled_cache.save ~dir c2 with
                | Ok p -> check string "same file" path p
                | Error e -> Alcotest.failf "re-save failed: %s" e);
                check string "still one blob" path (blob_path dir);
                let c3, o3 = compile_cached ~dir src in
                check bool "hit after re-save" true
                  (o3 = Llstar.Compiled_cache.Hit);
                check string "same payload as the fresh compile"
                  (Llstar.Compiled_cache.payload_digest c1)
                  (Llstar.Compiled_cache.payload_digest c3)));
        test "garbage blob falls back to a rebuild" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let path = blob_path dir in
                let oc = open_out_bin path in
                output_string oc "this is not a cache blob";
                close_out oc;
                let c, o = compile_cached ~dir src in
                check bool "rebuilds" true (o = Llstar.Compiled_cache.Miss);
                check bool "fresh origin" false (Llstar.Compiled.from_cache c);
                (* the rebuild re-saved a valid blob *)
                let _, o2 = compile_cached ~dir src in
                check bool "hit after repair" true
                  (o2 = Llstar.Compiled_cache.Hit)));
        test "truncated blob falls back to a rebuild" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let path = blob_path dir in
                let ic = open_in_bin path in
                let n = in_channel_length ic in
                let half = really_input_string ic (n / 2) in
                close_in ic;
                let oc = open_out_bin path in
                output_string oc half;
                close_out oc;
                let _, o = compile_cached ~dir src in
                check bool "rebuilds" true (o = Llstar.Compiled_cache.Miss)));
        test "flipped payload byte falls back to a rebuild" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let path = blob_path dir in
                let ic = open_in_bin path in
                let n = in_channel_length ic in
                let bytes = Bytes.of_string (really_input_string ic n) in
                close_in ic;
                (* flip a byte well inside the marshaled payload *)
                let i = n - 7 in
                Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff));
                let oc = open_out_bin path in
                output_bytes oc bytes;
                close_out oc;
                let _, o = compile_cached ~dir src in
                check bool "rebuilds" true (o = Llstar.Compiled_cache.Miss)));
        test "missing directory is a miss, then created" (fun () ->
            with_dir (fun dir ->
                let sub = Filename.concat dir "nested" in
                let _, o = compile_cached ~dir:sub src in
                check bool "miss" true (o = Llstar.Compiled_cache.Miss);
                check bool "dir created" true (Sys.file_exists sub);
                let _, o2 = compile_cached ~dir:sub src in
                check bool "hit" true (o2 = Llstar.Compiled_cache.Hit);
                (* clean the nested dir so with_dir can remove the parent *)
                Array.iter
                  (fun f -> Sys.remove (Filename.concat sub f))
                  (Sys.readdir sub);
                Sys.rmdir sub));
        test "format v4: effort counts round-trip" (fun () ->
            (* Recursion in both alternatives of [s]: the Bounded retry
               runs. *)
            let g = "grammar F; s : a 'c' | a 'd' ; a : 'a' a | 'b' ;" in
            let built (c : Llstar.Compiled.t) =
              Array.map
                (fun (d : Llstar.Report.decision_report) ->
                  d.Llstar.Report.states_built)
                c.Llstar.Compiled.report.Llstar.Report.decisions
            in
            with_dir (fun dir ->
                let c1, _ = compile_cached ~dir g in
                let c2, o = compile_cached ~dir g in
                check bool "eager hit" true (o = Llstar.Compiled_cache.Hit);
                check bool "eager states_built" true (built c1 = built c2);
                let d = rule_decision c1 "s" in
                let e = (built c1).(d) in
                check bool "aborted first attempt counted" true
                  (e.Llstar.Analysis.primary > 0
                  && e.Llstar.Analysis.bounded
                     = (Llstar.Compiled.dfa c1 d).Llstar.Look_dfa.nstates)));
        test "format v5: a non-convergence fallback round-trips" (fun () ->
            let g = example_grammar "diverging.g" in
            let reason c d =
              List.find_opt
                (function
                  | Llstar.Analysis.Not_converging _ -> true | _ -> false)
                (Llstar.Compiled.result c d).Llstar.Analysis.warnings
            in
            let built c d =
              c.Llstar.Compiled.report.Llstar.Report.decisions.(d)
                .Llstar.Report.states_built
            in
            with_dir (fun dir ->
                let c1, _ = compile_cached ~dir g in
                let c2, o = compile_cached ~dir g in
                check bool "eager hit" true (o = Llstar.Compiled_cache.Hit);
                let d = rule_decision c1 "s" in
                check bool "reason recorded" true (reason c1 d <> None);
                check bool "eager reason survives" true
                  (reason c1 d = reason c2 d);
                check bool "eager effort survives" true
                  (built c1 d = built c2 d)));
        test "format v9: the program round-trips; the digest leaves it out"
          (fun () ->
            with_dir (fun dir ->
                let c1, _ = compile_cached ~dir src in
                let c2, o = compile_cached ~dir src in
                check bool "eager hit" true (o = Llstar.Compiled_cache.Hit);
                check bool "program survives" true
                  (c1.Llstar.Compiled.program = c2.Llstar.Compiled.program);
                check string "digest without the program"
                  (Llstar.Compiled_cache.payload_digest c1)
                  (Llstar.Compiled_cache.payload_digest
                     { c1 with Llstar.Compiled.program = Atn.Program.empty })));
        test "cache-hit states are credited to the profile" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let c, _ = compile_cached ~dir src in
                let p = Runtime.Profile.create () in
                (match Runtime.Interp.parse ~profile:p c (lex c "A B C") with
                | Ok _ -> ()
                | Error _ -> Alcotest.fail "parse failed");
                check bool "cached states recorded" true
                  (Runtime.Profile.cached_dfa_states p > 0)));
        test "a loaded LL(1) fallback decision parses like the fresh one"
          (fun () ->
            let g = example_grammar "diverging.g" in
            with_dir (fun dir ->
                let c1, _ = compile_cached ~dir g in
                let c2, o = compile_cached ~dir g in
                check bool "hit" true (o = Llstar.Compiled_cache.Hit);
                let d = rule_decision c2 "s" in
                check bool "LL(1) fallback DFA" true
                  (Llstar.Compiled.dfa c2 d).Llstar.Look_dfa.fallback;
                let env = Runtime.Interp.env_of_tables () in
                List.iter
                  (fun input ->
                    check string input
                      (parse_str c1 env (lex c1 input))
                      (parse_str c2 env (lex c2 input)))
                  [
                    "ID x"; "( ID ) x"; "( ID ) y"; "< [ ID ] > y"; "( ID x";
                  ]));
      ] );
    ( "compiled_cache_gc",
      [
        test "dead writer's temp is swept; live writer's temp survives"
          (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let blob = blob_path dir in
                (* a provably-dead pid: fork a child that exits at once *)
                let dead_pid =
                  match Unix.fork () with
                  | 0 -> Unix._exit 0
                  | pid ->
                      ignore (Unix.waitpid [] pid);
                      pid
                in
                let plant name =
                  let path = Filename.concat dir name in
                  let oc = open_out_bin path in
                  output_string oc "partial write from a crashed writer";
                  close_out oc;
                  path
                in
                let dead =
                  plant (Printf.sprintf ".deadbeef.tmp.%d" dead_pid)
                in
                let live =
                  plant (Printf.sprintf ".cafef00d.tmp.%d" (Unix.getpid ()))
                in
                let removed = Llstar.Compiled_cache.gc_stale_temps ~dir () in
                check (Alcotest.list string) "only the dead temp removed"
                  [ dead ] removed;
                check bool "dead temp gone" false (Sys.file_exists dead);
                check bool "live temp untouched" true (Sys.file_exists live);
                check bool "valid blob untouched" true (Sys.file_exists blob);
                let _, o = compile_cached ~dir src in
                check bool "blob still hits after sweep" true
                  (o = Llstar.Compiled_cache.Hit)));
        test "live-pid temp older than the age cap is swept" (fun () ->
            with_dir (fun dir ->
                Unix.mkdir dir 0o700;
                let old_path =
                  Filename.concat dir
                    (Printf.sprintf ".01dc0ffe.tmp.%d" (Unix.getpid ()))
                in
                let oc = open_out_bin old_path in
                output_string oc "ancient";
                close_out oc;
                let t = Unix.gettimeofday () -. 7200.0 in
                Unix.utimes old_path t t;
                let removed = Llstar.Compiled_cache.gc_stale_temps ~dir () in
                check (Alcotest.list string) "aged out" [ old_path ] removed));
        test "compile sweeps a crashed writer's temp on first cache open"
          (fun () ->
            with_dir (fun dir ->
                (* a nested dir this process has never compiled in, so the
                   once-per-directory sweep guard has not fired yet *)
                Unix.mkdir dir 0o700;
                let sub = Filename.concat dir "nested" in
                Unix.mkdir sub 0o700;
                let dead_pid =
                  match Unix.fork () with
                  | 0 -> Unix._exit 0
                  | pid ->
                      ignore (Unix.waitpid [] pid);
                      pid
                in
                let stale =
                  Filename.concat sub
                    (Printf.sprintf ".deadbeef.tmp.%d" dead_pid)
                in
                let oc = open_out_bin stale in
                output_string oc "junk";
                close_out oc;
                let _ = compile_cached ~dir:sub src in
                check bool "stale temp swept by compile" false
                  (Sys.file_exists stale);
                let _, o = compile_cached ~dir:sub src in
                check bool "cache works after sweep" true
                  (o = Llstar.Compiled_cache.Hit);
                (* leave nothing behind for with_dir's flat cleanup *)
                Array.iter
                  (fun f -> Sys.remove (Filename.concat sub f))
                  (Sys.readdir sub);
                Sys.rmdir sub));
        test "temp name parser accepts only writer-temp shapes" (fun () ->
            let pid = Unix.getpid () in
            let some_pid name =
              Llstar.Compiled_cache.temp_writer_pid name <> None
            in
            check bool "writer temp" true
              (some_pid (Printf.sprintf ".abc123.tmp.%d" pid));
            check bool "valid blob name" false
              (some_pid "abc123.antlrkit-cache");
            check bool "no leading dot" false
              (some_pid (Printf.sprintf "abc123.tmp.%d" pid));
            check bool "no pid" false (some_pid ".abc123.tmp.");
            check bool "non-numeric pid" false (some_pid ".abc123.tmp.xyz");
            check bool "negative pid" false (some_pid ".abc123.tmp.-4");
            check bool "missing infix" false
              (some_pid (Printf.sprintf ".abc123.tmpp.%d" pid)));
        test "racing writers and readers never observe a torn blob"
          (fun () ->
            with_dir (fun dir ->
                Unix.mkdir dir 0o700;
                let c = compile src in
                let want = Llstar.Compiled_cache.payload_digest c in
                Exec.Pool.with_pool ~jobs:4 (fun p ->
                    let writer () =
                      for _ = 1 to 10 do
                        match Llstar.Compiled_cache.save ~dir c with
                        | Ok _ -> ()
                        | Error e -> Alcotest.failf "save failed: %s" e
                      done;
                      0
                    in
                    (* a reader that misses compiles and saves: one more
                       writer *)
                    let reader () =
                      let seen = ref 0 in
                      for _ = 1 to 20 do
                        let c', o = compile_cached ~dir src in
                        if o = Llstar.Compiled_cache.Hit then incr seen;
                        if Llstar.Compiled_cache.payload_digest c' <> want then
                          Alcotest.fail "torn or foreign blob observed"
                      done;
                      !seen
                    in
                    let tasks =
                      [
                        Exec.Pool.submit p writer;
                        Exec.Pool.submit p writer;
                        Exec.Pool.submit p reader;
                        Exec.Pool.submit p reader;
                      ]
                    in
                    ignore (List.map Exec.Pool.await tasks));
                (* after the dust settles: exactly one valid blob, no temps *)
                match compile_cached ~dir src with
                | _, Llstar.Compiled_cache.Miss ->
                    Alcotest.fail "no blob survived the race"
                | c', Llstar.Compiled_cache.Hit ->
                    check string "converged on a digest-valid entry" want
                      (Llstar.Compiled_cache.payload_digest c');
                    let temps =
                      Array.to_list (Sys.readdir dir)
                      |> List.filter (fun f ->
                             Llstar.Compiled_cache.temp_writer_pid f <> None)
                    in
                    check int "no leftover temps" 0 (List.length temps)));
      ] );
    ( "compiled_cache_bench",
      List.concat_map per_grammar Bench_grammars.Specs.all );
  ]
