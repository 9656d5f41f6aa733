(* Persistent compilation cache: round trips, corruption tolerance, and
   warm lazy-state preservation. *)

open Helpers

let src = "grammar T; s : A B C | A B D | E ;"

(* Fresh private directory per test; removed afterwards. *)
let with_dir (f : string -> unit) : unit =
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

let compile_cached ?strategy ~dir src =
  match Llstar.Compiled_cache.of_source ?strategy ~dir src with
  | Ok r -> r
  | Error e -> Alcotest.failf "cache compile failed: %a" Llstar.Compiled.pp_error e

let blob_path dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".antlrkit-cache")
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one cache blob, found %d" (List.length files)

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
        test "strategy is part of the key" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let _, o =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir src
                in
                check bool "lazy misses after eager" true
                  (o = Llstar.Compiled_cache.Miss)));
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
        test "lazy warm re-save preserves materialized states" (fun () ->
            with_dir (fun dir ->
                let c, o =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir src
                in
                check bool "miss" true (o = Llstar.Compiled_cache.Miss);
                (match Runtime.Interp.parse c (lex c "A B D") with
                | Ok _ -> ()
                | Error _ -> Alcotest.fail "lazy parse failed");
                let warm_states = (Llstar.Compiled.dfa c 0).Llstar.Look_dfa.nstates in
                (match Llstar.Compiled_cache.save ~dir c with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "warm save failed: %s" e);
                let c2, o2 =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir src
                in
                check bool "hit" true (o2 = Llstar.Compiled_cache.Hit);
                check bool "still lazy" true
                  (Llstar.Compiled.strategy c2 = Llstar.Compiled.Lazy);
                check int "materialized states preserved" warm_states
                  (Llstar.Compiled.dfa c2 0).Llstar.Look_dfa.nstates;
                (* and the warm copy still parses identically *)
                check string "same tree" (parse_tree c "A B D")
                  (parse_tree c2 "A B D")));
        test "format v4: effort counts and interned stacks round-trip"
          (fun () ->
            (* Recursion in both alternatives of [s]: the Bounded retry
               runs, and the lazy engine's states carry call stacks. *)
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
                     = (Llstar.Compiled.dfa c1 d).Llstar.Look_dfa.nstates);
                let l1, _ =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir g
                in
                List.iter
                  (fun input ->
                    match Runtime.Interp.parse l1 (lex l1 input) with
                    | Ok _ -> ()
                    | Error _ -> Alcotest.failf "parse of %S failed" input)
                  [ "a a b c"; "a b d"; "a a a b c" ];
                (match Llstar.Compiled_cache.save ~dir l1 with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "warm save failed: %s" e);
                let l2, o =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir g
                in
                check bool "lazy hit" true (o = Llstar.Compiled_cache.Hit);
                let e1 = Option.get (Llstar.Compiled.engine l1 d)
                and e2 = Option.get (Llstar.Compiled.engine l2 d) in
                (* restoring re-interns every stack; saving again must
                   reproduce the same portable form *)
                check bool "portable form survives a reload" true
                  (Llstar.Lazy_dfa.to_portable e1
                  = Llstar.Lazy_dfa.to_portable e2);
                check bool "lazy states_built" true
                  (Llstar.Lazy_dfa.states_built e1
                  = Llstar.Lazy_dfa.states_built e2);
                check string "same tree" (parse_tree l1 "a a a a b c")
                  (parse_tree l2 "a a a a b c")));
        test "format v5: a non-convergence fallback round-trips" (fun () ->
            let g = example_grammar "diverging.g" in
            let reason c d =
              List.find_opt
                (function
                  | Llstar.Analysis.Not_converging _ -> true | _ -> false)
                (Llstar.Compiled.result c d).Llstar.Analysis.warnings
            in
            let built c d =
              (Llstar.Compiled.live_report c).Llstar.Report.decisions.(d)
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
                  (built c1 d = built c2 d);
                (* a lazy engine that gave up and rebuilt carries the same
                   reason and its split effort through a warm save *)
                let l1, _ =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir g
                in
                let e1 = Option.get (Llstar.Compiled.engine l1 d) in
                ignore (Llstar.Lazy_dfa.complete e1);
                check int "rebuilt" 1 (Llstar.Lazy_dfa.rebuilds e1);
                (match Llstar.Compiled_cache.save ~dir l1 with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "warm save failed: %s" e);
                let l2, o =
                  compile_cached ~strategy:Llstar.Compiled.Lazy ~dir g
                in
                check bool "lazy hit" true (o = Llstar.Compiled_cache.Hit);
                check bool "lazy reason survives" true
                  (reason l2 d = reason c1 d);
                check bool "lazy effort survives" true
                  (built l1 d = built l2 d)));
        test "cache-hit states are credited to the profile" (fun () ->
            with_dir (fun dir ->
                let _ = compile_cached ~dir src in
                let c, _ = compile_cached ~dir src in
                let p = Runtime.Profile.create () in
                (match Runtime.Interp.parse ~profile:p c (lex c "A B C") with
                | Ok _ -> ()
                | Error _ -> Alcotest.fail "parse failed");
                check bool "cached states recorded" true
                  (Runtime.Profile.cached_dfa_states p > 0);
                check int "no lazy states in eager mode" 0
                  (Runtime.Profile.lazy_dfa_states p)));
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
                let surface = c.Llstar.Compiled.surface in
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
                    let reader () =
                      let seen = ref 0 in
                      for _ = 1 to 20 do
                        match Llstar.Compiled_cache.load ~dir surface with
                        | None -> () (* not yet written: fine *)
                        | Some c' ->
                            incr seen;
                            if Llstar.Compiled_cache.payload_digest c' <> want
                            then Alcotest.fail "torn or foreign blob observed"
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
                match Llstar.Compiled_cache.load ~dir surface with
                | None -> Alcotest.fail "no blob survived the race"
                | Some c' ->
                    check string "converged on a digest-valid entry" want
                      (Llstar.Compiled_cache.payload_digest c');
                    let temps =
                      Array.to_list (Sys.readdir dir)
                      |> List.filter (fun f ->
                             Llstar.Compiled_cache.temp_writer_pid f <> None)
                    in
                    check int "no leftover temps" 0 (List.length temps)));
      ] );
  ]
