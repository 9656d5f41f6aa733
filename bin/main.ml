(* antlrkit: command-line front end.

     antlrkit analyze grammar.g            decision report (Table-1 style)
     antlrkit dot grammar.g -d 0           lookahead DFA as Graphviz
     antlrkit atn grammar.g -r expr        one rule's ATN as Graphviz
     antlrkit parse grammar.g input.txt    lex + parse + print tree/profile
     antlrkit gen grammar.g -n 5           generate random sentences

   The lexer is the configurable engine from the runtime; flags map the
   common token classes (identifier/int/float/string/char names, comment
   styles).  Literal tokens always come from the grammar itself. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Parse inputs are never slurped: bytes flow through the chunked scanner,
   an optional --max-input-bytes budget is enforced as they arrive, and an
   unreadable path is a clean CLI error rather than an escaping
   [Sys_error]. *)
exception Input_too_large of { path : string; limit : int }

let bounded_reader ?limit path (read : Runtime.Lexer_engine.reader) :
    Runtime.Lexer_engine.reader =
  match limit with
  | None -> read
  | Some limit ->
      let seen = ref 0 in
      fun buf off len ->
        let n = read buf off len in
        seen := !seen + n;
        if !seen > limit then raise (Input_too_large { path; limit });
        n

let with_input ?max_bytes path (f : Runtime.Lexer_engine.reader -> 'a) : 'a =
  match open_in_bin path with
  | exception Sys_error msg ->
      Fmt.epr "error: cannot read input: %s@." msg;
      exit 2
  | ic ->
      let read =
        bounded_reader ?limit:max_bytes path
          (Runtime.Lexer_engine.reader_of_channel ic)
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f read)

let grammar_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"GRAMMAR" ~doc:"Grammar file in the ANTLR-like metalanguage.")

let compile_grammar ?cache_dir ?tracer ?pool ?(lazy_ = false) path =
  let strategy =
    if lazy_ then Llstar.Compiled.Lazy else Llstar.Compiled.Eager
  in
  let src = read_file path in
  let result =
    match cache_dir with
    | None -> Llstar.Compiled.of_source ?pool ~strategy src
    | Some dir -> (
        match
          Llstar.Compiled_cache.of_source ?tracer ?pool ~strategy ~dir src
        with
        | Ok (c, outcome) ->
            Fmt.epr "[cache] %s@."
              (match outcome with
              | Llstar.Compiled_cache.Hit -> "hit"
              | Llstar.Compiled_cache.Miss -> "miss");
            Ok c
        | Error e -> Error e)
  in
  match result with
  | Ok c -> c
  | Error e ->
      Fmt.epr "%s: %a@." path Llstar.Compiled.pp_error e;
      exit 2

(* A built-in bench grammar by name; an unknown name lists the known ones
   and exits 2. *)
let bench_spec name : Bench_grammars.Workload.spec =
  match Bench_grammars.Specs.find name with
  | Some spec -> spec
  | None ->
      Fmt.epr "unknown bench grammar %S (known: %s)@." name
        (String.concat ", "
           (List.map
              (fun (s : Bench_grammars.Workload.spec) ->
                s.Bench_grammars.Workload.name)
              Bench_grammars.Specs.all));
      exit 2

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~doc:
          "Directory for the persistent compilation cache.  Compilations \
           are keyed by a content hash of the grammar and analysis options; \
           a valid cached blob skips analysis entirely, anything invalid is \
           silently rebuilt.")

let lazy_arg =
  Arg.(
    value & flag
    & info [ "lazy" ]
        ~doc:
          "Build lookahead DFAs lazily at prediction time instead of \
           analyzing every decision up front.")

let jobs_arg =
  (* Validated at the Cmdliner layer so a bad count is a friendly usage
     error, not an [Invalid_argument] escaping from pool construction. *)
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some n ->
          Error
            (`Msg
              (Printf.sprintf
                 "job count must be >= 0 (0 = all available cores), got %d" n))
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel work: lookahead-DFA analysis fans \
           out per decision, batch parsing and fuzzing spread their inputs \
           over a chunk queue.  $(docv)=0 uses every available core.  \
           Results are identical for any job count (including with \
           $(b,--lazy): shared lazy DFA engines synchronize internally); \
           on an OCaml 4.x build this falls back to sequential execution.")

(* --- structured tracing flags ------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write structured prediction-trace events to $(docv).  The \
           default format is the Chrome trace_event JSON array: load it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing to see the parse \
           as a timeline.")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
    & info [ "trace-format" ]
        ~doc:
          "Trace file format: $(b,chrome) (trace_event JSON array) or \
           $(b,jsonl) (one JSON object per line).")

(* The tracer for --trace plus a closer that finalizes the file; the closer
   must run before the process exits, including on error paths. *)
let make_tracer trace_file trace_format : Obs.Trace.t * (unit -> unit) =
  match trace_file with
  | None -> (Obs.Trace.null, fun () -> ())
  | Some path -> (
      let oc = open_out path in
      match trace_format with
      | `Chrome ->
          let tr, close = Obs.Trace.chrome_sink oc in
          ( tr,
            fun () ->
              close ();
              close_out oc )
      | `Jsonl ->
          let tr = Obs.Trace.jsonl oc in
          (tr, fun () -> close_out oc))

(* --- lexer configuration flags ---------------------------------------- *)

let lexer_config_term =
  let open Term in
  let ident = Arg.(value & opt string "ID" & info [ "ident" ] ~doc:"Identifier token name.") in
  let int_ = Arg.(value & opt string "INT" & info [ "int" ] ~doc:"Integer token name.") in
  let float_ = Arg.(value & opt (some string) None & info [ "float" ] ~doc:"Float token name.") in
  let string_ = Arg.(value & opt (some string) None & info [ "string" ] ~doc:"String token name.") in
  let char_ = Arg.(value & opt (some string) None & info [ "char" ] ~doc:"Char token name.") in
  let nocase = Arg.(value & flag & info [ "nocase" ] ~doc:"Case-insensitive keywords.") in
  const (fun ident int_ float_ string_ char_ nocase ->
      {
        Runtime.Lexer_engine.default_config with
        ident_token = Some ident;
        int_token = Some int_;
        float_token = float_;
        string_token = string_;
        char_token = char_;
        case_insensitive_keywords = nocase;
      })
  $ ident $ int_ $ float_ $ string_ $ char_ $ nocase

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let run grammar verbose minimize cache_dir lazy_ =
    let c =
      if not minimize then compile_grammar ?cache_dir ~lazy_ grammar
      else begin
        let src = read_file grammar in
        match Grammar.Meta_parser.parse_result src with
        | Error msg ->
            Fmt.epr "%s: %s@." grammar msg;
            exit 2
        | Ok surface -> (
            let opts =
              {
                (Llstar.Analysis.options_of_grammar surface) with
                Llstar.Analysis.minimize = true;
              }
            in
            match
              Llstar.Compiled.compile ~analysis_opts:opts ~grammar_source:src
                surface
            with
            | Ok c -> c
            | Error e ->
                Fmt.epr "%s: %a@." grammar Llstar.Compiled.pp_error e;
                exit 2)
      end
    in
    (* In lazy mode, drive every engine to completion so the report shows
       what the on-demand construction ends with, fallbacks included. *)
    Option.iter
      (Array.iter (fun e -> ignore (Llstar.Lazy_dfa.complete e)))
      c.Llstar.Compiled.engines;
    let report = Llstar.Compiled.live_report c in
    Fmt.pr "%a" Llstar.Report.pp report;
    Fmt.pr "%a"
      (Llstar.Report.pp_decisions ~only_interesting:(not verbose)
         c.Llstar.Compiled.atn)
      report;
    if verbose then
      Fmt.pr "prepared grammar:@.%s@."
        (Grammar.Pretty.to_string c.Llstar.Compiled.grammar)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show every decision.")
  in
  let minimize =
    Arg.(value & flag & info [ "minimize" ] ~doc:"Minimize the lookahead DFAs.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the LL(*) analysis and print the decision report.")
    Term.(const run $ grammar_arg $ verbose $ minimize $ cache_dir_arg $ lazy_arg)

(* --- dot --------------------------------------------------------------- *)

let dot_cmd =
  let run grammar decision =
    let c = compile_grammar grammar in
    if decision >= Array.length c.Llstar.Compiled.results then begin
      Fmt.epr "decision %d out of range (grammar has %d)@." decision
        (Array.length c.Llstar.Compiled.results);
      exit 2
    end;
    print_string
      (Llstar.Dfa_dot.to_dot
         (Llstar.Compiled.sym c)
         (Llstar.Compiled.dfa c decision))
  in
  let decision =
    Arg.(value & opt int 0 & info [ "d"; "decision" ] ~doc:"Decision number.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a decision's lookahead DFA as Graphviz.")
    Term.(const run $ grammar_arg $ decision)

let atn_cmd =
  let run grammar rule =
    let c = compile_grammar grammar in
    let atn = c.Llstar.Compiled.atn in
    let rule_id =
      match rule with
      | None -> None
      | Some name -> (
          match Atn.rule_by_name atn name with
          | Some r -> Some r
          | None ->
              Fmt.epr "no rule '%s'@." name;
              exit 2)
    in
    print_string (Atn.Dot.to_dot ?rule:rule_id atn)
  in
  let rule =
    Arg.(value & opt (some string) None & info [ "r"; "rule" ] ~doc:"Rule name.")
  in
  Cmd.v
    (Cmd.info "atn" ~doc:"Export the ATN (or one rule's submachine) as Graphviz.")
    Term.(const run $ grammar_arg $ rule)

(* --- parse ------------------------------------------------------------- *)

let parse_cmd =
  (* Single-input mode: the chunked lexer feeds a bounded token window and
     the interpreter parses as tokens arrive.  Without --tree or --recover
     it only recognizes, in O(window + speculation reach) live memory; a
     tree keeps its leaves, which are copied [Token.t] values, so both
     flags work at any --window.  The whole input is always scanned
     (drain), so a lex error anywhere wins over the parse verdict, exactly
     as tokenize-then-parse would report it. *)
  let run_single grammar input config start show_tree profile_flag verbose
      recover cache_dir lazy_ window max_input_bytes trace_file trace_format =
    let tracer, close_trace = make_tracer trace_file trace_format in
    let quit code =
      close_trace ();
      exit code
    in
    let c = compile_grammar ?cache_dir ~tracer ~lazy_ grammar in
    let sym = Llstar.Compiled.sym c in
    let profile = Runtime.Profile.create () in
    let show_profile () =
      if profile_flag then begin
        Fmt.pr "%a@." Runtime.Profile.pp profile;
        if verbose then Fmt.pr "%a" Runtime.Profile.pp_decisions profile
      end
    in
    let lex_error e =
      Fmt.epr "%s: lex error: %a@." input Runtime.Lexer_engine.pp_error e;
      quit 1
    in
    match
      with_input ?max_bytes:max_input_bytes input (fun read ->
          let ls = Runtime.Lexer_engine.stream ~tracer config sym read in
          let ts =
            Runtime.Token_stream.of_pull ~window
              (Runtime.Lexer_engine.pull ls)
          in
          let t = Runtime.Interp.create ~profile ~tracer ~recover c ts in
          let verdict =
            if show_tree || recover then
              Result.map Option.some (Runtime.Interp.run t ?start ())
            else
              Result.map (fun () -> None)
                (Runtime.Interp.recognize_run t ?start ())
          in
          match Runtime.Lexer_engine.drain ls with
          | Error e -> Error e
          | Ok _ -> Ok (verdict, Runtime.Lexer_engine.produced ls))
    with
    | exception Input_too_large { path; limit } ->
        Fmt.epr "%s: input exceeds --max-input-bytes (%d)@." path limit;
        quit 1
    | exception Runtime.Lexer_engine.Lex_error e -> lex_error e
    | Error e -> lex_error e
    | Ok (Ok tree, total) ->
        Fmt.pr "parsed %d tokens@." total;
        (match tree with
        | Some tree when show_tree ->
            Fmt.pr "%s@." (Runtime.Tree.to_string sym tree)
        | _ -> ());
        show_profile ();
        (* Re-save a lazy compilation after parsing: the blob then carries
           every DFA state this run materialized, warming future loads. *)
        (match cache_dir with
        | Some dir when lazy_ -> ignore (Llstar.Compiled_cache.save ~dir c)
        | _ -> ());
        close_trace ()
    | Ok (Error errors, _) ->
        List.iter
          (fun e -> Fmt.epr "%a@." (Runtime.Parse_error.pp sym) e)
          errors;
        show_profile ();
        quit 1
  in
  (* Batch mode: many inputs (and/or @manifest expansions), optionally
     sharded across a worker pool. *)
  let run_batch grammar inputs config start profile_flag verbose recover
      cache_dir lazy_ jobs trace_file =
    if trace_file <> None then
      Fmt.epr "warning: --trace is ignored in batch mode@.";
    match Runtime.Batch.load_inputs inputs with
    | Error e ->
        Fmt.epr "error: %s@." e;
        exit 2
    | Ok inputs ->
        Exec.Pool.with_pool ~jobs (fun pool ->
            let c = compile_grammar ?cache_dir ~pool ~lazy_ grammar in
            let sym = Llstar.Compiled.sym c in
            let profile = Runtime.Profile.create () in
            let results =
              Runtime.Batch.run ~pool ~config ~profile ~recover ?start c
                inputs
            in
            let failed = ref 0 in
            Array.iter
              (fun (r : Runtime.Batch.result_) ->
                if not (Runtime.Batch.outcome_ok r.Runtime.Batch.outcome)
                then incr failed;
                Fmt.pr "%a@." Runtime.Batch.pp_outcome (sym, r))
              results;
            (* Re-save a lazy compilation after the batch, as single-input
               mode does: the canonical blob carries every DFA state the
               batch materialized -- identical for any job count. *)
            (match cache_dir with
            | Some dir when lazy_ ->
                ignore (Llstar.Compiled_cache.save ~dir c)
            | _ -> ());
            Fmt.pr "batch: %d/%d inputs parsed, %d tokens total (jobs=%d)@."
              (Array.length results - !failed)
              (Array.length results)
              (Runtime.Batch.total_tokens results)
              (Exec.Pool.jobs pool);
            if profile_flag then begin
              Fmt.pr "%a@." Runtime.Profile.pp profile;
              if verbose then
                Fmt.pr "%a" Runtime.Profile.pp_decisions profile
            end;
            if !failed > 0 then exit 1)
  in
  let run grammar inputs config start show_tree profile_flag verbose recover
      cache_dir lazy_ jobs trace_file trace_format window max_input_bytes =
    let jobs = Exec.Pool.resolve_jobs jobs in
    let is_manifest a = String.length a > 1 && a.[0] = '@' in
    let usage msg =
      Fmt.epr "error: %s@." msg;
      exit 2
    in
    if window < 1 then usage "--window must be >= 1";
    match inputs with
    | [ input ] when jobs = 1 && not (is_manifest input) ->
        run_single grammar input config start show_tree profile_flag verbose
          recover cache_dir lazy_ window max_input_bytes trace_file
          trace_format
    | [] -> usage "no input files"
    | inputs ->
        run_batch grammar inputs config start profile_flag verbose recover
          cache_dir lazy_ jobs trace_file
  in
  let input =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"INPUT"
          ~doc:
            "Input files.  An argument of the form @FILE names a manifest: \
             one input path per line, blank lines and #-comments skipped.  \
             More than one input (or --jobs > 1) selects batch mode, which \
             prints a one-line outcome per input.")
  in
  let start =
    Arg.(value & opt (some string) None & info [ "s"; "start" ] ~doc:"Start rule.")
  in
  let tree = Arg.(value & flag & info [ "t"; "tree" ] ~doc:"Print the parse tree.") in
  let profile = Arg.(value & flag & info [ "p"; "profile" ] ~doc:"Print the decision profile.") in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"With --profile, also print the per-decision table.")
  in
  let recover = Arg.(value & flag & info [ "recover" ] ~doc:"Recover from syntax errors.") in
  let window =
    Arg.(
      value
      & opt int Runtime.Token_stream.default_window
      & info [ "window" ] ~docv:"TOKENS"
          ~doc:
            "Token-window size for single-input parsing: the number of \
             recent tokens kept live, so live memory stays O(window) \
             regardless of input size unless $(b,--tree) or \
             $(b,--recover) keeps a parse tree.  The window grows only \
             while an active speculation needs to rewind further back; \
             the verdict, error positions and profile do not depend on \
             it.")
  in
  let max_input_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-input-bytes" ] ~docv:"N"
          ~doc:
            "Fail with a clean error once the input file exceeds $(docv) \
             bytes.  Enforced incrementally as bytes are read, so an \
             oversized input never occupies memory.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse an input file with an LL(*) parser for the grammar.")
    Term.(
      const run $ grammar_arg $ input $ lexer_config_term $ start $ tree
      $ profile $ verbose $ recover $ cache_dir_arg $ lazy_arg $ jobs_arg
      $ trace_arg $ trace_format_arg $ window $ max_input_bytes)

(* --- gen --------------------------------------------------------------- *)

let gen_cmd =
  let run grammar n size seed =
    let src = read_file grammar in
    let g =
      match Grammar.Meta_parser.parse_result src with
      | Ok g -> g
      | Error msg ->
          Fmt.epr "%s: %s@." grammar msg;
          exit 2
    in
    let sg = Grammar.Sentence_gen.prepare g in
    let rng = Random.State.make [| seed |] in
    for i = 1 to n do
      match Grammar.Sentence_gen.generate sg ~rng ~size with
      | exception Grammar.Sentence_gen.Unproductive ->
          Fmt.epr
            "%s: grammar is unproductive: some reachable rule has no \
             finite-yield derivation@."
            grammar;
          exit 2
      | terms ->
          let text =
            Grammar.Sentence_gen.render
              ~sample:(fun name -> Printf.sprintf "<%s%d>" name i)
              terms
          in
          print_endline (String.trim text)
    done
  in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of sentences.") in
  let size = Arg.(value & opt int 20 & info [ "size" ] ~doc:"Approximate token budget.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate random sentences from the grammar.")
    Term.(const run $ grammar_arg $ n $ size $ seed)

(* --- fuzz -------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed runs grammar mutate corpus_dir size profile_flag json_file
      jobs lazy_ stream_window =
    let jobs = Exec.Pool.resolve_jobs jobs in
    let strategy = if lazy_ then Some Llstar.Compiled.Lazy else None in
    Exec.Pool.with_pool ~jobs @@ fun pool ->
    let t0 = Unix.gettimeofday () in
    let specs =
      match grammar with
      | None -> Bench_grammars.Specs.all
      | Some name -> [ bench_spec name ]
    in
    let any_failure = ref false in
    let bench_docs = ref [] in
    List.iter
      (fun (spec : Bench_grammars.Workload.spec) ->
        let profile =
          if profile_flag || json_file <> None then
            Some (Runtime.Profile.create ())
          else None
        in
        match
          Fuzz.Driver.run_spec ~size ~mutate ?corpus_dir ?profile ~pool
            ?strategy ?stream_window ~seed ~runs spec
        with
        | Error e ->
            Fmt.epr "%s: %a@." spec.Bench_grammars.Workload.name
              Llstar.Compiled.pp_error e;
            exit 2
        | Ok report ->
            Fmt.pr "%a@." Fuzz.Driver.pp_report report;
            (if profile_flag then
               match profile with
               | Some p -> Fmt.pr "  %a@." Runtime.Profile.pp p
               | None -> ());
            bench_docs :=
              ( spec.Bench_grammars.Workload.name,
                Fuzz.Driver.report_to_json ?profile ~seed report )
              :: !bench_docs;
            List.iter
              (fun (f : Fuzz.Driver.failure) ->
                any_failure := true;
                Fmt.pr "  %a@." Fuzz.Oracle.pp_divergence f.Fuzz.Driver.f_divergence;
                Fmt.pr "  shrunk: %s@."
                  (String.concat " " f.Fuzz.Driver.f_shrunk);
                Option.iter
                  (fun file -> Fmt.pr "  reproducer: %s@." file)
                  f.Fuzz.Driver.f_file)
              report.Fuzz.Driver.r_failures)
      specs;
    (match json_file with
    | Some path ->
        Obs.Telemetry.write_file path
          (Obs.Telemetry.document ~tool:"antlrkit-fuzz"
             ~wall_s:(Unix.gettimeofday () -. t0)
             ~user_s:(Obs.Telemetry.user_time ())
             (List.rev !bench_docs))
    | None -> ());
    if !any_failure then begin
      Fmt.epr "fuzz: unexplained divergences found@.";
      exit 1
    end
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~doc:"Inputs per grammar.")
  in
  let grammar =
    Arg.(
      value
      & opt (some string) None
      & info [ "grammar" ]
          ~doc:"Fuzz only this benchmark grammar (default: all six).")
  in
  let mutate =
    Arg.(
      value & opt bool true
      & info [ "mutate" ]
          ~doc:"Mutate half of the generated sentences (drop/swap/dup/subst).")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) (Some "fuzz-corpus")
      & info [ "corpus-dir" ]
          ~doc:"Directory for shrunk reproducer files (written on failure).")
  in
  let size =
    Arg.(value & opt int 30 & info [ "size" ] ~doc:"Approximate sentence size.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "p"; "profile" ]
          ~doc:"Print the LL(*) decision profile accumulated per grammar.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable telemetry document (per-grammar \
             verdict counts, failures and decision profiles) to $(docv).")
  in
  let stream_window =
    Arg.(
      value
      & opt (some int) None
      & info [ "stream-window" ] ~docv:"TOKENS"
          ~doc:
            "Also run every input through the streaming LL(*) recognizer \
             with a $(docv)-sized token window, and flag any disagreement \
             with the materialized run (verdict, error position, consumed \
             tokens) as a divergence.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generated (and mutated) sentences are run \
          through the LL(*), packrat, Earley and LL(1) recognizers and any \
          unexplained disagreement, crash or hang is reported and shrunk.")
    Term.(
      const run $ seed $ runs $ grammar $ mutate $ corpus_dir $ size $ profile
      $ json $ jobs_arg $ lazy_arg $ stream_window)

(* --- codegen ----------------------------------------------------------- *)

let codegen_cmd =
  let run grammar bench out_dir module_name standalone inline_threshold print_
      config =
    let c, lexer, grammar_text, samples =
      match (bench, grammar) with
      | Some name, _ ->
          let spec = bench_spec name in
          let cw = Bench_grammars.Workload.compile spec in
          ( cw.Bench_grammars.Workload.c,
            Some spec.Bench_grammars.Workload.lexer_config,
            Some spec.Bench_grammars.Workload.grammar_text,
            spec.Bench_grammars.Workload.samples )
      | None, Some path -> (
          let src = read_file path in
          match Llstar.Compiled.of_source src with
          | Error e ->
              Fmt.epr "%s: %a@." path Llstar.Compiled.pp_error e;
              exit 2
          | Ok c -> (c, Some config, Some src, []))
      | None, None ->
          Fmt.epr "codegen: need a GRAMMAR file or --bench NAME@.";
          exit 2
    in
    match Codegen.Lower.lower ~inline_threshold ?lexer ?grammar_text c with
    | Error msg ->
        Fmt.epr "codegen: %s@." msg;
        exit 2
    | Ok ir -> (
        if print_ then print_string (Codegen.Emit_ocaml.emit ir)
        else
          match out_dir with
          | None ->
              Fmt.epr "codegen: need -o DIR (or --print)@.";
              exit 2
          | Some dir ->
              let files =
                Codegen.Scaffold.workspace ?module_name ~standalone ~samples ir
              in
              Codegen.Scaffold.write_all ~dir files;
              let s = Codegen.Ir.stats ir in
              Fmt.epr
                "%s: %d rules, %d decisions (%d inline, %d table) -> %d \
                 file(s) in %s@."
                ir.Codegen.Ir.grammar_name s.Codegen.Ir.n_rules
                s.Codegen.Ir.n_decisions s.Codegen.Ir.n_inline
                s.Codegen.Ir.n_table (List.length files) dir)
  in
  let grammar =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"GRAMMAR"
          ~doc:"Grammar file in the ANTLR-like metalanguage.")
  in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:
            "Generate a parser for a built-in bench grammar (MiniJava, \
             RatsC, RatsJava, MiniVB, MiniSQL, MiniCSharp) instead of a \
             grammar file; embeds its lexer configuration and sample \
             inputs.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write the generated workspace into $(docv).")
  in
  let module_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "module" ] ~docv:"NAME"
          ~doc:"Module name for the emitted parser (default: grammar name).")
  in
  let standalone =
    Arg.(
      value & flag
      & info [ "standalone" ]
          ~doc:
            "Also emit a dune-project file so the workspace builds outside \
             an existing dune project.")
  in
  let inline_threshold =
    Arg.(
      value
      & opt int Codegen.Lower.default_inline_threshold
      & info [ "inline-threshold" ] ~docv:"N"
          ~doc:
            "Compile lookahead DFAs with at most $(docv) states to nested \
             match/if chains; larger decisions embed the DFA and walk it \
             generically.")
  in
  let print_ =
    Arg.(
      value & flag
      & info [ "print" ] ~doc:"Print the parser module to stdout and stop.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Compile a grammar's ATN and lookahead DFAs to a self-contained \
          OCaml recognizer: one recursive function per rule, decisions as \
          match/if chains over token ids (or embedded DFA tables), \
          syntactic predicates as speculation functions over stream marks. \
          The emitted driver's --check mode replays inputs through the \
          ATN/DFA interpreter and fails on any disagreement.")
    Term.(
      const run $ grammar $ bench $ out_dir $ module_name $ standalone
      $ inline_threshold $ print_ $ lexer_config_term)

(* --- bench ------------------------------------------------------------- *)

let bench_cmd =
  let run grammar input config start iters warmup cache_dir lazy_ json_file =
    let t0 = Unix.gettimeofday () in
    let c = compile_grammar ?cache_dir ~lazy_ grammar in
    let compile_s = Unix.gettimeofday () -. t0 in
    let sym = Llstar.Compiled.sym c in
    let text = read_file input in
    match Runtime.Lexer_engine.tokenize config sym text with
    | Error e ->
        Fmt.epr "%s: lex error: %a@." input Runtime.Lexer_engine.pp_error e;
        exit 1
    | Ok toks ->
        let profile = Runtime.Profile.create () in
        let errors = ref 0 in
        let once ~profile () =
          match Runtime.Interp.recognize ?profile ?start c toks with
          | Ok () -> ()
          | Error _ -> incr errors
        in
        for _ = 1 to warmup do
          once ~profile:None ()
        done;
        errors := 0;
        let t1 = Unix.gettimeofday () in
        for _ = 1 to iters do
          once ~profile:(Some profile) ()
        done;
        let parse_s = Unix.gettimeofday () -. t1 in
        let ntoks = Array.length toks in
        let tokens_per_s =
          if parse_s > 0.0 then float_of_int (ntoks * iters) /. parse_s
          else 0.0
        in
        Fmt.pr
          "%s: %d tokens x %d iters in %.4fs (%.0f tokens/s, compile %.4fs%s)@."
          (Filename.basename input) ntoks iters parse_s tokens_per_s compile_s
          (if !errors > 0 then Printf.sprintf ", %d parse errors" !errors
           else "");
        Fmt.pr "%a@." Runtime.Profile.pp profile;
        (match json_file with
        | Some path ->
            let bench =
              Obs.Json.obj
                [
                  ("grammar", Obs.Json.str (Filename.basename grammar));
                  ("input", Obs.Json.str (Filename.basename input));
                  ("tokens", Obs.Json.int ntoks);
                  ("iters", Obs.Json.int iters);
                  ("warmup", Obs.Json.int warmup);
                  ("compile_s", Obs.Json.float compile_s);
                  ("parse_s", Obs.Json.float parse_s);
                  ("tokens_per_s", Obs.Json.float tokens_per_s);
                  ("parse_errors", Obs.Json.int !errors);
                  ("lazy", Obs.Json.bool lazy_);
                  ( "cache_dir",
                    match cache_dir with
                    | Some d -> Obs.Json.str d
                    | None -> Obs.Json.Null );
                  ("profile", Runtime.Profile.to_json profile);
                  ("report", Llstar.Report.to_json c.Llstar.Compiled.report);
                  ( "metrics",
                    Obs.Metrics.to_json (Runtime.Profile.registry profile) );
                ]
            in
            Obs.Telemetry.write_file path
              (Obs.Telemetry.document ~tool:"antlrkit-bench"
                 ~wall_s:(Unix.gettimeofday () -. t0)
                 ~user_s:(Obs.Telemetry.user_time ())
                 [ (Filename.basename grammar, bench) ])
        | None -> ())
  in
  let input =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"INPUT" ~doc:"Input file.")
  in
  let start =
    Arg.(value & opt (some string) None & info [ "s"; "start" ] ~doc:"Start rule.")
  in
  let iters =
    Arg.(value & opt int 20 & info [ "iters" ] ~doc:"Measured parse iterations.")
  in
  let warmup =
    Arg.(value & opt int 2 & info [ "warmup" ] ~doc:"Unmeasured warmup iterations.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write an antlrkit-telemetry/2 document (wall/user time, \
             decision events, lookahead depths, lazy/cached DFA state \
             counts, full metrics registry) to $(docv).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Compile a grammar, parse an input repeatedly, and report \
          throughput plus the decision profile; --json emits the \
          machine-readable telemetry document.")
    Term.(
      const run $ grammar_arg $ input $ lexer_config_term $ start $ iters
      $ warmup $ cache_dir_arg $ lazy_arg $ json)

(* --- serve / client ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "antlrkit.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket path for the parse service (ignored with --tcp).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on (or connect to) a TCP address instead of a Unix \
              socket.")

let resolve_addr socket tcp : Serve.Protocol.addr =
  match tcp with
  | None -> Serve.Protocol.Unix_sock socket
  | Some s -> (
      match Serve.Protocol.tcp_of_string s with
      | Ok a -> a
      | Error msg ->
          Fmt.epr "--tcp %s@." msg;
          exit 2)

let serve_cmd =
  let grammars =
    Arg.(
      value
      & opt (some string) None
      & info [ "grammars" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated builtin grammars to preload (default: all \
             six bench grammars).  $(b,none) starts with an empty \
             registry; clients add grammars with op=load.")
  in
  let max_tokens =
    Arg.(
      value
      & opt int Serve.Handler.default_limits.Serve.Handler.max_tokens
      & info [ "max-tokens" ] ~docv:"N"
          ~doc:"Reject requests that lex to more than $(docv) tokens.")
  in
  let time_budget =
    Arg.(
      value
      & opt float Serve.Handler.default_limits.Serve.Handler.time_budget_s
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:
            "Per-request wall-clock budget.  The guard is post-hoc (the \
             parse is not interrupted): an overrunning request reports a \
             time_budget error instead of its result.")
  in
  let max_request =
    Arg.(
      value
      & opt int Serve.Handler.default_limits.Serve.Handler.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Maximum request line (and text payload) size in bytes.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve Prometheus text-format metrics over HTTP on \
             127.0.0.1:$(docv) ($(b,GET /metrics), plus $(b,/health) and \
             $(b,/ready) probes).  $(b,0) picks a free port (printed at \
             startup).")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:
            "Tail-sampled slow-request log: retain the full per-request \
             trace (JSON lines, bounded) for requests slower than \
             --slow-threshold-ms or that failed.")
  in
  let slow_threshold =
    Arg.(
      value & opt float 500.0
      & info [ "slow-threshold-ms" ] ~docv:"MS"
          ~doc:
            "Requests at least $(docv) milliseconds of wall time are \
             retained in --slow-log ($(b,0) retains everything; errors \
             are always retained).")
  in
  let slow_max_records =
    Arg.(
      value & opt int 10_000
      & info [ "slow-max-records" ] ~docv:"N"
          ~doc:
            "Stop writing --slow-log after $(docv) records (further slow \
             requests are counted as dropped, never written).")
  in
  let run socket tcp jobs cache_dir grammars max_tokens time_budget
      max_request metrics_port slow_log slow_threshold slow_max_records
      trace_file trace_format =
    let addr = resolve_addr socket tcp in
    let tracer, close_trace = make_tracer trace_file trace_format in
    let jobs = Exec.Pool.resolve_jobs jobs in
    Exec.Pool.with_pool ~jobs (fun pool ->
        let registry = Serve.Registry.create ?cache_dir () in
        let names =
          match grammars with
          | None -> Serve.Registry.builtin_names
          | Some "none" -> []
          | Some s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun s -> s <> "")
        in
        (match
           Serve.Registry.load_builtins registry ~tracer ~pool ~names ()
         with
        | Ok entries ->
            List.iter
              (fun (e : Serve.Registry.entry) ->
                Fmt.epr "[serve] loaded %s (digest %s%s%s)@."
                  e.Serve.Registry.name
                  (String.sub e.Serve.Registry.digest 0 12)
                  (match e.Serve.Registry.cache with
                  | Some Llstar.Compiled_cache.Hit -> ", cache hit"
                  | Some Llstar.Compiled_cache.Miss -> ", cache miss"
                  | None -> "")
                  (if Option.is_some e.Serve.Registry.generated then
                     ", generated backend"
                   else ""))
              entries
        | Error msg ->
            Fmt.epr "[serve] %s@." msg;
            close_trace ();
            exit 2);
        let limits =
          {
            Serve.Handler.max_request_bytes = max_request;
            max_tokens;
            time_budget_s = time_budget;
          }
        in
        let slow =
          match slow_log with
          | None -> None
          | Some path ->
              let threshold_us =
                int_of_float (Float.max 0.0 (slow_threshold *. 1000.0))
              in
              Some
                (Serve.Slow_log.create ~max_records:slow_max_records
                   ~threshold_us path)
        in
        let handler =
          Serve.Handler.create ~limits ~tracer ?slow_log:slow ~registry
            ~pool ()
        in
        (match slow with
        | Some sl ->
            Fmt.epr "[serve] slow-request log: %s (threshold %gms)@."
              (Option.get slow_log)
              (float_of_int (Serve.Slow_log.threshold_us sl) /. 1000.0)
        | None -> ());
        let mhttp =
          match metrics_port with
          | None -> None
          | Some port -> (
              match Serve.Metrics_http.start ~port handler with
              | Ok m ->
                  Fmt.epr
                    "[serve] metrics on http://127.0.0.1:%d/metrics@."
                    (Serve.Metrics_http.port m);
                  Some m
              | Error msg ->
                  Fmt.epr "[serve] %s@." msg;
                  close_trace ();
                  exit 2)
        in
        let server = Serve.Server.create ~handler ~addr () in
        let stop _ = Serve.Server.stop server in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Fmt.epr "[serve] listening on %s (%s pool, %d job%s)@."
          (Serve.Protocol.addr_to_string addr)
          Exec.Pool.backend jobs
          (if jobs = 1 then "" else "s");
        Serve.Server.run server;
        Option.iter Serve.Metrics_http.stop mhttp;
        Option.iter Serve.Slow_log.close slow;
        Fmt.epr "[serve] drained, exiting@.");
    close_trace ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived parse service: line-JSON requests over a Unix \
          or TCP socket, a registry of compiled grammars (persistent \
          cache backed), parse work on worker domains, an \
          antlrkit-telemetry/2 stats endpoint with latency quantiles, an \
          optional Prometheus HTTP exporter (--metrics-port), and an \
          optional tail-sampled slow-request log (--slow-log).  Shuts \
          down gracefully on SIGTERM/SIGINT or an op=shutdown request, \
          draining in-flight requests first.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ cache_dir_arg $ grammars
      $ max_tokens $ time_budget $ max_request $ metrics_port $ slow_log
      $ slow_threshold $ slow_max_records $ trace_arg $ trace_format_arg)

let client_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:
            "File of newline-separated JSON requests ($(b,-) reads \
             stdin).  Each response is printed on its own line, in \
             request order.")
  in
  let wait =
    Arg.(
      value & opt float 10.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:"Keep retrying the initial connection for up to $(docv) \
                (the daemon may still be compiling grammars).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:
            "Print nothing; the exit status is the answer (CI probes).  \
             Transport errors still go to stderr.")
  in
  (* Exit status is scriptable: 0 all responses ok, 1 transport failure,
     2 at least one structured error response ({"ok":false,...}).  Before
     this distinction existed a health probe had to jq every response. *)
  let run socket tcp file wait quiet =
    let addr = resolve_addr socket tcp in
    let attempts = max 1 (int_of_float (wait /. 0.1)) in
    match Serve.Client.connect_retry ~attempts ~delay_s:0.1 addr with
    | Error msg ->
        Fmt.epr "%s@." msg;
        exit 1
    | Ok c ->
        let ic = if file = "-" then stdin else open_in file in
        let transport_failures = ref 0 in
        let server_errors = ref 0 in
        let response_ok (resp : string) : bool =
          match Obs.Json.parse resp with
          | Ok j -> (
              match Obs.Json.member "ok" j with
              | Some (Obs.Json.Bool b) -> b
              | _ -> false)
          | Error _ -> false
        in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then begin
               match Serve.Client.request_line c line with
               | Ok resp ->
                   if not (response_ok resp) then incr server_errors;
                   if not quiet then print_endline resp
               | Error msg ->
                   Fmt.epr "%s@." msg;
                   incr transport_failures;
                   raise Exit
             end
           done
         with End_of_file | Exit -> ());
        if file <> "-" then close_in ic;
        Serve.Client.close c;
        if !transport_failures > 0 then exit 1;
        if !server_errors > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send line-JSON requests to a running antlrkit serve daemon and \
          print the responses.  Exits 0 when every response was ok, 1 on \
          transport failure, 2 when the daemon answered with a \
          structured error.")
    Term.(const run $ socket_arg $ tcp_arg $ file $ wait $ quiet)

(* --- top: live per-grammar request/latency tables ---------------------- *)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between stats polls.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit ($(b,0) = run until ^C).")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Never clear the screen; print each frame as plain text \
             (CI-friendly; also the default when stdout is not a tty).")
  in
  let run socket tcp interval count raw =
    let module J = Obs.Json in
    let addr = resolve_addr socket tcp in
    let jint = function Some (J.Int i) -> i | _ -> 0 in
    let jfloat = function
      | Some (J.Float f) -> f
      | Some (J.Int i) -> float_of_int i
      | _ -> 0.0
    in
    let jstr = function Some (J.String s) -> s | _ -> "" in
    match Serve.Client.connect_retry ~attempts:100 ~delay_s:0.1 addr with
    | Error msg ->
        Fmt.epr "%s@." msg;
        exit 1
    | Ok c ->
        let clear = (not raw) && Unix.isatty Unix.stdout in
        (* previous frame's per-(grammar,backend) request totals, for RPS
           from counter deltas; the first frame divides by uptime. *)
        let prev : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
        let prev_t = ref nan in
        let frame () : (unit, string) result =
          match Serve.Client.request_line c {|{"op":"stats","id":"top"}|} with
          | Error msg -> Error msg
          | Ok resp -> (
              match J.parse resp with
              | Error msg -> Error ("bad stats response: " ^ msg)
              | Ok j when J.member "ok" j <> Some (J.Bool true) ->
                  Error ("daemon refused stats: " ^ resp)
              | Ok j ->
                  let stats =
                    Option.value (J.member "stats" j) ~default:J.Null
                  in
                  let benches =
                    Option.value (J.member "benches" stats) ~default:J.Null
                  in
                  let wall_s = jfloat (J.member "wall_s" stats) in
                  let pool =
                    Option.value (J.member "pool" benches) ~default:J.Null
                  in
                  (* rows keyed (grammar, backend), built from the metric
                     points of the serve registry snapshot *)
                  let tbl = Hashtbl.create 16 in
                  let row key =
                    match Hashtbl.find_opt tbl key with
                    | Some r -> r
                    | None ->
                        let r = (ref 0, ref 0, ref (0, 0, 0)) in
                        Hashtbl.add tbl key r;
                        r
                  in
                  let points =
                    match J.member "serve" benches with
                    | Some (J.List pts) -> pts
                    | _ -> []
                  in
                  List.iter
                    (fun pt ->
                      let name = jstr (J.member "name" pt) in
                      let labels =
                        Option.value (J.member "labels" pt) ~default:J.Null
                      in
                      let label k = jstr (J.member k labels) in
                      let metric =
                        Option.value (J.member "metric" pt) ~default:J.Null
                      in
                      if name = "serve.requests" && label "op" = "parse" then begin
                        let reqs, errs, _ =
                          row (label "grammar", label "backend")
                        in
                        let n = jint (J.member "value" metric) in
                        reqs := !reqs + n;
                        if label "ok" = "false" then errs := !errs + n
                      end
                      else if name = "serve.request_us" && label "op" = "parse"
                      then begin
                        let _, _, lat = row (label "grammar", label "backend") in
                        lat :=
                          ( jint (J.member "p50_us" metric),
                            jint (J.member "p99_us" metric),
                            jint (J.member "max_us" metric) )
                      end)
                    points;
                  let now = Unix.gettimeofday () in
                  let dt = now -. !prev_t in
                  let rps_of key reqs =
                    if Float.is_nan !prev_t then
                      if wall_s > 0.0 then float_of_int reqs /. wall_s else 0.0
                    else
                      let before =
                        Option.value (Hashtbl.find_opt prev key) ~default:0
                      in
                      if dt > 0.0 then float_of_int (reqs - before) /. dt
                      else 0.0
                  in
                  let rows =
                    Hashtbl.fold
                      (fun key (reqs, errs, lat) acc ->
                        (key, !reqs, !errs, !lat) :: acc)
                      tbl []
                    |> List.sort compare
                  in
                  if clear then Fmt.pr "\027[2J\027[H";
                  let total_reqs =
                    List.fold_left (fun a (_, r, _, _) -> a + r) 0 rows
                  and total_errs =
                    List.fold_left (fun a (_, _, e, _) -> a + e) 0 rows
                  in
                  let total_rps =
                    List.fold_left
                      (fun a (key, r, _, _) -> a +. rps_of key r)
                      0.0 rows
                  in
                  Fmt.pr
                    "[antlrkit top] uptime %.1fs  pool %s x%d (pending %d)  \
                     total %d reqs, %d errors, %.1f rps@."
                    wall_s
                    (jstr (J.member "backend" pool))
                    (jint (J.member "jobs" pool))
                    (jint (J.member "pending" pool))
                    total_reqs total_errs total_rps;
                  Fmt.pr "%-16s %-10s %8s %6s %8s %9s %9s %9s@." "GRAMMAR"
                    "BACKEND" "REQS" "ERR" "RPS" "P50(ms)" "P99(ms)"
                    "MAX(ms)";
                  List.iter
                    (fun (((g, b) as key), reqs, errs, (p50, p99, mx)) ->
                      Fmt.pr "%-16s %-10s %8d %6d %8.1f %9.2f %9.2f %9.2f@."
                        g b reqs errs (rps_of key reqs)
                        (float_of_int p50 /. 1000.0)
                        (float_of_int p99 /. 1000.0)
                        (float_of_int mx /. 1000.0))
                    rows;
                  Fmt.pr "@?";
                  Hashtbl.reset prev;
                  List.iter
                    (fun (key, reqs, _, _) -> Hashtbl.replace prev key reqs)
                    rows;
                  prev_t := now;
                  Ok ())
        in
        let rec loop i =
          if count = 0 || i < count then begin
            (match frame () with
            | Ok () -> ()
            | Error msg ->
                Fmt.epr "%s@." msg;
                Serve.Client.close c;
                exit 1);
            if count = 0 || i + 1 < count then Unix.sleepf interval;
            loop (i + 1)
          end
        in
        loop 0;
        Serve.Client.close c
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running antlrkit serve daemon: per-grammar and \
          per-backend request rates, error counts, and latency quantiles \
          (p50/p99/max) from periodic stats polls.")
    Term.(const run $ socket_arg $ tcp_arg $ interval $ count $ raw)

let () =
  let doc = "LL(*) grammar analysis and parsing (Parr & Fisher, PLDI 2011)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "antlrkit" ~version:"1.0.0" ~doc)
          [
            analyze_cmd;
            dot_cmd;
            atn_cmd;
            parse_cmd;
            gen_cmd;
            fuzz_cmd;
            bench_cmd;
            codegen_cmd;
            serve_cmd;
            client_cmd;
            top_cmd;
          ]))
