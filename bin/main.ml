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

(* [f] gets the reader and, for a regular file, its byte length. *)
let with_input ?max_bytes path
    (f : ?input_bytes:int -> Runtime.Lexer_engine.reader -> 'a) : 'a =
  match open_in_bin path with
  | exception Sys_error msg ->
      Fmt.epr "error: cannot read input: %s@." msg;
      exit 2
  | ic ->
      let read =
        bounded_reader ?limit:max_bytes path
          (Runtime.Lexer_engine.reader_of_channel ic)
      in
      let input_bytes =
        match Unix.fstat (Unix.descr_of_in_channel ic) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some st_size
        | _ -> None
      in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> f ?input_bytes read)

let grammar_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"GRAMMAR" ~doc:"Grammar file in the ANTLR-like metalanguage.")

(* Every grammar file the CLI reads is compiled by the one grammar loader,
   [Llstar.Compiled_cache.of_source].  With --cache-dir the outcome goes to
   stderr; an error is reported against [path] and exits 2.  [src] is the
   file's text when the caller has already read it. *)
let compile_grammar ?cache_dir ?tracer ?pool ?minimize ?src path =
  let src = match src with Some s -> s | None -> read_file path in
  match
    Llstar.Compiled_cache.of_source ?tracer ?pool ?minimize ?dir:cache_dir src
  with
  | Ok (c, outcome) ->
      if cache_dir <> None then
        Fmt.epr "[cache] %s@."
          (match outcome with
          | Llstar.Compiled_cache.Hit -> "hit"
          | Llstar.Compiled_cache.Miss -> "miss");
      c
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
           Results are identical for any job count; on an OCaml 4.x \
           build this falls back to sequential execution.")

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
  let run grammar verbose minimize cache_dir =
    let c = compile_grammar ?cache_dir ~minimize grammar in
    let report = c.Llstar.Compiled.report in
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
    Term.(const run $ grammar_arg $ verbose $ minimize $ cache_dir_arg)

(* --- dot --------------------------------------------------------------- *)

let dot_cmd =
  let run grammar decision =
    let c = compile_grammar grammar in
    if decision < 0 || decision >= Array.length c.Llstar.Compiled.results
    then begin
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
  (* [--start] must name a rule of the grammar: an unknown one is a usage
     error, reported before any input is read. *)
  let unknown_start c = function
    | Some name when Atn.rule_by_name c.Llstar.Compiled.atn name = None ->
        Some name
    | _ -> None
  in
  (* Single-input mode: one {!Runtime.Drive.run} over the file.  Without
     --tree or --recover it only recognizes, in O(window + speculation
     reach) live memory; a tree keeps its leaves, which are copied
     [Token.t] values, so both flags work at any --window.  A lex error
     anywhere wins over the parse verdict, exactly as tokenize-then-parse
     would report it. *)
  let run_single grammar input config start show_tree profile_flag verbose
      recover cache_dir window max_input_bytes trace_file trace_format =
    let tracer, close_trace = make_tracer trace_file trace_format in
    let quit code =
      close_trace ();
      exit code
    in
    let c = compile_grammar ?cache_dir ~tracer grammar in
    Option.iter
      (fun name ->
        Fmt.epr "no rule '%s'@." name;
        quit 2)
      (unknown_start c start);
    let sym = Llstar.Compiled.sym c in
    let profile = Runtime.Profile.create () in
    let show_profile () =
      if profile_flag then begin
        Fmt.pr "%a@." Runtime.Profile.pp profile;
        if verbose then Fmt.pr "%a" Runtime.Profile.pp_decisions profile
      end
    in
    match
      with_input ?max_bytes:max_input_bytes input (fun ?input_bytes read ->
          Runtime.Drive.run ~window ~recover ~tree:show_tree ?start ~profile
            ~tracer ?input_bytes config Runtime.Drive.Interp c read)
    with
    | exception Input_too_large { path; limit } ->
        Fmt.epr "%s: input exceeds --max-input-bytes (%d)@." path limit;
        quit 1
    | Runtime.Drive.Lex_error e ->
        Fmt.epr "%s: lex error: %a@." input Runtime.Lexer_engine.pp_error e;
        quit 1
    | Runtime.Drive.Token_budget _ -> assert false (* no budget is given *)
    | Runtime.Drive.Parsed { ok = true; produced; tree; _ } ->
        Fmt.pr "parsed %d tokens@." produced;
        Option.iter
          (fun tree -> Fmt.pr "%s@." (Runtime.Tree.to_string sym tree))
          (if show_tree then tree else None);
        show_profile ();
        close_trace ()
    | Runtime.Drive.Parsed { errors; _ } ->
        List.iter
          (fun e -> Fmt.epr "%a@." (Runtime.Parse_error.pp sym) e)
          errors;
        show_profile ();
        quit 1
  in
  (* Batch mode: many inputs (and/or @manifest expansions), optionally
     sharded across a worker pool. *)
  let run_batch grammar inputs config start profile_flag verbose recover
      cache_dir jobs trace_file =
    if trace_file <> None then
      Fmt.epr "warning: --trace is ignored in batch mode@.";
    match Runtime.Batch.load_inputs inputs with
    | Error e ->
        Fmt.epr "error: %s@." e;
        exit 2
    | Ok inputs ->
        Exec.Pool.with_pool ~jobs (fun pool ->
            let c = compile_grammar ?cache_dir ~pool grammar in
            Option.iter
              (fun name ->
                Fmt.epr "no rule '%s'@." name;
                exit 2)
              (unknown_start c start);
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
      cache_dir jobs trace_file trace_format window max_input_bytes =
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
          recover cache_dir window max_input_bytes trace_file trace_format
    | [] -> usage "no input files"
    | inputs ->
        run_batch grammar inputs config start profile_flag verbose recover
          cache_dir jobs trace_file
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
      $ profile $ verbose $ recover $ cache_dir_arg $ jobs_arg
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
      jobs stream_window =
    let jobs = Exec.Pool.resolve_jobs jobs in
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
            ?stream_window ~seed ~runs spec
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
      $ json $ jobs_arg $ stream_window)

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
      | None, Some path ->
          let src = read_file path in
          (compile_grammar ~src path, Some config, Some src, [])
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
            codegen_cmd;
            serve_cmd;
            client_cmd;
          ]))
