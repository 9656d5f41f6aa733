(* Workload machinery for the benchmark grammars: compiles a grammar spec,
   generates synthetic programs from the grammar (the corpus substitute
   described in DESIGN.md), and assembles corpora of a requested size from
   the handwritten samples plus generated programs.

   Generated programs are validated: a program only enters a corpus if the
   LL-star parser accepts it (PEG-mode ordered choice can reject a random
   CFG derivation, e.g. a derivation that used a lower-priority alternative
   on input the first alternative also matches). *)

type spec = {
  name : string;
  grammar_text : string;
  lexer_config : Runtime.Lexer_engine.config;
  samples : string list; (* handwritten programs *)
  sample_lexeme : int -> string -> string;
    (* [sample_lexeme i token_name] renders the i-th occurrence of a token
       class (ID, INT, STRING, ...) during generation *)
  sem_preds : (string * (Runtime.Token.t -> bool)) list;
    (* semantic-predicate implementations, keyed by snippet text *)
  gen_start : string option; (* start rule for generation *)
}

(* Evaluation environment for a spec's semantic predicates. *)
let env_of_spec (spec : spec) : Runtime.Interp.env =
  Runtime.Interp.env_of_tables ~preds:spec.sem_preds ()

type compiled = {
  spec : spec;
  c : Llstar.Compiled.t;
  gen : Grammar.Sentence_gen.t; (* over the surface grammar *)
}

(* Through the one grammar loader, without a cache directory; [pool]
   fans the per-decision analysis out. *)
let compile_result ?pool (spec : spec) :
    (compiled, Llstar.Compiled.error) result =
  match Llstar.Compiled_cache.of_source ?pool spec.grammar_text with
  | Error e -> Error e
  | Ok (c, _) ->
      let surface = c.Llstar.Compiled.surface in
      Ok { spec; c; gen = Grammar.Sentence_gen.prepare surface }

(* Thin wrapper for tests and benches; production callers (the CLI) use
   [compile_result] and surface the error themselves. *)
let compile (spec : spec) : compiled =
  match compile_result spec with
  | Ok cw -> cw
  | Error e ->
      failwith (Fmt.str "%s: %a" spec.name Llstar.Compiled.pp_error e)

let lex (cw : compiled) (text : string) :
    (Runtime.Token.t array, Runtime.Lexer_engine.error) result =
  Runtime.Lexer_engine.tokenize cw.spec.lexer_config
    (Llstar.Compiled.sym cw.c) text

let lex_exn cw text =
  match lex cw text with
  | Ok toks -> toks
  | Error e ->
      failwith
        (Fmt.str "%s: lex error: %a" cw.spec.name Runtime.Lexer_engine.pp_error
           e)

(* Generate one program of roughly [size] tokens. *)
let generate_program (cw : compiled) ~(rng : Random.State.t) ~(size : int) :
    string option =
  let counter = ref 0 in
  match
    Grammar.Sentence_gen.generate ?start:cw.spec.gen_start cw.gen ~rng ~size
  with
  | exception Grammar.Sentence_gen.Unproductive -> None
  | terms ->
      Some
        (Grammar.Sentence_gen.render
           ~sample:(fun name ->
             incr counter;
             cw.spec.sample_lexeme !counter name)
           terms)

let parses (cw : compiled) (toks : Runtime.Token.t array) : bool =
  let env = env_of_spec cw.spec in
  match Runtime.Interp.recognize ~env cw.c toks with
  | Ok () -> true
  | Error _ -> false

(* Build a corpus of at least [target_tokens] tokens: handwritten samples
   first, then validated generated programs.  Returns the corpus text and
   basic statistics. *)
type corpus = {
  texts : string list; (* one entry per program; each parses from the start rule *)
  text : string; (* concatenation, for line counting and lexing benchmarks *)
  lines : int;
  tokens : int;
  programs : int;
  rejected : int; (* generated programs that failed validation *)
}

let build_corpus ?(seed = 42) ?(chunk = 400) (cw : compiled)
    ~(target_tokens : int) : corpus =
  let rng = Random.State.make [| seed |] in
  let texts = ref [] in
  let tokens = ref 0 and programs = ref 0 and rejected = ref 0 in
  let add_program text =
    match lex cw text with
    | Error _ -> incr rejected
    | Ok toks ->
        if parses cw toks then begin
          texts := text :: !texts;
          tokens := !tokens + Array.length toks;
          incr programs
        end
        else incr rejected
  in
  List.iter add_program cw.spec.samples;
  let attempts = ref 0 in
  while !tokens < target_tokens && !attempts < 10_000 do
    incr attempts;
    match generate_program cw ~rng ~size:chunk with
    | Some text -> add_program text
    | None -> incr rejected
  done;
  let texts = List.rev !texts in
  let text = String.concat "\n" texts in
  {
    texts;
    text;
    lines = Llstar.Report.count_lines text;
    tokens = !tokens;
    programs = !programs;
    rejected = !rejected;
  }
