(* Runtime support for generated parsers.

   [antlrkit codegen] lowers a compiled grammar to a self-contained OCaml
   module: one recursive function per rule, lookahead decisions compiled to
   nested match/if chains over token ids (or a table-driven walk of the
   frozen lookahead DFA for large decisions), syntactic predicates to
   speculation over {!Token_stream} marks.  A generated parser's state is
   {!Interp.st}, and it speculates, memoizes, tries predicate edges,
   predicts table-plan decisions and raises errors with {!Interp}'s code,
   so the semantics stay in one place ({!Interp} is also the differential
   oracle; see DESIGN.md, "Code generation").  What is left here is
   specific to emitted code: the stuck-loop guard of rules with many
   decisions, the emitted-dispatch errors, and the outcome contract the
   oracle compares. *)

type st = Interp.st

(* A decision produced an alternative outside the emitted dispatch range:
   impossible unless the generated module and its DFAs disagree. *)
let bad_alt ~decision (alt : int) : 'a =
  invalid_arg
    (Printf.sprintf "generated parser: decision %d produced alternative %d"
       decision alt)

let unknown_synpred (rule : int) : 'a =
  invalid_arg
    (Printf.sprintf "generated parser: no synpred function for rule %d" rule)

(* Progress guard for rules with more than 62 decisions (smaller rules
   keep a bitmask inline): if the same decision fires twice at the same
   input position within one rule invocation, force its exit alternative
   (or fail).  [last_pos]/[seen] are per-invocation refs owned by the
   emitted rule body. *)
let stuck (st : st) (last_pos : int ref) (seen : int list ref) ~(d : int) :
    bool =
  let pos = Token_stream.index st.Interp.ts in
  if pos <> !last_pos then begin
    last_pos := pos;
    seen := [ d ];
    false
  end
  else if List.mem d !seen then true
  else begin
    seen := d :: !seen;
    false
  end

(* ------------------------------------------------------------------ *)
(* Entry points and the oracle contract.

   An [outcome] is the observable behaviour the differential oracle
   compares between a generated parser and {!Interp}: acceptance, the
   first parse error (kind and offending token), and how many tokens were
   consumed when the parse stopped. *)

type outcome = {
  ok : bool;
  error : Parse_error.t option; (* [Some] whenever [ok] is false *)
  consumed : int; (* tokens consumed when the parse stopped *)
}

(* Run an entry point against an existing state. *)
let run_st (st : st) ~(start_rule : int) (entry : st -> unit) : outcome =
  let ts = st.Interp.ts in
  match entry st with
  | () ->
      let error = Interp.extraneous st ~rule:start_rule in
      { ok = Option.is_none error; error; consumed = Token_stream.index ts }
  | exception Parse_error.Error e ->
      { ok = false; error = Some e; consumed = Token_stream.index ts }

(* Run an emitted parser over a stream: a pinned array
   ({!Token_stream.of_array}) or a window fed by the chunked lexer
   ({!Token_stream.of_pull}), through the same inlined fast path (a bounds
   check against the filled prefix, with an out-of-line [Ts.la_far]
   continuation that pulls more input).  [consumed] is an absolute token
   index, so outcomes compare [agree]-equal at any window size. *)
let run_recognizer ?env ?profile ~(memoize : bool) ~(start_rule : int)
    (entry : st -> unit) (ts : Token_stream.t) : outcome =
  run_st (Interp.new_st ?env ?profile ~memoize ts) ~start_rule entry

(* The interpreter's view of the same observables, for cross-checking.
   [?tracer] flows into the interpreter so per-request trace capture (the
   serve layer's slow-request sampling) sees decision/speculation events;
   generated parsers have no tracer hook, so their captures carry lexer
   and handler events only. *)
let interp_outcome_stream ?env ?profile ?tracer ?start
    (c : Llstar.Compiled.t) (ts : Token_stream.t) : outcome =
  let t = Interp.create ?env ?profile ?tracer c ts in
  let res = Interp.recognize_run t ?start () in
  let consumed = Token_stream.index t.Interp.st.Interp.ts in
  match res with
  | Ok () -> { ok = true; error = None; consumed }
  | Error (e :: _) -> { ok = false; error = Some e; consumed }
  | Error [] -> { ok = false; error = None; consumed }

let interp_outcome ?env ?profile ?tracer ?start (c : Llstar.Compiled.t)
    (toks : Token.t array) : outcome =
  interp_outcome_stream ?env ?profile ?tracer ?start c
    (Token_stream.of_array toks)

(* Structural agreement: same verdict, same consumed count, and on failure
   the same error kind at the same token index. *)
let agree (a : outcome) (b : outcome) : bool =
  a.ok = b.ok && a.consumed = b.consumed
  &&
  match (a.error, b.error) with
  | None, None -> true
  | Some ea, Some eb ->
      ea.Parse_error.kind = eb.Parse_error.kind
      && ea.Parse_error.token.Token.index = eb.Parse_error.token.Token.index
  | None, Some _ | Some _, None -> false

let describe (o : outcome) : string =
  match o.error with
  | None -> Printf.sprintf "accept (consumed %d)" o.consumed
  | Some e ->
      Printf.sprintf "reject %s@tok%d (consumed %d)"
        (Parse_error.kind_label e)
        e.Parse_error.token.Token.index o.consumed

(* Interface every generated (or closure-compiled) parser module
   implements; the registry in [lib/gen] and the CLI drivers work through
   it. *)
module type PARSER = sig
  val grammar_name : string
  val start_rule_name : string

  val token_names : string array
  (** Vocabulary in interned order (0 = EOF, 1 = wildcard): index is the
      token id the parser's match arms test against. *)

  val rule_names : string array

  val outcome :
    ?env:Interp.env -> ?profile:Profile.t -> Token.t array -> outcome

  val outcome_stream :
    ?env:Interp.env -> ?profile:Profile.t -> Token_stream.t -> outcome
  (** Run over a stream (typically a [Token_stream.of_pull] window fed by
      the chunked lexer) in O(window) live memory; same observables as
      {!outcome} on the same token sequence. *)
end

(* Reconstruct the vocabulary a generated parser was emitted against from
   its embedded name arrays, so drivers can lex input and print errors
   without the original grammar.  Interning in emission order reproduces
   the exact ids the parser's match arms were compiled with; the check
   guards against a hand-edited vocabulary. *)
let rebuild_sym ~(token_names : string array) ~(rule_names : string array) :
    Grammar.Sym.t =
  let sym = Grammar.Sym.create () in
  Array.iteri
    (fun i name ->
      if i >= 2 then begin
        let id = Grammar.Sym.intern_term sym name in
        if id <> i then
          invalid_arg
            (Printf.sprintf
               "generated parser: token %S interned as %d, expected %d" name
               id i)
      end)
    token_names;
  Array.iter
    (fun name -> ignore (Grammar.Sym.intern_nonterm sym name))
    rule_names;
  Grammar.Sym.freeze sym;
  sym
