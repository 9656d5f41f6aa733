(* Runtime support for generated parsers.

   [antlrkit codegen] lowers a compiled grammar to a self-contained OCaml
   module: one recursive function per rule, lookahead decisions compiled to
   nested match/if chains over token ids (or a table-driven walk of the
   frozen lookahead DFA for large decisions), syntactic predicates to
   boolean speculation functions over {!Token_stream} marks.  Everything a
   generated module cannot inline -- speculation bookkeeping, the
   memoize-while-speculating cache, error construction, the stuck-loop
   guard, profiling -- lives here, so emitted code stays small and the
   semantics stay in one place, byte-for-byte aligned with {!Interp} (the
   differential oracle; see DESIGN.md, "Code generation").

   The invariants mirrored from the interpreter:

   - errors raised while speculating become {!Spec_fail}, never user-visible
     parse errors;
   - a prediction failure reports the token that killed the DFA, [depth+1]
     tokens ahead (paper section 4.4);
   - rule results are memoized only while speculating (section 6.2), keyed
     by (rule, position, precedence);
   - speculation rewinds the stream but keeps the high-water mark, so
     profiled lookahead depths include speculative reach. *)

type st = {
  ts : Token_stream.t;
  env : Interp.env;
  profile : Profile.t option;
  memo_enabled : bool;
  mutable memo : (int, Interp.memo_entry) Hashtbl.t option;
      (* keyed by packed (rule, prec, pos); created on first speculative
         use so parses that never speculate pay nothing for memoization *)
  mutable speculating : int;
  walk : Interp.walk; (* where [predict_table]'s latest DFA walk stopped *)
}

exception Spec_fail
(* Internal: a speculative parse failed to match.  Never escapes [speculate]. *)

(* A state runs over any stream: a pinned array ({!Token_stream.of_array})
   or a window fed by the chunked lexer ({!Token_stream.of_pull}).
   Emitted parsers handle both through the same inlined fast path (a
   bounds check against the filled prefix, with an out-of-line
   [Ts.la_far] continuation that pulls more input).  The memo table is
   keyed by (rule, precedence, position) only -- NOT by token content --
   so a state belongs to one input: every parse gets a fresh one. *)
let make ?(env = Interp.default_env) ?profile ~(memoize : bool)
    (ts : Token_stream.t) : st =
  {
    ts;
    env;
    profile;
    memo_enabled = memoize;
    memo = None;
    speculating = 0;
    walk = Interp.new_walk ();
  }

(* ------------------------------------------------------------------ *)
(* Errors.  While speculating, every failure is a [Spec_fail]. *)

let error st kind rule =
  if st.speculating > 0 then raise Spec_fail
  else
    raise
      (Parse_error.Error
         Parse_error.{ kind; token = Token_stream.lt st.ts 1; rule })

let mismatched st ~expected ~rule : 'a =
  error st (Parse_error.Mismatched_token { expected }) rule

let failed_pred st ~text ~rule : 'a =
  error st (Parse_error.Failed_predicate { text }) rule

(* [depth] is the DFA walk depth (0-based); the offending token is the one
   that killed the DFA, [depth + 1] tokens ahead. *)
let no_viable st ~decision ~depth ~rule : 'a =
  let tok = Token_stream.lt st.ts (depth + 1) in
  let e =
    Parse_error.
      { kind = No_viable_alt { decision; depth = depth + 1 }; token = tok; rule }
  in
  if st.speculating > 0 then raise Spec_fail else raise (Parse_error.Error e)

(* A loop decision made no progress and has no exit alternative. *)
let stuck_fail st ~decision ~rule : 'a =
  error st (Parse_error.No_viable_alt { decision; depth = 1 }) rule

(* A non-stop state with no outgoing transition: internal error. *)
let dead st ~rule : 'a =
  error st (Parse_error.No_viable_alt { decision = -1; depth = 1 }) rule

(* A decision produced an alternative outside the emitted dispatch range:
   impossible unless the generated module and its DFAs disagree. *)
let bad_alt ~decision (alt : int) : 'a =
  invalid_arg
    (Printf.sprintf "generated parser: decision %d produced alternative %d"
       decision alt)

let unknown_synpred (rule : int) : 'a =
  invalid_arg
    (Printf.sprintf "generated parser: no synpred function for rule %d" rule)

(* ------------------------------------------------------------------ *)
(* Progress guard: if the same decision fires twice at the same input
   position within one rule invocation, force its exit alternative (or
   fail).  [last_pos]/[seen] are per-invocation refs owned by the emitted
   rule body. *)

let stuck st (last_pos : int ref) (seen : int list ref) ~(d : int) : bool =
  let pos = Token_stream.index st.ts in
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
(* Speculation: run a synpred rule body from the current position as a
   recognizer, rewind, and report success plus the lookahead reach. *)

let speculate st (run : unit -> unit) : bool * int =
  let start = Token_stream.mark st.ts in
  let saved_hw = Token_stream.high_water st.ts in
  (* [start - 1]: the speculation has examined nothing yet, so an empty
     synpred fragment reports a reach of 0, not 1 *)
  Token_stream.set_high_water st.ts (start - 1);
  st.speculating <- st.speculating + 1;
  let ok = match run () with () -> true | exception Spec_fail -> false in
  st.speculating <- st.speculating - 1;
  let reach = max 0 (Token_stream.high_water st.ts - start + 1) in
  Token_stream.seek st.ts start;
  Token_stream.release st.ts start;
  Token_stream.set_high_water st.ts
    (max saved_hw (Token_stream.high_water st.ts));
  (ok, reach)

(* Synpred gate on an alternative's left edge (re-evaluated only when the
   surrounding decision did not just select this alternative). *)
let syn_gate st (run : unit -> unit) : bool = fst (speculate st run)

(* Synpred edge inside a decision: records backtracking for the profile. *)
let syn_pred st ~(bt : bool ref) ~(reach : int ref) ~(depth : int)
    (run : unit -> unit) : bool =
  let ok, r = speculate st run in
  bt := true;
  reach := max !reach (depth + r);
  ok

(* Semantic predicate: sees LT(1), the next input token. *)
let sem st (code : string) : bool =
  st.env.Interp.sem_pred code (Token_stream.lt st.ts 1)

(* Embedded action: runs outside speculation (or always, for the
   always-executed kind); sees the most recently consumed token. *)
let action st (code : string) (always : bool) : unit =
  if st.speculating = 0 || always then
    st.env.Interp.action code (Token_stream.prev st.ts)

let record st ~decision ~depth ~backtracked ~spec_depth : unit =
  match st.profile with
  | Some p when st.speculating = 0 ->
      Profile.record p ~decision ~depth ~backtracked ~spec_depth
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Memoization, only while speculating (paper section 6.2). *)

(* The table holds {!Interp}'s memo entries under its key packing, and is
   evicted by its [evict_memo_before]. *)
let memo_table st : (int, Interp.memo_entry) Hashtbl.t =
  match st.memo with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 256 in
      (* Windowed eviction: entries behind the stream's release frontier
         key positions the stream can no longer rewind to, so they can
         never be hit again -- drop them whenever the window slides. *)
      Token_stream.set_release_hook st.ts (Interp.evict_memo_before tbl);
      st.memo <- Some tbl;
      tbl

let memoized st ~(rule : int) ~(prec : int) (body : unit -> unit) : unit =
  if st.memo_enabled && st.speculating > 0 then begin
      let tbl = memo_table st in
      let pos = Token_stream.index st.ts in
      let key = Interp.memo_key ~rule ~prec ~pos in
      match Hashtbl.find_opt tbl key with
      | Some Interp.Failed -> raise Spec_fail
      | Some (Interp.Succeeded stop) ->
          (* valid because speculation builds no tree and runs no actions *)
          Token_stream.seek st.ts stop
      | None -> (
          match body () with
          | () ->
              Hashtbl.replace tbl key
                (Interp.Succeeded (Token_stream.index st.ts))
          | exception Spec_fail ->
              Hashtbl.replace tbl key Interp.Failed;
              raise Spec_fail)
    end
  else body ()

(* ------------------------------------------------------------------ *)
(* Table-driven prediction: the fallback for decisions too large to compile
   to nested matches.  The DFA walk is {!Interp.walk_dfa}, the one every
   backend runs; the predicate edges are tried in order as in
   {!Interp.predict}.  [synpred] dispatches a synpred rule id to the
   generated rule function; it takes the state so callers can pass a
   closed function, and the accept path allocates nothing. *)

let predict_table st (dfa : Llstar.Look_dfa.t) ~(prec : int) ~(rule : int)
    ~(synpred : st -> int -> unit) : int =
  let decision = dfa.Llstar.Look_dfa.decision in
  Interp.walk_dfa ~tracer:Obs.Trace.null st.ts dfa st.walk;
  let state = st.walk.Interp.state and depth = st.walk.Interp.depth in
  let accepted = dfa.Llstar.Look_dfa.accept.(state) in
  if accepted <> 0 then begin
    record st ~decision ~depth ~backtracked:false ~spec_depth:0;
    accepted
  end
  else begin
    let preds = dfa.Llstar.Look_dfa.preds.(state) in
    let chosen = ref 0 and i = ref 0 in
    let backtracked = ref false and spec_reach = ref 0 in
    while !chosen = 0 && !i < Array.length preds do
      let e = preds.(!i) in
      let guard_ok =
        match e.Llstar.Look_dfa.guard with
        | [] -> true
        | g -> List.mem (Token_stream.la st.ts (depth + 1)) g
      in
      (if guard_ok then
         match e.Llstar.Look_dfa.pred with
         | None -> chosen := e.Llstar.Look_dfa.alt
         | Some (Atn.Sem code) -> if sem st code then chosen := e.Llstar.Look_dfa.alt
         | Some (Atn.Prec n) -> if prec <= n then chosen := e.Llstar.Look_dfa.alt
         | Some (Atn.Syn r) ->
             if
               syn_pred st ~bt:backtracked ~reach:spec_reach ~depth (fun () ->
                   synpred st r)
             then chosen := e.Llstar.Look_dfa.alt);
      incr i
    done;
    if !chosen = 0 then no_viable st ~decision ~depth ~rule;
    record st ~decision ~depth ~backtracked:!backtracked
      ~spec_depth:!spec_reach;
    !chosen
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
  match entry st with
  | () ->
      if Token_stream.la st.ts 1 <> Grammar.Sym.eof then
        {
          ok = false;
          error =
            Some
              Parse_error.
                {
                  kind = Extraneous_input;
                  token = Token_stream.lt st.ts 1;
                  rule = start_rule;
                };
          consumed = Token_stream.index st.ts;
        }
      else { ok = true; error = None; consumed = Token_stream.index st.ts }
  | exception Parse_error.Error e ->
      { ok = false; error = Some e; consumed = Token_stream.index st.ts }

(* Run an emitted parser over a stream.  [consumed] is an absolute token
   index, so outcomes compare [agree]-equal at any window size. *)
let run_recognizer ?(env = Interp.default_env) ?profile ~(memoize : bool)
    ~(start_rule : int) (entry : st -> unit) (ts : Token_stream.t) : outcome
    =
  run_st (make ~env ?profile ~memoize ts) ~start_rule entry

(* The interpreter's view of the same observables, for cross-checking.
   [?tracer] flows into the interpreter so per-request trace capture (the
   serve layer's slow-request sampling) sees decision/speculation events;
   generated parsers have no tracer hook, so their captures carry lexer
   and handler events only. *)
let interp_outcome_stream ?env ?profile ?tracer ?start
    (c : Llstar.Compiled.t) (ts : Token_stream.t) : outcome =
  let t = Interp.create ?env ?profile ?tracer c ts in
  let res = Interp.recognize_run t ?start () in
  let consumed = Token_stream.index t.Interp.ts in
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
