(* The adaptive LL-star parser interpreter (paper section 4).

   The parser simulates the ATN, one recursive invocation per rule
   submachine, by running its flat, epsilon-free program ([Atn.Program],
   built once per grammar by [Llstar.Compiled.compile]): each step is a
   match, a rule call, a predicate, an action or a decision, never an
   epsilon edge.  At every decision state it consults the decision's lookahead
   DFA, which gracefully throttles up per input sequence: an accept state
   after one token is plain LL(1); deeper or cyclic DFA paths are arbitrary
   regular lookahead; predicate edges evaluate semantic predicates against
   user state or launch a speculative parse of a [__synpredN] fragment
   (backtracking).

   Speculation follows section 4.1/4.3: syntactic predicates are evaluated
   by parsing the fragment with actions disabled (except for the
   always-executed [{{...}}] kind), the stream is rewound afterwards, and --
   per section 6.2 -- rule invocations are memoized *only while speculating*,
   which keeps the memoization cache far smaller than a packrat parser's
   while still bounding backtracking to linear time.  Generated parsers
   run the same speculation, memoization, predicate-edge and error code
   (the [st] record below); only the rule walk is theirs. *)

type env = {
  sem_pred : string -> Token.t -> bool;
    (* evaluate a semantic predicate's code; the token is LT(1), the next
       input symbol, so predicates like the C grammar's
       [isTypeName(next input symbol)] (section 4.2) can inspect it *)
  action : string -> Token.t option -> unit;
    (* execute an embedded action's code; the token is the most recently
       consumed one, letting symbol-table actions register the identifier
       they follow *)
}

let default_env = { sem_pred = (fun _ _ -> true); action = (fun _ _ -> ()) }

(* Environment whose predicates/actions dispatch by snippet text; unknown
   predicates default to true, unknown actions to no-ops.  The tables are
   interned into hashtables once at construction: dispatch runs on every
   predicate/action event, and the old [List.assoc_opt] walk paid a full
   string comparison per entry on every miss (actions in particular almost
   always miss).  First binding wins, as with [List.assoc_opt]. *)
let env_of_tables ?(preds = []) ?(actions = []) () =
  let tbl_of bindings =
    let tbl = Hashtbl.create (max 8 (2 * List.length bindings)) in
    List.iter
      (fun (code, f) -> Hashtbl.replace tbl code f)
      (List.rev bindings);
    tbl
  in
  let preds = tbl_of preds and actions = tbl_of actions in
  {
    sem_pred =
      (fun code la1 ->
        match Hashtbl.find_opt preds code with Some f -> f la1 | None -> true);
    action =
      (fun code prev ->
        match Hashtbl.find_opt actions code with
        | Some f -> f prev
        | None -> ());
  }

exception Spec_fail
(* Internal: a speculative parse failed to match.  Never escapes
   {!speculate}. *)

(* Where a lookahead-DFA walk stopped ({!walk_dfa}).  Each parser owns one
   and reuses it for every prediction, so a walk allocates nothing. *)
type walk = {
  mutable state : int; (* an accept state, or one with no edge for LA *)
  mutable depth : int; (* tokens of lookahead the walk consumed *)
}

let new_walk () = { state = 0; depth = 0 }

let trace_edge tracer (dfa : Llstar.Look_dfa.t) state term target =
  Obs.Trace.emit tracer
    (Obs.Trace.Dfa_edge
       { decision = dfa.Llstar.Look_dfa.decision; state; term; target })

(* The terminal-edge walk of prediction (Figure 5), the one DFA walk of
   every backend: {!predict} runs it for the interpreter and for
   generated parsers' table-plan decisions.  From
   the start state, follow the edge for each next token until an accept
   state or a state with no edge for the next token.  The first edge comes
   from the start state's dense row ({!Llstar.Look_dfa.with_start_row}),
   later ones from {!Llstar.Look_dfa.target}.  Most predictions stop after
   that first edge, and the row marks an accepting target, so such a walk
   returns after one [la 1] without entering the loop.  Predicate edges
   are the caller's fallback: states resolved purely by predicates have no
   terminal edges, and fragment-end defaults must only fire when
   lookahead runs off the end of a syntactic-predicate fragment.  The
   next token is examined even at a state without terminal edges, so the
   high-water mark (and the profiled depth) is the same on every
   backend. *)
let walk_dfa ~(tracer : Obs.Trace.t) (ts : Token_stream.t)
    (dfa : Llstar.Look_dfa.t) (w : walk) : unit =
  let accept = dfa.Llstar.Look_dfa.accept in
  let start = dfa.Llstar.Look_dfa.start in
  w.state <- start;
  w.depth <- 0;
  if accept.(start) = 0 then begin
    let term = Token_stream.la ts 1 in
    let start_row = dfa.Llstar.Look_dfa.start_row in
    let first =
      if term < Array.length start_row then start_row.(term)
      else Llstar.Look_dfa.target dfa start term
    in
    if first <> -1 then begin
      let tgt = Llstar.Look_dfa.row_target first in
      if Obs.Trace.on tracer then trace_edge tracer dfa start term tgt;
      w.state <- tgt;
      w.depth <- 1;
      (* a negative [first] is an accepting target: the walk is done *)
      if first >= 0 then begin
        let state = ref tgt and depth = ref 1 and stopped = ref false in
        while not !stopped do
          if accept.(!state) <> 0 then stopped := true
          else begin
            let term = Token_stream.la ts (!depth + 1) in
            let tgt = Llstar.Look_dfa.target dfa !state term in
            if tgt < 0 then stopped := true
            else begin
              if Obs.Trace.on tracer then trace_edge tracer dfa !state term tgt;
              state := tgt;
              incr depth
            end
          end
        done;
        w.state <- !state;
        w.depth <- !depth
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* The speculation runtime, shared by both backends: this interpreter and
   every generated parser ({!Generated}, whose state is this record) run
   the code below, so errors, speculation, memoization and predicate
   edges behave the same by construction.

   The hot path -- prediction and rule invocation -- allocates no closure,
   option or tuple per prediction or per rule invocation: loops instead of
   local recursive functions, results through the state's scratch fields,
   and tree nodes only when a tree is built.  A tuple or closure here
   costs more than the DFA walk it serves (most decisions stop after one
   token). *)

type st = {
  ts : Token_stream.t;
  env : env;
  profile : Profile.t option;
  tracer : Obs.Trace.t; (* {!Obs.Trace.null} in a generated parser *)
  rule_name : int -> string; (* for trace events *)
  memoize : bool;
  mutable memo : Memo.t option;
    (* made on the first speculative rule invocation, so a parse that
       never speculates pays nothing for memoization *)
  mutable speculating : int;
  (* Results handed back without allocating a tuple; each is read right
     after the call that sets it, before anything can overwrite it *)
  walk : walk; (* where the latest [walk_dfa] stopped *)
  mutable synpred_reach : int; (* tokens the latest [speculate] saw *)
  mutable pred_reach : int;
    (* furthest speculation of the current predicate-edge chain, -1 if it
       ran no syntactic predicate *)
}

(* The memo table is keyed by (rule, precedence, position) only -- NOT by
   token content -- so a state belongs to one input: every parse gets a
   fresh one. *)
let new_st ?(env = default_env) ?profile ?(tracer = Obs.Trace.null)
    ?(rule_name = string_of_int) ~memoize (ts : Token_stream.t) : st =
  {
    ts;
    env;
    profile;
    tracer;
    rule_name;
    memoize;
    memo = None;
    speculating = 0;
    walk = new_walk ();
    synpred_reach = 0;
    pred_reach = -1;
  }

(* Runs rule [rule] at precedence [prec] as a recognizer over a backend's
   context ['a]: the interpreter passes itself, a generated parser its
   state.  Runners are closed functions, so handing one over allocates
   nothing. *)
type 'a runner = 'a -> int -> int -> unit

(* Structured tracing: every emission is guarded by [tr_on] at the call site
   so the disabled path costs one flag read and never allocates an event. *)
let[@inline] tr_on s = Obs.Trace.on s.tracer
let[@inline] emit s ev = Obs.Trace.emit s.tracer ev

(* Errors.  While speculating, every failure is a [Spec_fail]. *)
let error s kind rule : 'a =
  let e = Parse_error.{ kind; token = Token_stream.lt s.ts 1; rule } in
  if s.speculating > 0 then raise Spec_fail else raise (Parse_error.Error e)

let mismatched s ~expected ~rule : 'a =
  error s (Parse_error.Mismatched_token { expected }) rule

let failed_pred s ~text ~rule : 'a =
  error s (Parse_error.Failed_predicate { text }) rule

(* A loop decision made no progress and has no exit alternative. *)
let stuck_fail s ~decision ~rule : 'a =
  error s (Parse_error.No_viable_alt { decision; depth = 1 }) rule

(* A non-stop state with no outgoing transition: internal error. *)
let dead s ~rule : 'a =
  error s (Parse_error.No_viable_alt { decision = -1; depth = 1 }) rule

(* Prediction failure: report at the token that killed the DFA, [depth]
   (the 0-based walk depth) plus one tokens ahead (section 4.4). *)
let no_viable s ~decision ~depth ~rule : 'a =
  let tok = Token_stream.lt s.ts (depth + 1) in
  let e =
    Parse_error.
      { kind = No_viable_alt { decision; depth = depth + 1 }; token = tok; rule }
  in
  if s.speculating > 0 then raise Spec_fail else raise (Parse_error.Error e)

(* Semantic predicate: sees LT(1), the next input token. *)
let[@inline] sem s code = s.env.sem_pred code (Token_stream.lt s.ts 1)

(* Embedded action: runs outside speculation (or always, for the
   always-executed kind); sees the most recently consumed token. *)
let[@inline] action s code always =
  if s.speculating = 0 || always then s.env.action code (Token_stream.prev s.ts)

(* Profile a prediction whose DFA walk took [depth] tokens; [reach] is
   the furthest speculation of its predicate edges, -1 if none ran. *)
let[@inline] record s ~decision ~depth ~reach =
  match s.profile with
  | Some p when s.speculating = 0 ->
      Profile.record p ~decision ~depth ~backtracked:(reach >= 0)
        ~spec_depth:(if reach > 0 then reach else 0)
  | _ -> ()

(* The end-of-input check once the start rule has returned. *)
let extraneous s ~rule : Parse_error.t option =
  if Token_stream.la s.ts 1 = Grammar.Sym.eof then None
  else
    Some
      Parse_error.
        { kind = Extraneous_input; token = Token_stream.lt s.ts 1; rule }

(* Speculation: run the synpred fragment [rule] as a recognizer from the
   current position, then rewind.  Returns success; [s.synpred_reach] is
   the number of tokens of lookahead the speculation consumed.  The
   high-water mark survives the rewind, so profiled lookahead depths
   include speculative reach.  The rewind to [start] is the stream's only
   backward seek, so an outermost speculation kills every memo entry
   keyed below [start]. *)
let speculate s (run : 'a runner) (ctx : 'a) (rule : int) : bool =
  let start = Token_stream.mark s.ts in
  (match s.memo with
  | Some m when s.speculating = 0 -> Memo.forget_before m start
  | _ -> ());
  if tr_on s then
    emit s (Obs.Trace.Synpred_enter { rule = s.rule_name rule; pos = start });
  let saved_hw = Token_stream.high_water s.ts in
  (* [start - 1]: the speculation has examined nothing yet, so an empty
     synpred fragment reports a reach of 0, not 1 *)
  Token_stream.set_high_water s.ts (start - 1);
  s.speculating <- s.speculating + 1;
  let ok = match run ctx rule 0 with () -> true | exception Spec_fail -> false in
  s.speculating <- s.speculating - 1;
  let reach = max 0 (Token_stream.high_water s.ts - start + 1) in
  Token_stream.seek s.ts start;
  Token_stream.release s.ts start;
  Token_stream.set_high_water s.ts (max saved_hw (Token_stream.high_water s.ts));
  if tr_on s then
    emit s
      (Obs.Trace.Synpred_exit
         { rule = s.rule_name rule; ok; reach; pos = start });
  s.synpred_reach <- reach;
  ok

(* A syntactic-predicate edge of a decision whose DFA walk stopped
   [depth] tokens in: speculate and fold the reach into [s.pred_reach],
   which the caller reset to -1 before the first edge. *)
let synpred_edge s ~depth (run : 'a runner) (ctx : 'a) (rule : int) : bool =
  let before = s.pred_reach in
  let ok = speculate s run ctx rule in
  let reach = depth + s.synpred_reach in
  s.pred_reach <- (if reach > before then reach else before);
  ok

(* Memoization, only while speculating (section 6.2): callers test
   [s.speculating > 0] first.  [run] is the rule body without this
   wrapper. *)
let memo_rule s (run : 'a runner) (ctx : 'a) (rule : int) (prec : int) : unit
    =
  let memo =
    match s.memo with
    | Some m -> m
    | None ->
        let m = Memo.create () in
        s.memo <- Some m;
        m
  in
  let pos = Token_stream.index s.ts in
  let key = Memo.key ~rule ~prec ~pos in
  let stop = Memo.find memo key in
  if stop <> Memo.absent then begin
    if tr_on s then
      emit s (Obs.Trace.Memo_hit { rule = s.rule_name rule; pos });
    if stop = Memo.failed then raise Spec_fail;
    (* Valid because speculation builds no tree and runs no actions. *)
    Token_stream.seek s.ts stop
  end
  else begin
    if tr_on s then
      emit s (Obs.Trace.Memo_miss { rule = s.rule_name rule; pos });
    match run ctx rule prec with
    | () -> Memo.add memo key (Token_stream.index s.ts)
    | exception Spec_fail ->
        Memo.add memo key Memo.failed;
        raise Spec_fail
  end

(* Ordered predicate edges of the DFA state [state] where the walk
   stopped.  An edge applies when its lookahead guard (if any) admits the
   next token and its predicate (if any) holds; an edge with neither is
   the gated default.  [run] runs synpred fragments. *)
let try_preds s (dfa : Llstar.Look_dfa.t) state ~depth ~prec ~rule
    (run : 'a runner) (ctx : 'a) : int =
  let decision = dfa.Llstar.Look_dfa.decision in
  let preds = dfa.Llstar.Look_dfa.preds.(state) in
  let chosen = ref 0 and i = ref 0 in
  s.pred_reach <- -1;
  while !chosen = 0 && !i < Array.length preds do
    let e = preds.(!i) in
    let guard_ok =
      match e.Llstar.Look_dfa.guard with
      | [] -> true
      | g -> List.mem (Token_stream.la s.ts (depth + 1)) g
    in
    (if guard_ok then
       match e.Llstar.Look_dfa.pred with
       | None -> chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Sem code) -> if sem s code then chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Prec n) -> if prec <= n then chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Syn synrule) ->
           let holds = synpred_edge s ~depth run ctx synrule in
           if tr_on s then emit s (Obs.Trace.Backtrack { decision; depth });
           if holds then chosen := e.Llstar.Look_dfa.alt);
    incr i
  done;
  if !chosen = 0 then no_viable s ~decision ~depth ~rule;
  !chosen

(* Prediction (Figure 5): walk the decision's lookahead DFA from the
   current position, fall back to its predicate edges, and record the
   prediction in the profile.  [rule] is the rule making the decision. *)
let predict_walk s (dfa : Llstar.Look_dfa.t) ~prec ~rule run ctx : int =
  walk_dfa ~tracer:s.tracer s.ts dfa s.walk;
  let state = s.walk.state and depth = s.walk.depth in
  let accepted = dfa.Llstar.Look_dfa.accept.(state) in
  let alt =
    if accepted <> 0 then begin
      s.pred_reach <- -1;
      accepted
    end
    else try_preds s dfa state ~depth ~prec ~rule run ctx
  in
  if tr_on s then
    emit s
      (Obs.Trace.Decision_exit
         {
           decision = dfa.Llstar.Look_dfa.decision;
           alt;
           k = depth;
           pos = Token_stream.index s.ts;
         });
  record s ~decision:dfa.Llstar.Look_dfa.decision ~depth ~reach:s.pred_reach;
  alt

let[@inline] predict s (dfa : Llstar.Look_dfa.t) ~prec ~rule
    (run : 'a runner) (ctx : 'a) : int =
  if not (tr_on s) then predict_walk s dfa ~prec ~rule run ctx
  else begin
    let decision = dfa.Llstar.Look_dfa.decision in
    emit s
      (Obs.Trace.Decision_enter
         { decision; rule = s.rule_name rule; pos = Token_stream.index s.ts });
    match predict_walk s dfa ~prec ~rule run ctx with
    | alt -> alt
    | exception e ->
        (* keep the decision span balanced on the no-viable-alternative
           path; alt 0 marks a failed prediction *)
        emit s
          (Obs.Trace.Decision_exit
             { decision; alt = 0; k = 0; pos = Token_stream.index s.ts });
        raise e
  end

(* ------------------------------------------------------------------ *)
(* The interpreter *)

type t = {
  c : Llstar.Compiled.t;
  st : st;
  recover : bool;
  mutable errors : Parse_error.t list;
  (* length of [errors], maintained incrementally: the recovery loop tests
     the cap once per recorded error, and [List.length] there made error
     processing quadratic in the error count *)
  mutable n_errors : int;
  (* token index of the last recorded error; min_int before the first *)
  mutable last_error_index : int;
  max_errors : int;
  (* lazily computed panic-mode sync sets: rule -> terminals that can
     follow, as a bitset over the token-type universe; the table itself is
     made on the first recovery, since most parses never recover *)
  mutable follow_cache : (int, Bitset.t) Hashtbl.t option;
  (* FIRST/nullability over the prepared grammar's BNF skeleton, computed on
     the first recovery and reused for every sync set, paired with the
     ff-terminal-id -> token-type translation (-1: not a lexed token) *)
  mutable ff : (Grammar.First_follow.t * int array) option;
}

let atn t = t.c.Llstar.Compiled.atn

(* Progress guard membership, for the rare second and later decisions at
   one input position. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: tl -> x = y || mem_int x tl

(* Rule invocation: simulate the rule's submachine.  Returns the rule's
   tree node when [building] (none for a synpred fragment), else [].
   While speculating, invocations are memoized (section 6.2). *)
let rec parse_rule t (rule : int) ~prec ~building : Tree.t list =
  let s = t.st in
  if s.memoize && s.speculating > 0 then begin
    memo_rule s body_runner t rule prec;
    []
  end
  else run_rule t rule ~prec ~building

(* The runners: a synpred fragment goes through [parse_rule], so its
   invocations are memoized; a memoized invocation runs the body. *)
and synpred_runner t rule prec = ignore (parse_rule t rule ~prec ~building:false)
and body_runner t rule prec = ignore (run_rule t rule ~prec ~building:false)

and run_rule t rule ~prec ~building : Tree.t list =
  let s = t.st in
  let p = t.c.Llstar.Compiled.program in
  let ops = p.Atn.Program.ops and code = p.Atn.Program.code in
  (* a synpred fragment never contributes a tree node *)
  let building = building && not (Atn.Program.is_synpred p rule) in
  let entry = Atn.Program.entry p rule in
  let children = ref [] in
  let state = ref (Atn.Program.first p rule) in
  let chosen_alt = ref 1 in
  (* Set right after a prediction: the chosen alternative's left-edge
     syntactic predicate is subsumed by the decision that selected it (the
     analysis strips predicates from decisions it can resolve, section
     6.1), so the gate is not re-evaluated.  Every other step clears it;
     the epsilon steps that kept it are not in the program. *)
  let fresh_prediction = ref false in
  (* Progress guard: a loop decision whose body matched no input would
     otherwise re-enter forever (e.g. a nullable body under ambiguity
     resolution).  If the same decision fires twice at the same input
     position, force its exit alternative.  The first decision at a
     position is kept apart from the rest, so the common case allocates
     nothing. *)
  let last_pos = ref (-1) and first_here = ref (-1) and more_here = ref [] in
  let running = ref true in
  while !running do
    let cur = !state in
    let i = Atn.Program.stride * cur in
    match ops.(cur) with
    | Atn.Program.Match ->
        fresh_prediction := false;
        let term = code.(i) in
        let tok = Token_stream.lt s.ts 1 in
        let la1 = tok.Token.ttype in
        if la1 = term || (term = Grammar.Sym.wildcard && la1 <> Grammar.Sym.eof)
        then begin
          Token_stream.advance s.ts tok;
          if building then children := Tree.Leaf tok :: !children;
          state := code.(i + 2)
        end
        else mismatched s ~expected:term ~rule
    | Atn.Program.Decide ->
        let d = code.(i) in
        let pos = Token_stream.index s.ts in
        let stuck =
          if pos <> !last_pos then begin
            last_pos := pos;
            first_here := d;
            more_here := [];
            false
          end
          else if d = !first_here || mem_int d !more_here then true
          else begin
            more_here := d :: !more_here;
            false
          end
        in
        let alt =
          if stuck then
            match (atn t).Atn.decisions.(d).Atn.d_exit_alt with
            | Some e -> e
            | None -> stuck_fail s ~decision:d ~rule
          else
            predict s (Llstar.Compiled.dfa t.c d) ~prec ~rule synpred_runner t
        in
        if cur = entry then chosen_alt := alt;
        fresh_prediction := true;
        state := p.Atn.Program.alts.(code.(i + 1) + alt - 1)
    | Atn.Program.Call ->
        fresh_prediction := false;
        let sub = parse_rule t code.(i) ~prec:code.(i + 1) ~building in
        children := List.rev_append sub !children;
        state := code.(i + 2)
    | Atn.Program.Stop -> running := false
    | Atn.Program.Sem ->
        fresh_prediction := false;
        let text = p.Atn.Program.sem.(code.(i)) in
        if sem s text then state := code.(i + 2)
        else failed_pred s ~text ~rule
    | Atn.Program.Prec ->
        fresh_prediction := false;
        let n = code.(i) in
        if prec <= n then state := code.(i + 2)
        else failed_pred s ~text:(Printf.sprintf "p <= %d" n) ~rule
    | Atn.Program.Syn ->
        let was_fresh = !fresh_prediction in
        fresh_prediction := false;
        let synrule = code.(i) in
        if was_fresh || speculate s synpred_runner t synrule then
          state := code.(i + 2)
        else failed_pred s ~text:(Atn.rule_name (atn t) synrule) ~rule
    | Atn.Program.Act ->
        fresh_prediction := false;
        action s (fst (atn t).Atn.actions.(code.(i))) (code.(i + 1) <> 0);
        state := code.(i + 2)
    | Atn.Program.Dead -> dead s ~rule
  done;
  if building then
    [ Tree.Node { rule; alt = !chosen_alt; children = List.rev !children } ]
  else []

(* Evaluate the syntactic predicate [rule] at the current position. *)
let eval_synpred t rule = speculate t.st synpred_runner t rule

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery: sync to a token that can follow the current rule. *)

let first_follow t : Grammar.First_follow.t * int array =
  match t.ff with
  | Some pair -> pair
  | None ->
      let a = atn t in
      let ff =
        Grammar.First_follow.compute (Grammar.Bnf.convert a.Atn.grammar)
      in
      (* Translate interned FIRST/FOLLOW terminal ids to the lexer's token
         types once; sync-set construction then unions bitsets without any
         name lookups.  The grammar-level "." maps to the wildcard token. *)
      let map =
        Array.init (Grammar.First_follow.num_terms ff) (fun i ->
            let name = Grammar.First_follow.term_name ff i in
            if name = "." then Grammar.Sym.wildcard
            else
              match Grammar.Sym.find_term a.Atn.sym name with
              | Some id -> id
              | None -> -1)
      in
      t.ff <- Some (ff, map);
      (ff, map)

let follow_set t (rule : int) : Bitset.t =
  let cache =
    match t.follow_cache with
    | Some cache -> cache
    | None ->
        let cache = Hashtbl.create 16 in
        t.follow_cache <- Some cache;
        cache
  in
  match Hashtbl.find_opt cache rule with
  | Some s -> s
  | None ->
      let a = atn t in
      let ff, term_map = first_follow t in
      let set = Bitset.create (Grammar.Sym.num_terms a.Atn.sym) in
      Bitset.add set Grammar.Sym.eof;
      let add_first_of callee =
        match Grammar.First_follow.nonterm_id ff (Atn.rule_name a callee) with
        | None -> ()
        | Some n ->
            Bitset.iter
              (fun fid ->
                let sid = term_map.(fid) in
                if sid >= 0 then Bitset.add set sid)
              (Grammar.First_follow.first_ids ff n)
      in
      let callee_nullable callee =
        match Grammar.First_follow.nonterm_id ff (Atn.rule_name a callee) with
        | Some n -> Grammar.First_follow.nullable_id ff n
        | None -> false
      in
      (* Terminals that can appear right after the rule in any calling
         context: walk forward from every call site's follow state.  A
         [Rule] edge contributes the callee's FIRST set and, when the
         callee is nullable, continues past it to the state after the
         call; a stop state continues into every caller of its rule
         (transitive FOLLOW). *)
      let seen = Hashtbl.create 32 in
      let rec go s =
        if not (Hashtbl.mem seen s) then begin
          Hashtbl.add seen s ();
          if Atn.is_stop_state a s then begin
            let r = a.Atn.state_rule.(s) in
            List.iter (fun (f, _) -> go f) a.Atn.callers.(r)
          end
          else
            Array.iter
              (fun (edge, tgt) ->
                match edge with
                | Atn.Term term -> Bitset.add set term
                | Atn.Rule { rule = callee; _ } ->
                    add_first_of callee;
                    if callee_nullable callee then go tgt
                | Atn.Eps | Atn.Pred _ | Atn.Act _ -> go tgt)
              a.Atn.trans.(s)
        end
      in
      List.iter (fun (f, _) -> go f) a.Atn.callers.(rule);
      Hashtbl.replace cache rule set;
      set

let recover_to_follow t rule =
  let follow = follow_set t rule in
  (* a wildcard in the sync set means any token can follow the rule *)
  let any = Bitset.mem follow Grammar.Sym.wildcard in
  let s = t.st in
  let skipped = ref 0 in
  let rec skip () =
    let la1 = Token_stream.la s.ts 1 in
    if la1 <> Grammar.Sym.eof && (not any) && not (Bitset.mem follow la1)
    then begin
      ignore (Token_stream.consume s.ts);
      incr skipped;
      skip ()
    end
  in
  skip ();
  if tr_on s then
    emit s
      (Obs.Trace.Error_sync
         {
           rule = s.rule_name rule;
           skipped = !skipped;
           pos = Token_stream.index s.ts;
         })

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* [create] runs the parser over any stream: a pinned array
   ({!Token_stream.of_array}) or a window fed by the chunked lexer
   ({!Token_stream.of_pull}).  The memo table, made on the first
   speculative invocation, drops its entries by the speculation starts
   ({!Memo.forget_before}), not by the window, so both kinds of stream
   keep it equally small. *)
let create ?(env = default_env) ?profile ?(tracer = Obs.Trace.null)
    ?(recover = false) ?(max_errors = 25) (c : Llstar.Compiled.t)
    (ts : Token_stream.t) : t =
  let memoize = (Llstar.Compiled.options c).Grammar.Ast.memoize in
  (* A cache-loaded compilation arrives with every DFA state already
     built: credit them to the cache so the skipped analysis is visible. *)
  (match profile with
  | Some p when Llstar.Compiled.from_cache c ->
      for d = 0 to Llstar.Compiled.num_decisions c - 1 do
        Profile.record_cached_states p ~decision:d
          ~n:(Llstar.Compiled.dfa c d).Llstar.Look_dfa.nstates
      done
  | _ -> ());
  let rule_name = Atn.rule_name c.Llstar.Compiled.atn in
  {
    c;
    st = new_st ~env ?profile ~tracer ~rule_name ~memoize ts;
    recover;
    errors = [];
    n_errors = 0;
    last_error_index = min_int;
    max_errors;
    follow_cache = None;
    ff = None;
  }

let start_rule_id t = function
  | Some name -> (
      match Atn.rule_by_name (atn t) name with
      | Some r -> r
      | None -> invalid_arg (Printf.sprintf "Interp: no rule '%s'" name))
  | None -> (atn t).Atn.start_rule

let record_error t (e : Parse_error.t) =
  t.errors <- e :: t.errors;
  t.n_errors <- t.n_errors + 1;
  t.last_error_index <- e.token.Token.index

(* Parse from [start] (default: the grammar's start rule) and require EOF.
   With [recover=false] the first error aborts; with [recover=true] the
   parser records the error, resynchronizes, and continues, returning
   [Error] with everything it found.

   The retry loop is iterative: with recovery on, a pathological input can
   produce one error per token, and a recursive attempt per error would
   both grow the stack linearly and (before [n_errors]) scan the error
   list per error, turning recovery quadratic. *)
let run (t : t) ?start () : (Tree.t, Parse_error.t list) result =
  let rule = start_rule_id t start in
  let ts = t.st.ts in
  let tree = ref None in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let attempt_start = Token_stream.index ts in
    match parse_rule t rule ~prec:0 ~building:true with
    | [ tr ] ->
        tree := Some tr;
        (match extraneous t.st ~rule with
        | None -> ()
        | Some e ->
            let retry = t.recover && t.n_errors < t.max_errors in
            record_error t e;
            if retry then begin
              ignore (Token_stream.consume ts);
              if Token_stream.la ts 1 <> Grammar.Sym.eof then
                continue_ := true
            end)
    | _ -> tree := None
    | exception Parse_error.Error e ->
        tree := None;
        (* A retry that fails again on the token of the error just
           recorded reports nothing new: step past that token instead of
           resyncing to it (ANTLR's lastErrorIndex rule). *)
        let repeat = e.Parse_error.token.Token.index = t.last_error_index in
        if not repeat then record_error t e;
        if t.recover && t.n_errors < t.max_errors then begin
          if not repeat then recover_to_follow t e.Parse_error.rule;
          (* a retry from where the failed attempt began would fail the
             same way again *)
          if
            (repeat || Token_stream.index ts = attempt_start)
            && Token_stream.la ts 1 <> Grammar.Sym.eof
          then ignore (Token_stream.consume ts);
          if
            Token_stream.la ts 1 <> Grammar.Sym.eof
            && Token_stream.index ts < Token_stream.size ts
          then continue_ := true
        end
  done;
  match !tree with
  | Some tree when t.errors = [] -> Ok tree
  | _ -> Error (List.rev t.errors)

let parse ?env ?profile ?tracer ?recover ?start (c : Llstar.Compiled.t)
    (toks : Token.t array) : (Tree.t, Parse_error.t list) result =
  let t =
    create ?env ?profile ?tracer ?recover c (Token_stream.of_array toks)
  in
  run t ?start ()

(* Recognizer: no tree construction (used by benchmarks). *)
let recognize_run (t : t) ?start () : (unit, Parse_error.t list) result =
  let rule = start_rule_id t start in
  match parse_rule t rule ~prec:0 ~building:false with
  | _ -> (
      match extraneous t.st ~rule with None -> Ok () | Some e -> Error [ e ])
  | exception Parse_error.Error e -> Error [ e ]

let recognize ?env ?profile ?tracer ?start (c : Llstar.Compiled.t)
    (toks : Token.t array) : (unit, Parse_error.t list) result =
  let t = create ?env ?profile ?tracer c (Token_stream.of_array toks) in
  recognize_run t ?start ()

(* Number of (rule, position) results currently memoized; the paper's
   section-6.2 point is that memoizing only while speculating keeps this far
   below a packrat parser's table. *)
let memo_entries t = match t.st.memo with Some m -> Memo.length m | None -> 0
