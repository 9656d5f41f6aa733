(* The adaptive LL-star parser interpreter (paper section 4).

   The parser walks the ATN directly: one recursive invocation per rule
   submachine.  At every decision state it consults the decision's lookahead
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
   while still bounding backtracking to linear time. *)

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
(* Internal: a speculative parse failed to match.  Never escapes. *)

(* Memo entries and key packing, shared with {!Generated}. *)
type memo_entry = Failed | Succeeded of int (* stop index *)

(* Position in bits 0..29, precedence bound in bits 30..44, rule id in
   bits 45..61.  The bounds are far beyond anything a real grammar
   produces (2^30 tokens, prec < 2^15, 2^17 rules); an int key keeps
   speculation-time lookups allocation-free, and -- with the position in
   the low bits -- makes windowed eviction a cheap range test per
   entry. *)
let memo_key ~(rule : int) ~(prec : int) ~(pos : int) : int =
  (((rule lsl 15) lor prec) lsl 30) lor pos

let memo_pos (key : int) : int = key land 0x3FFFFFFF

(* Windowed memo eviction: entries keyed at positions behind the release
   frontier can never be hit again (the stream refuses to rewind there),
   so drop them when the stream's window slides. *)
let evict_memo_before (tbl : (int, memo_entry) Hashtbl.t) (frontier : int) :
    unit =
  Hashtbl.filter_map_inplace
    (fun key v -> if memo_pos key < frontier then None else Some v)
    tbl

(* Where a lookahead-DFA walk stopped ({!walk_dfa}).  Each parser owns one
   and reuses it for every prediction, so a walk allocates nothing. *)
type walk = {
  mutable state : int; (* an accept state, or one with no edge for LA *)
  mutable depth : int; (* tokens of lookahead the walk consumed *)
}

let new_walk () = { state = 0; depth = 0 }

(* The terminal-edge walk of prediction (Figure 5), the one DFA walk of
   every backend: {!predict} here and {!Generated.predict_table}.  From
   the start state, follow the edge for each next token until an accept
   state or a state with no edge for the next token.  The first edge comes
   from the start state's dense row ({!Llstar.Look_dfa.with_start_row}),
   later ones from {!Llstar.Look_dfa.target}.  Predicate edges are the
   caller's fallback: states resolved purely by predicates have no
   terminal edges, and fragment-end defaults must only fire when
   lookahead runs off the end of a syntactic-predicate fragment.  The
   next token is examined even at a state without terminal edges, so the
   high-water mark (and the profiled depth) is the same on every
   backend. *)
let walk_dfa ~(tracer : Obs.Trace.t) (ts : Token_stream.t)
    (dfa : Llstar.Look_dfa.t) (w : walk) : unit =
  let accept = dfa.Llstar.Look_dfa.accept in
  let start_row = dfa.Llstar.Look_dfa.start_row in
  let state = ref dfa.Llstar.Look_dfa.start and depth = ref 0 in
  let stopped = ref false in
  while not !stopped do
    if accept.(!state) <> 0 then stopped := true
    else begin
      let term = Token_stream.la ts (!depth + 1) in
      let tgt =
        if !depth = 0 && term < Array.length start_row then start_row.(term)
        else Llstar.Look_dfa.target dfa !state term
      in
      if tgt < 0 then stopped := true
      else begin
        if Obs.Trace.on tracer then
          Obs.Trace.emit tracer
            (Obs.Trace.Dfa_edge
               {
                 decision = dfa.Llstar.Look_dfa.decision;
                 state = !state;
                 term;
                 target = tgt;
               });
        state := tgt;
        incr depth
      end
    end
  done;
  w.state <- !state;
  w.depth <- !depth

type t = {
  c : Llstar.Compiled.t;
  env : env;
  ts : Token_stream.t;
  profile : Profile.t option;
  tracer : Obs.Trace.t;
  memo : (int, memo_entry) Hashtbl.t option; (* packed (rule, prec, pos) *)
  mutable speculating : int;
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
     follow, as a bitset over the token-type universe *)
  follow_cache : (int, Bitset.t) Hashtbl.t;
  (* FIRST/nullability over the prepared grammar's BNF skeleton, computed on
     the first recovery and reused for every sync set, paired with the
     ff-terminal-id -> token-type translation (-1: not a lexed token) *)
  mutable ff : (Grammar.First_follow.t * int array) option;
  (* Results handed back by the hot path without allocating a tuple; each
     is read right after the call that sets it, before anything can
     overwrite it *)
  walk : walk; (* where the latest [walk_dfa] stopped *)
  mutable synpred_reach : int; (* tokens the latest [eval_synpred] saw *)
  mutable pred_reach : int;
    (* furthest speculation of the latest [try_preds], -1 if it ran no
       syntactic predicate *)
}

let atn t = t.c.Llstar.Compiled.atn

(* Structured tracing: every emission is guarded by [tr_on] at the call site
   so the disabled path costs one flag read and never allocates an event. *)
let tr_on t = Obs.Trace.on t.tracer
let emit t ev = Obs.Trace.emit t.tracer ev

let error t kind rule =
  let tok = Token_stream.lt t.ts 1 in
  let e = Parse_error.{ kind; token = tok; rule } in
  if t.speculating > 0 then raise Spec_fail else raise (Parse_error.Error e)

(* Offending-token error for prediction: report at the token that killed the
   DFA, [depth] tokens ahead (section 4.4). *)
let prediction_error t ~decision ~depth rule =
  let tok = Token_stream.lt t.ts (depth + 1) in
  let e =
    Parse_error.
      { kind = No_viable_alt { decision; depth = depth + 1 }; token = tok; rule }
  in
  if t.speculating > 0 then raise Spec_fail else raise (Parse_error.Error e)

(* Progress guard membership, for the rare second and later decisions at
   one input position. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: tl -> x = y || mem_int x tl

(* ------------------------------------------------------------------ *)
(* The hot path -- prediction and rule invocation -- allocates no closure,
   option or tuple per prediction or per rule invocation: loops instead of
   local recursive functions, results through [t]'s scratch fields, and
   tree nodes only when a tree is built.  A tuple or closure here costs
   more than the DFA walk it serves (most decisions stop after one
   token). *)

(* Speculation: evaluate a syntactic predicate by simulating its pseudo-rule
   as a recognizer from the current position, then rewinding.  Returns
   success; [t.synpred_reach] is the number of tokens of lookahead the
   speculation consumed (for profiling). *)

let rec eval_synpred t (rule : int) : bool =
  let start = Token_stream.mark t.ts in
  if tr_on t then
    emit t
      (Obs.Trace.Synpred_enter { rule = Atn.rule_name (atn t) rule; pos = start });
  let saved_hw = Token_stream.high_water t.ts in
  (* [start - 1]: the speculation has examined nothing yet, so an empty
     synpred fragment reports a reach of 0, not 1 *)
  Token_stream.set_high_water t.ts (start - 1);
  t.speculating <- t.speculating + 1;
  let ok =
    match parse_rule t rule ~prec:0 ~building:false with
    | _ -> true
    | exception Spec_fail -> false
  in
  t.speculating <- t.speculating - 1;
  let reach = max 0 (Token_stream.high_water t.ts - start + 1) in
  Token_stream.seek t.ts start;
  Token_stream.release t.ts start;
  Token_stream.set_high_water t.ts (max saved_hw (Token_stream.high_water t.ts));
  if tr_on t then
    emit t
      (Obs.Trace.Synpred_exit
         { rule = Atn.rule_name (atn t) rule; ok; reach; pos = start });
  t.synpred_reach <- reach;
  ok

(* ------------------------------------------------------------------ *)
(* Prediction (Figure 5): run the decision's lookahead DFA over the input
   from the current position. *)

and predict t (decision : int) ~prec ~rule : int =
  if tr_on t then
    emit t
      (Obs.Trace.Decision_enter
         {
           decision;
           rule = Atn.rule_name (atn t) rule;
           pos = Token_stream.index t.ts;
         });
  match predict_walk t decision ~prec ~rule with
  | alt -> alt
  | exception e ->
      (* keep the decision span balanced on the no-viable-alternative path;
         alt 0 marks a failed prediction *)
      if tr_on t then
        emit t
          (Obs.Trace.Decision_exit
             { decision; alt = 0; k = 0; pos = Token_stream.index t.ts });
      raise e

and predict_walk t decision ~prec ~rule : int =
  let dfa = Llstar.Compiled.dfa t.c decision in
  walk_dfa ~tracer:t.tracer t.ts dfa t.walk;
  let state = t.walk.state and depth = t.walk.depth in
  let accepted = dfa.Llstar.Look_dfa.accept.(state) in
  let alt =
    if accepted <> 0 then accepted
    else try_preds t dfa state ~decision ~depth ~prec ~rule
  in
  let spec_reach = if accepted <> 0 then -1 else t.pred_reach in
  if tr_on t then
    emit t
      (Obs.Trace.Decision_exit
         { decision; alt; k = depth; pos = Token_stream.index t.ts });
  (match t.profile with
  | Some p when t.speculating = 0 ->
      Profile.record p ~decision ~depth ~backtracked:(spec_reach >= 0)
        ~spec_depth:(max 0 spec_reach)
  | _ -> ());
  alt

(* Ordered predicate edges.  An edge applies when its lookahead guard (if
   any) admits the next token and its predicate (if any) holds; an edge
   with neither is the gated default. *)
and try_preds t dfa state ~decision ~depth ~prec ~rule : int =
  let preds = dfa.Llstar.Look_dfa.preds.(state) in
  let chosen = ref 0 and i = ref 0 and spec_reach = ref (-1) in
  while !chosen = 0 && !i < Array.length preds do
    let e = preds.(!i) in
    let guard_ok =
      match e.Llstar.Look_dfa.guard with
      | [] -> true
      | g -> List.mem (Token_stream.la t.ts (depth + 1)) g
    in
    (if guard_ok then
       match e.Llstar.Look_dfa.pred with
       | None -> chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Sem code) ->
           if t.env.sem_pred code (Token_stream.lt t.ts 1) then
             chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Prec n) -> if prec <= n then chosen := e.Llstar.Look_dfa.alt
       | Some (Atn.Syn synrule) ->
           let holds = eval_synpred t synrule in
           spec_reach := max !spec_reach (depth + t.synpred_reach);
           if tr_on t then emit t (Obs.Trace.Backtrack { decision; depth });
           if holds then chosen := e.Llstar.Look_dfa.alt);
    incr i
  done;
  if !chosen = 0 then prediction_error t ~decision ~depth rule;
  t.pred_reach <- !spec_reach;
  !chosen

(* ------------------------------------------------------------------ *)
(* Rule invocation: simulate the rule's submachine.  Returns the rule's
   tree node when [building] (none for a synpred fragment), else [].
   While speculating, invocations are memoized (section 6.2). *)

and parse_rule t (rule : int) ~prec ~building : Tree.t list =
  match t.memo with
  | Some tbl when t.speculating > 0 -> memo_rule t tbl rule ~prec ~building
  | _ -> run_rule t rule ~prec ~building

and memo_rule t tbl rule ~prec ~building : Tree.t list =
  let pos = Token_stream.index t.ts in
  let key = memo_key ~rule ~prec ~pos in
  match Hashtbl.find tbl key with
  | entry -> (
      if tr_on t then
        emit t (Obs.Trace.Memo_hit { rule = Atn.rule_name (atn t) rule; pos });
      match entry with
      | Failed -> raise Spec_fail
      | Succeeded stop ->
          (* Valid because speculation builds no tree and runs no actions. *)
          Token_stream.seek t.ts stop;
          [])
  | exception Not_found -> (
      if tr_on t then
        emit t (Obs.Trace.Memo_miss { rule = Atn.rule_name (atn t) rule; pos });
      match run_rule t rule ~prec ~building with
      | _ ->
          Hashtbl.replace tbl key (Succeeded (Token_stream.index t.ts));
          []
      | exception Spec_fail ->
          Hashtbl.replace tbl key Failed;
          raise Spec_fail)

and run_rule t rule ~prec ~building : Tree.t list =
  let a = atn t in
  let ri = a.Atn.rules.(rule) in
  (* a synpred fragment never contributes a tree node *)
  let building = building && not ri.Atn.r_is_synpred in
  let children = ref [] in
  let state = ref ri.Atn.r_entry in
  let chosen_alt = ref 1 in
  (* Set right after a prediction: the chosen alternative's left-edge
     syntactic predicate is subsumed by the decision that selected it (the
     analysis strips predicates from decisions it can resolve, section
     6.1), so the gate is not re-evaluated. *)
  let fresh_prediction = ref false in
  (* Progress guard: a loop decision whose body matched no input would
     otherwise re-enter forever (e.g. a nullable body under ambiguity
     resolution).  If the same decision fires twice at the same input
     position, force its exit alternative.  The first decision at a
     position is kept apart from the rest, so the common case allocates
     nothing. *)
  let last_pos = ref (-1) and first_here = ref (-1) and more_here = ref [] in
  while !state <> ri.Atn.r_stop do
    let s = !state in
    let d = Atn.decision_of a s in
    if d >= 0 then begin
      let pos = Token_stream.index t.ts in
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
          match a.Atn.decisions.(d).Atn.d_exit_alt with
          | Some e -> e
          | None ->
              error t (Parse_error.No_viable_alt { decision = d; depth = 1 }) rule
        else predict t d ~prec ~rule
      in
      if s = ri.Atn.r_entry then chosen_alt := alt;
      fresh_prediction := true;
      (* [s] is the decision state: its edges are the alternatives *)
      state := snd a.Atn.trans.(s).(alt - 1)
    end
    else begin
      let row = a.Atn.trans.(s) in
      if Array.length row = 0 then
        (* dead end that is not the stop state: internal error *)
        error t (Parse_error.No_viable_alt { decision = -1; depth = 1 }) rule;
      let edge, tgt = row.(0) in
      let was_fresh = !fresh_prediction in
      fresh_prediction := false;
      match edge with
      | Atn.Eps ->
          fresh_prediction := was_fresh;
          state := tgt
      | Atn.Term term ->
          let la1 = Token_stream.la t.ts 1 in
          if la1 = term || (term = Grammar.Sym.wildcard && la1 <> Grammar.Sym.eof)
          then begin
            let tok = Token_stream.consume t.ts in
            if building then children := Tree.Leaf tok :: !children;
            state := tgt
          end
          else error t (Parse_error.Mismatched_token { expected = term }) rule
      | Atn.Rule { rule = callee; arg } ->
          let callee_prec = Option.value ~default:0 arg in
          let sub = parse_rule t callee ~prec:callee_prec ~building in
          children := List.rev_append sub !children;
          state := tgt
      | Atn.Pred (Atn.Sem code) ->
          if t.env.sem_pred code (Token_stream.lt t.ts 1) then state := tgt
          else error t (Parse_error.Failed_predicate { text = code }) rule
      | Atn.Pred (Atn.Prec n) ->
          if prec <= n then state := tgt
          else
            error t
              (Parse_error.Failed_predicate { text = Printf.sprintf "p <= %d" n })
              rule
      | Atn.Pred (Atn.Syn synrule) ->
          if was_fresh || eval_synpred t synrule then state := tgt
          else
            error t
              (Parse_error.Failed_predicate { text = Atn.rule_name a synrule })
              rule
      | Atn.Act { id; always } ->
          let code, _ = a.Atn.actions.(id) in
          if t.speculating = 0 || always then
            t.env.action code (Token_stream.prev t.ts);
          state := tgt
    end
  done;
  if building then
    [ Tree.Node { rule; alt = !chosen_alt; children = List.rev !children } ]
  else []

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
  match Hashtbl.find_opt t.follow_cache rule with
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
      Hashtbl.replace t.follow_cache rule set;
      set

let recover_to_follow t rule =
  let follow = follow_set t rule in
  (* a wildcard in the sync set means any token can follow the rule *)
  let any = Bitset.mem follow Grammar.Sym.wildcard in
  let skipped = ref 0 in
  let rec skip () =
    let la1 = Token_stream.la t.ts 1 in
    if la1 <> Grammar.Sym.eof && (not any) && not (Bitset.mem follow la1)
    then begin
      ignore (Token_stream.consume t.ts);
      incr skipped;
      skip ()
    end
  in
  skip ();
  if tr_on t then
    emit t
      (Obs.Trace.Error_sync
         {
           rule = Atn.rule_name (atn t) rule;
           skipped = !skipped;
           pos = Token_stream.index t.ts;
         })

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* [create] runs the parser over any stream: a pinned array
   ({!Token_stream.of_array}) or a window fed by the chunked lexer
   ({!Token_stream.of_pull}).  The memo table subscribes to the stream's
   release hook so entries behind the frontier are evicted as the window
   slides -- they can never be hit again, because the stream refuses to
   rewind past the frontier.  A window that never slides never fires the
   hook. *)
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
  let memo = if memoize then Some (Hashtbl.create 1024) else None in
  Option.iter
    (fun tbl -> Token_stream.set_release_hook ts (evict_memo_before tbl))
    memo;
  {
    c;
    env;
    ts;
    profile;
    tracer;
    memo;
    speculating = 0;
    recover;
    errors = [];
    n_errors = 0;
    last_error_index = min_int;
    max_errors;
    follow_cache = Hashtbl.create 16;
    ff = None;
    walk = new_walk ();
    synpred_reach = 0;
    pred_reach = -1;
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
  let tree = ref None in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let attempt_start = Token_stream.index t.ts in
    match parse_rule t rule ~prec:0 ~building:true with
    | [ tr ] ->
        tree := Some tr;
        if Token_stream.la t.ts 1 <> Grammar.Sym.eof then begin
          let tok = Token_stream.lt t.ts 1 in
          let e =
            Parse_error.{ kind = Extraneous_input; token = tok; rule }
          in
          let retry = t.recover && t.n_errors < t.max_errors in
          record_error t e;
          if retry then begin
            ignore (Token_stream.consume t.ts);
            if Token_stream.la t.ts 1 <> Grammar.Sym.eof then
              continue_ := true
          end
        end
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
            (repeat || Token_stream.index t.ts = attempt_start)
            && Token_stream.la t.ts 1 <> Grammar.Sym.eof
          then ignore (Token_stream.consume t.ts);
          if
            Token_stream.la t.ts 1 <> Grammar.Sym.eof
            && Token_stream.index t.ts < Token_stream.size t.ts
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
  | _ ->
      if Token_stream.la t.ts 1 <> Grammar.Sym.eof then
        Error
          [
            Parse_error.
              {
                kind = Extraneous_input;
                token = Token_stream.lt t.ts 1;
                rule;
              };
          ]
      else Ok ()
  | exception Parse_error.Error e -> Error [ e ]

let recognize ?env ?profile ?tracer ?start (c : Llstar.Compiled.t)
    (toks : Token.t array) : (unit, Parse_error.t list) result =
  let t = create ?env ?profile ?tracer c (Token_stream.of_array toks) in
  recognize_run t ?start ()

(* Number of (rule, position) results currently memoized; the paper's
   section-6.2 point is that memoizing only while speculating keeps this far
   below a packrat parser's table. *)
let memo_entries t = match t.memo with Some tbl -> Hashtbl.length tbl | None -> 0
