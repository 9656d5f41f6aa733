(* OCaml emitter: codegen IR -> self-contained parser module source.

   The emitted module is a recognizer with one function per rule and one
   top-level function per reachable ATN state, all in a single [let rec]
   chain.  State functions take their context (parser state, stream,
   precedence bound, stuck-guard refs) as arguments instead of closing
   over it, so walking a rule allocates nothing beyond the stuck-guard
   refs of rules that actually contain decisions -- the nested-closure
   formulation costs a closure block per rule invocation, which is
   exactly the interpretive overhead this backend exists to remove.
   Lookahead decisions become nested match/if chains over token ids
   ([Inline] plan) or an embedded frozen DFA predicted by
   {!Runtime.Interp.predict} ([Table] plan); syntactic predicates run
   through {!Runtime.Interp.speculate}, which calls back into the one
   emitted [synpred] dispatcher.  Speculation, memoization and errors are
   {!Runtime.Interp}'s code, reached without building a closure.

   Emission is deterministic: the output depends only on the IR (no
   timestamps, no hash iteration order), which the CI hygiene check
   enforces by emitting twice and byte-comparing.

   NOTE: this file is covered by the same no-wildcard-match hygiene rule
   as [Ir]: every variant match is exhaustive, so adding an IR node kind
   without a rendering fails to compile. *)

let spf = Printf.sprintf

(* Names.  Everything is keyed by numeric id -- rule and token spellings
   go into comments and metadata arrays, not identifiers, so arbitrary
   grammar names can never produce invalid OCaml. *)
let rule_fn r = spf "rule_%d" r
let body_fn r = spf "body_%d" r
let decide_fn d = spf "decide_%d" d
let dfa_val d = spf "dfa_%d" d
let atn_state_fn ~rule s = spf "r%d_s%d" rule s
let dfa_state_fn ~decision q = spf "d%d_q%d" decision q

type buf = { b : Buffer.t }

let line ?(indent = 0) t fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string t.b (String.make (2 * indent) ' ');
      Buffer.add_string t.b s;
      Buffer.add_char t.b '\n')
    fmt

let blank t = Buffer.add_char t.b '\n'

let rule_decisions (r : Ir.rule_ir) : int list =
  Array.to_list r.Ir.ru_states
  |> List.filter_map (fun ((_ : int), n) ->
         match n with
         | Ir.Decide { decision; _ } -> Some decision
         | Ir.Stop | Ir.Dead | Ir.Match_term _ | Ir.Call _ | Ir.Check_sem _
         | Ir.Check_prec _ | Ir.Check_syn _ | Ir.Do_action _ ->
             None)
  |> List.sort_uniq compare

(* Stuck-guard strategy for a rule's decisions: the set of decisions
   already fired at this input position.  Rules with at most 62 distinct
   decisions keep it as a bitmask (one bit per decision, pure int
   arithmetic, no allocation), larger ones as an int list
   ({!Runtime.Generated.stuck}).  The observable behavior -- when the exit
   alternative is forced -- is the interpreter's. *)
type guard_mode =
  | No_decide
  | Mask of (int * int) list (* decision id -> bit *)
  | List_guard

let guard_mode (r : Ir.rule_ir) : guard_mode =
  match rule_decisions r with
  | [] -> No_decide
  | ds ->
      if List.length ds <= 62 then
        Mask (List.mapi (fun i d -> (d, 1 lsl i)) ds)
      else List_guard

let is_synpred_edge (e : Llstar.Look_dfa.pred_edge) : bool =
  match e.Llstar.Look_dfa.pred with
  | Some (Atn.Syn _) -> true
  | Some (Atn.Sem _) | Some (Atn.Prec _) | None -> false

(* ------------------------------------------------------------------ *)
(* Inline decision compilation: one top-level function per DFA state,
   each taking the current lookahead depth [k]. *)

(* Group terminal edges by target, preserving first-occurrence order, so
   tokens leading to the same DFA state share one match arm. *)
let group_edges (row : (int * int) array) : (int * int list) list =
  let order : int list ref = ref [] in
  let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (term, tgt) ->
      match Hashtbl.find_opt tbl tgt with
      | Some terms -> terms := term :: !terms
      | None ->
          order := tgt :: !order;
          Hashtbl.add tbl tgt (ref [ term ]))
    row;
  List.rev_map (fun tgt -> (tgt, List.rev !(Hashtbl.find tbl tgt))) !order

(* The condition of one ordered predicate edge, as an expression string.
   [None] means the edge matches unconditionally (a gated default with no
   lookahead guard), which makes later edges unreachable. *)
let pred_edge_condition (e : Llstar.Look_dfa.pred_edge) : string option =
  let guard =
    match e.Llstar.Look_dfa.guard with
    | [] -> None
    | terms ->
        Some
          (spf "(let t = la ts (k + 1) in %s)"
             (String.concat " || " (List.map (spf "t = %d") terms)))
  in
  let pred =
    match e.Llstar.Look_dfa.pred with
    | None -> None
    | Some (Atn.Sem code) -> Some (spf "Rt.sem st %S" code)
    | Some (Atn.Prec n) -> Some (spf "prec <= %d" n)
    | Some (Atn.Syn r) -> Some (spf "Rt.synpred_edge st ~depth:k synpred st %d" r)
  in
  match (guard, pred) with
  | None, None -> None
  | Some g, None -> Some g
  | None, Some p -> Some p
  | Some g, Some p -> Some (spf "%s && %s" g p)

let emit_inline_decision t (ir : Ir.t) (d : Ir.decision_ir) =
  let dfa = d.Ir.de_dfa in
  let id = d.Ir.de_id in
  (* context threaded through every DFA-state function *)
  let params = "(st : Rt.st) ~(prec : int) (ts : Ts.t)" in
  let args = "st ~prec ts" in
  line t ~indent:0 "(* decision d%d in rule %s: %d DFA state%s%s *)" id
    (Grammar.Sym.nonterm_name ir.Ir.sym d.Ir.de_rule)
    dfa.Llstar.Look_dfa.nstates
    (if dfa.Llstar.Look_dfa.nstates = 1 then "" else "s")
    (if dfa.Llstar.Look_dfa.cyclic then ", cyclic" else "");
  line t ~indent:0 "and %s (st : Rt.st) ~(prec : int) : int =" (decide_fn id);
  line t ~indent:1 "%s st ~prec st.Rt.ts 0"
    (dfa_state_fn ~decision:id dfa.Llstar.Look_dfa.start);
  (* a chain with synpred edges folds their reach into [st.pred_reach] *)
  let accept_body ?(spec = false) ~indent alt =
    line t ~indent "record st ~decision:%d ~depth:k ~reach:%s;" id
      (if spec then "st.Rt.pred_reach" else "(-1)");
    line t ~indent "%d" alt
  in
  (* predicate chain / prediction failure for state [q] at depth [k] *)
  let emit_fallthrough ~indent q =
    let preds = dfa.Llstar.Look_dfa.preds.(q) in
    let spec = Array.exists is_synpred_edge preds in
    let accept_body = accept_body ~spec in
    if spec then line t ~indent "st.Rt.pred_reach <- -1;";
    let fail () =
      line t ~indent "Rt.no_viable st ~decision:%d ~depth:k ~rule:%d" id
        d.Ir.de_rule
    in
    if Array.length preds = 0 then fail ()
    else begin
      (* ordered if/else chain; stop after an unconditional edge *)
      let unconditional = ref false in
      let first = ref true in
      Array.iter
        (fun (e : Llstar.Look_dfa.pred_edge) ->
          if not !unconditional then begin
            (match pred_edge_condition e with
            | Some cond ->
                line t ~indent "%s %s then begin"
                  (if !first then "if" else "else if")
                  cond;
                accept_body ~indent:(indent + 1) e.Llstar.Look_dfa.alt;
                line t ~indent "end"
            | None ->
                unconditional := true;
                if !first then accept_body ~indent e.Llstar.Look_dfa.alt
                else begin
                  line t ~indent "else begin";
                  accept_body ~indent:(indent + 1) e.Llstar.Look_dfa.alt;
                  line t ~indent "end"
                end);
            first := false
          end)
        preds;
      if not !unconditional then
        if !first then fail ()
        else begin
          line t ~indent "else";
          line t ~indent:(indent + 1)
            "Rt.no_viable st ~decision:%d ~depth:k ~rule:%d" id d.Ir.de_rule
        end
    end
  in
  let emit_state q =
    line t ~indent:0 "and %s %s (k : int) : int ="
      (dfa_state_fn ~decision:id q)
      params;
    if dfa.Llstar.Look_dfa.accept.(q) <> 0 then
      accept_body ~indent:1 dfa.Llstar.Look_dfa.accept.(q)
    else begin
      let row = dfa.Llstar.Look_dfa.edges.(q) in
      let wild, exact =
        Array.to_list row
        |> List.partition (fun (term, _) -> term = Grammar.Sym.wildcard)
      in
      if exact = [] && wild = [] then begin
        (* no terminal transitions: the interpreter still examines the
           next token before predicates (high-water parity) *)
        line t ~indent:1 "let _tok = la ts (k + 1) in";
        emit_fallthrough ~indent:1 q
      end
      else begin
        line t ~indent:1 "match la ts (k + 1) with";
        List.iter
          (fun (tgt, terms) ->
            line t ~indent:1 "| %s -> %s %s (k + 1)"
              (String.concat " | " (List.map string_of_int terms))
              (dfa_state_fn ~decision:id tgt)
              args)
          (group_edges (Array.of_list exact));
        (match wild with
        | [] -> ()
        | (_, tgt) :: _ ->
            (* the wildcard edge matches any token but EOF *)
            line t ~indent:1 "| _tok when _tok <> 0 -> %s %s (k + 1)"
              (dfa_state_fn ~decision:id tgt)
              args);
        line t ~indent:1 "| _tok ->";
        emit_fallthrough ~indent:2 q
      end
    end
  in
  for q = 0 to dfa.Llstar.Look_dfa.nstates - 1 do
    emit_state q
  done

(* ------------------------------------------------------------------ *)
(* Table-plan decisions: the frozen DFA as a literal, walked generically. *)

let emit_dfa_table t (d : Ir.decision_ir) =
  let dfa = d.Ir.de_dfa in
  line t "(* decision d%d: %d states, table plan *)" d.Ir.de_id
    dfa.Llstar.Look_dfa.nstates;
  line t "let %s : Llstar.Look_dfa.t =" (dfa_val d.Ir.de_id);
  line t ~indent:1 "{";
  line t ~indent:2 "Llstar.Look_dfa.decision = %d;"
    dfa.Llstar.Look_dfa.decision;
  line t ~indent:2 "start = %d;" dfa.Llstar.Look_dfa.start;
  line t ~indent:2 "nstates = %d;" dfa.Llstar.Look_dfa.nstates;
  let row_lit row =
    spf "[| %s |]"
      (String.concat "; "
         (Array.to_list (Array.map (fun (a, b) -> spf "(%d, %d)" a b) row)))
  in
  let empty_row row = Array.length row = 0 in
  line t ~indent:2 "edges =";
  line t ~indent:3 "[|";
  Array.iter
    (fun row ->
      if empty_row row then line t ~indent:4 "[||];"
      else line t ~indent:4 "%s;" (row_lit row))
    dfa.Llstar.Look_dfa.edges;
  line t ~indent:3 "|];";
  line t ~indent:2 "accept = [| %s |];"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int dfa.Llstar.Look_dfa.accept)));
  let pred_lit (e : Llstar.Look_dfa.pred_edge) =
    let guard =
      spf "[ %s ]"
        (String.concat "; " (List.map string_of_int e.Llstar.Look_dfa.guard))
    in
    let guard = if e.Llstar.Look_dfa.guard = [] then "[]" else guard in
    let pred =
      match e.Llstar.Look_dfa.pred with
      | None -> "None"
      | Some (Atn.Sem code) -> spf "Some (Atn.Sem %S)" code
      | Some (Atn.Prec n) -> spf "Some (Atn.Prec %d)" n
      | Some (Atn.Syn r) -> spf "Some (Atn.Syn %d)" r
    in
    spf "{ Llstar.Look_dfa.guard = %s; pred = %s; alt = %d }" guard pred
      e.Llstar.Look_dfa.alt
  in
  line t ~indent:2 "preds =";
  line t ~indent:3 "[|";
  Array.iter
    (fun row ->
      if empty_row row then line t ~indent:4 "[||];"
      else
        line t ~indent:4 "[| %s |];"
          (String.concat "; " (Array.to_list (Array.map pred_lit row))))
    dfa.Llstar.Look_dfa.preds;
  line t ~indent:3 "|];";
  line t ~indent:2 "overflowed = [| %s |];"
    (String.concat "; "
       (Array.to_list
          (Array.map string_of_bool dfa.Llstar.Look_dfa.overflowed)));
  line t ~indent:2 "cyclic = %b;" dfa.Llstar.Look_dfa.cyclic;
  (match dfa.Llstar.Look_dfa.max_k with
  | None -> line t ~indent:2 "max_k = None;"
  | Some k -> line t ~indent:2 "max_k = Some %d;" k);
  line t ~indent:2 "uses_synpred = %b;" dfa.Llstar.Look_dfa.uses_synpred;
  line t ~indent:2 "fallback = %b;" dfa.Llstar.Look_dfa.fallback;
  line t ~indent:2 "start_row = [| %s |];"
    (String.concat "; "
       (Array.to_list
          (Array.map string_of_int dfa.Llstar.Look_dfa.start_row)));
  line t ~indent:1 "}";
  blank t

let emit_table_decision t (d : Ir.decision_ir) =
  let id = d.Ir.de_id in
  line t "(* decision d%d: table plan *)" id;
  line t "and %s (st : Rt.st) ~(prec : int) : int =" (decide_fn id);
  line t ~indent:1 "Rt.predict st %s ~prec ~rule:%d synpred st" (dfa_val id)
    d.Ir.de_rule

(* The one runner every speculation calls back into: synpred rule id ->
   its emitted rule function.  Closed, so passing it allocates nothing. *)
let emit_synpred_dispatch t (ir : Ir.t) =
  line t "and synpred (st : Rt.st) (r : int) (_ : int) : unit =";
  line t ~indent:1 "match r with";
  Array.iter
    (fun (r : Ir.rule_ir) ->
      if r.Ir.ru_is_synpred then
        line t ~indent:1 "| %d -> %s st ~prec:0" r.Ir.ru_id (rule_fn r.Ir.ru_id))
    ir.Ir.rules;
  line t ~indent:1 "| r -> G.unknown_synpred r"

(* ------------------------------------------------------------------ *)
(* Rule bodies: one top-level function per reachable ATN state, the
   context (st, prec, ts, and -- in rules containing decisions -- the
   stuck-guard refs) passed positionally. *)

let rule_params ~mode =
  match mode with
  | No_decide -> "(st : Rt.st) ~(prec : int) (ts : Ts.t)"
  | Mask _ ->
      "(st : Rt.st) ~(prec : int) (ts : Ts.t) (last_pos : int ref) (seen : \
       int ref)"
  | List_guard ->
      "(st : Rt.st) ~(prec : int) (ts : Ts.t) (last_pos : int ref) (seen : \
       int list ref)"

let rule_args ~mode =
  match mode with
  | No_decide -> "st ~prec ts"
  | Mask _ | List_guard -> "st ~prec ts last_pos seen"

let emit_node t (r : Ir.rule_ir) (decision_by_id : Ir.decision_ir array)
    ~(mode : guard_mode) ((s : int), (n : Ir.node)) =
  let args = rule_args ~mode in
  let sfn s = atn_state_fn ~rule:r.Ir.ru_id s in
  let goto ?(indent = 1) tgt fresh =
    line t ~indent "%s %s ~fresh:%s" (sfn tgt) args fresh
  in
  line t ~indent:0 "and %s %s ~(fresh : bool) : unit =" (sfn s)
    (rule_params ~mode);
  match n with
  | Ir.Stop -> line t ~indent:1 "()"
  | Ir.Dead -> line t ~indent:1 "Rt.dead st ~rule:%d" r.Ir.ru_id
  | Ir.Match_term { term; target } ->
      if term = Grammar.Sym.eof then begin
        (* matching EOF consumes nothing: the cursor never moves past it *)
        line t ~indent:1 "if la ts 1 = 0 then %s %s ~fresh:false" (sfn target)
          args;
        line t ~indent:1 "else Rt.mismatched st ~expected:0 ~rule:%d"
          r.Ir.ru_id
      end
      else begin
        if term = Grammar.Sym.wildcard then
          line t ~indent:1 "if la ts 1 <> 0 then begin"
        else line t ~indent:1 "if la ts 1 = %d then begin" term;
        (* the matched token is non-EOF, so the advance is unconditional;
           [la] already touched the high-water mark at the cursor *)
        line t ~indent:2 "ts.Ts.p <- ts.Ts.p + 1;";
        goto ~indent:2 target "false";
        line t ~indent:1 "end";
        line t ~indent:1 "else Rt.mismatched st ~expected:%d ~rule:%d" term
          r.Ir.ru_id
      end
  | Ir.Call { rule; prec; target } ->
      line t ~indent:1 "%s st ~prec:%d;" (rule_fn rule) prec;
      goto target "false"
  | Ir.Check_sem { code; target } ->
      line t ~indent:1 "if Rt.sem st %S then %s %s ~fresh:false" code
        (sfn target) args;
      line t ~indent:1 "else Rt.failed_pred st ~text:%S ~rule:%d" code
        r.Ir.ru_id
  | Ir.Check_prec { bound; target } ->
      line t ~indent:1 "if prec <= %d then %s %s ~fresh:false" bound
        (sfn target) args;
      line t ~indent:1 "else Rt.failed_pred st ~text:%S ~rule:%d"
        (spf "p <= %d" bound) r.Ir.ru_id
  | Ir.Check_syn { synrule; text; target } ->
      (* the decision that just selected this alternative subsumes its
         left-edge synpred: skip the gate when the prediction is fresh *)
      line t ~indent:1 "if fresh then %s %s ~fresh:false" (sfn target) args;
      line t ~indent:1 "else if Rt.speculate st synpred st %d then %s %s \
         ~fresh:false"
        synrule (sfn target) args;
      line t ~indent:1 "else Rt.failed_pred st ~text:%S ~rule:%d" text
        r.Ir.ru_id
  | Ir.Do_action { code; always; target } ->
      line t ~indent:1 "Rt.action st %S %b;" code always;
      goto target "false"
  | Ir.Decide { decision; targets } ->
      let d = decision_by_id.(decision) in
      let stuck_expr =
        match d.Ir.de_exit_alt with
        | Some exit_alt -> string_of_int exit_alt
        | None ->
            spf "Rt.stuck_fail st ~decision:%d ~rule:%d" decision r.Ir.ru_id
      in
      line t ~indent:1 "let alt =";
      (match mode with
      | No_decide ->
          (* unreachable: a Decide node implies the rule has decisions *)
          line t ~indent:2 "%s st ~prec" (decide_fn decision)
      | Mask bits ->
          let bit = List.assoc decision bits in
          (* absolute position: a sliding window shifts [p] under the
             guard's feet, and two distinct positions must never compare
             equal across a slide *)
          line t ~indent:2 "let pos = ts.Ts.base + ts.Ts.p in";
          line t ~indent:2 "if pos <> !last_pos then begin";
          line t ~indent:3 "last_pos := pos;";
          line t ~indent:3 "seen := %d;" bit;
          line t ~indent:3 "%s st ~prec" (decide_fn decision);
          line t ~indent:2 "end";
          line t ~indent:2 "else if !seen land %d <> 0 then %s" bit stuck_expr;
          line t ~indent:2 "else begin";
          line t ~indent:3 "seen := !seen lor %d;" bit;
          line t ~indent:3 "%s st ~prec" (decide_fn decision);
          line t ~indent:2 "end"
      | List_guard ->
          line t ~indent:2 "if G.stuck st last_pos seen ~d:%d then %s"
            decision stuck_expr;
          line t ~indent:2 "else %s st ~prec" (decide_fn decision));
      line t ~indent:1 "in";
      line t ~indent:1 "(match alt with";
      Array.iteri
        (fun i tgt ->
          line t ~indent:1 " | %d -> %s %s ~fresh:true" (i + 1) (sfn tgt) args)
        targets;
      line t ~indent:1 " | a -> G.bad_alt ~decision:%d a)" decision

let emit_rule t (ir : Ir.t) (decision_by_id : Ir.decision_ir array)
    (r : Ir.rule_ir) ~first =
  let mode = guard_mode r in
  line t "(* rule %s (r%d)%s *)" r.Ir.ru_name r.Ir.ru_id
    (if r.Ir.ru_is_synpred then " -- syntactic-predicate fragment" else "");
  let kw = if first then "let rec" else "and" in
  if ir.Ir.memoize then begin
    (* memoization only applies while speculating; the body has the
       runner signature {!Runtime.Interp.memo_rule} calls back with *)
    line t "%s %s (st : Rt.st) ~(prec : int) : unit =" kw (rule_fn r.Ir.ru_id);
    line t ~indent:1 "if st.Rt.speculating > 0 then Rt.memo_rule st %s st %d prec"
      (body_fn r.Ir.ru_id) r.Ir.ru_id;
    line t ~indent:1 "else %s st %d prec" (body_fn r.Ir.ru_id) r.Ir.ru_id;
    blank t;
    line t "and %s (st : Rt.st) (_ : int) (prec : int) : unit ="
      (body_fn r.Ir.ru_id)
  end
  else
    line t "%s %s (st : Rt.st) ~(prec : int) : unit =" kw (rule_fn r.Ir.ru_id);
  (match mode with
  | No_decide ->
      line t ~indent:1 "%s st ~prec st.Rt.ts ~fresh:false"
        (atn_state_fn ~rule:r.Ir.ru_id r.Ir.ru_entry)
  | Mask _ ->
      line t ~indent:1 "%s st ~prec st.Rt.ts (ref (-1)) (ref 0) ~fresh:false"
        (atn_state_fn ~rule:r.Ir.ru_id r.Ir.ru_entry)
  | List_guard ->
      line t ~indent:1
        "%s st ~prec st.Rt.ts (ref (-1)) (ref ([] : int list)) ~fresh:false"
        (atn_state_fn ~rule:r.Ir.ru_id r.Ir.ru_entry));
  Array.iter (fun sn -> emit_node t r decision_by_id ~mode sn) r.Ir.ru_states

(* ------------------------------------------------------------------ *)
(* Whole module. *)

let string_array_lit (a : string array) : string =
  spf "[| %s |]" (String.concat "; " (Array.to_list (Array.map (spf "%S") a)))

let token_names (sym : Grammar.Sym.t) : string array =
  Array.init (Grammar.Sym.num_terms sym) (Grammar.Sym.term_name sym)

let rule_names (ir : Ir.t) : string array =
  Array.map (fun (r : Ir.rule_ir) -> r.Ir.ru_name) ir.Ir.rules

let emit (ir : Ir.t) : string =
  let t = { b = Buffer.create 65536 } in
  let s = Ir.stats ir in
  line t "(* Parser for grammar %s, generated by [antlrkit codegen]."
    ir.Ir.grammar_name;
  line t "   DO NOT EDIT: regenerate instead (see README, \"Code generation\").";
  line t
    "   %d rules, %d ATN states, %d decisions (%d inline, %d table-driven),"
    s.Ir.n_rules s.Ir.n_states s.Ir.n_decisions s.Ir.n_inline s.Ir.n_table;
  line t "   %d syntactic-predicate fragments. *)" s.Ir.n_synpreds;
  blank t;
  line t "[@@@ocaml.warning \"-26-27-32-33-39\"]";
  blank t;
  line t "module Rt = Runtime.Interp";
  line t "module G = Runtime.Generated";
  line t "module Ts = Runtime.Token_stream";
  blank t;
  line t "(* Lookahead, inlined over the exposed stream representation: same";
  line t "   semantics as [Ts.la] (high-water touch included), without the";
  line t "   cross-module call or the synthetic EOF token past the end.  The";
  line t "   fast path reads the filled window; [Ts.la_far] pulls from the";
  line t "   source (and synthesizes EOF once it is exhausted). *)";
  line t "let[@inline] la (ts : Ts.t) (k : int) : int =";
  line t ~indent:1 "let i = ts.Ts.p + k - 1 in";
  line t ~indent:1 "if i < ts.Ts.limit then begin";
  line t ~indent:2 "if i > ts.Ts.hw then ts.Ts.hw <- i;";
  line t ~indent:2 "(Array.unsafe_get ts.Ts.toks i).Runtime.Token.ttype";
  line t ~indent:1 "end";
  line t ~indent:1 "else Ts.la_far ts k";
  blank t;
  line t "let[@inline] record (st : Rt.st) ~decision ~depth ~reach : unit =";
  line t ~indent:1 "match st.Rt.profile with";
  line t ~indent:1 "| None -> ()";
  line t ~indent:1 "| Some _ -> Rt.record st ~decision ~depth ~reach";
  blank t;
  line t "let grammar_name = %S" ir.Ir.grammar_name;
  line t "let start_rule_name = %S" ir.Ir.rules.(ir.Ir.start_rule).Ir.ru_name;
  line t "let start_rule = %d" ir.Ir.start_rule;
  line t "let memoize = %b" ir.Ir.memoize;
  blank t;
  line t "(* vocabulary, in interned order (0 = EOF, 1 = wildcard) *)";
  line t "let token_names = %s" (string_array_lit (token_names ir.Ir.sym));
  line t "let rule_names = %s" (string_array_lit (rule_names ir));
  blank t;
  (* frozen DFAs for table-plan decisions *)
  Array.iter
    (fun (d : Ir.decision_ir) ->
      match d.Ir.de_plan with
      | Ir.Table -> emit_dfa_table t d
      | Ir.Inline -> ())
    ir.Ir.decisions;
  (* one let-rec chain: rules, state functions and decisions are mutually
     recursive (decisions speculate into synpred rules, rules consult
     decisions) *)
  Array.iteri
    (fun i r ->
      emit_rule t ir ir.Ir.decisions r ~first:(i = 0);
      blank t)
    ir.Ir.rules;
  Array.iter
    (fun (d : Ir.decision_ir) ->
      (match d.Ir.de_plan with
      | Ir.Inline -> emit_inline_decision t ir d
      | Ir.Table -> emit_table_decision t d);
      blank t)
    ir.Ir.decisions;
  emit_synpred_dispatch t ir;
  blank t;
  line t "let entry (st : Rt.st) : unit = %s st ~prec:0"
    (rule_fn ir.Ir.start_rule);
  blank t;
  line t "let outcome_stream ?env ?profile (ts : Ts.t) : G.outcome =";
  line t ~indent:1
    "G.run_recognizer ?env ?profile ~memoize ~start_rule entry ts";
  blank t;
  line t
    "let outcome ?env ?profile (toks : Runtime.Token.t array) : G.outcome =";
  line t ~indent:1 "outcome_stream ?env ?profile (Ts.of_array toks)";
  Buffer.contents t.b
