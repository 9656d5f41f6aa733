(* Lowering: compiled grammar + lookahead DFAs -> codegen IR.

   The IR is the interpreter's program ({!Atn.Program}, run by
   {!Runtime.Interp.run_rule}) decoded into nodes: one node per program
   slot reachable from a rule's first slot, with the slot's operands and
   successors.  Epsilon steps are resolved once, by [Atn.Program.of_atn],
   so no node forwards to another; the generated code is the interpreter's
   state machine with the opcode dispatch compiled away, which is the whole
   correctness argument.  This module validates the invariants it relies
   on and refuses to lower anything that violates them. *)

(* Decisions whose DFA has at most this many states are lowered to nested
   match chains ([Ir.Inline]); larger ones embed the DFA and walk it
   ([Ir.Table]).  Lowering every decision inline multiplies the generated
   parsers' build time and object size; lowering every decision to a
   table costs parse throughput. *)
let inline_threshold = 32

type error = string

let lower ?lexer ?grammar_text
    (c : Llstar.Compiled.t) : (Ir.t, error) result =
  let atn = c.Llstar.Compiled.atn in
  let p = c.Llstar.Compiled.program in
  let issues : string list ref = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let node_of (s : int) : Ir.node =
    let x = Atn.Program.arg p s and target = Atn.Program.next p s in
    match Atn.Program.op p s with
    | Atn.Program.Stop -> Ir.Stop
    | Atn.Program.Dead -> Ir.Dead
    | Atn.Program.Decide ->
        let nalts = atn.Atn.decisions.(x).Atn.d_nalts in
        Ir.Decide
          {
            decision = x;
            targets =
              Array.init nalts (fun i -> Atn.Program.alt_next p s (i + 1));
          }
    | Atn.Program.Match -> Ir.Match_term { term = x; target }
    | Atn.Program.Call ->
        Ir.Call { rule = x; prec = Atn.Program.arg2 p s; target }
    | Atn.Program.Sem -> Ir.Check_sem { code = p.Atn.Program.sem.(x); target }
    | Atn.Program.Prec -> Ir.Check_prec { bound = x; target }
    | Atn.Program.Syn ->
        Ir.Check_syn { synrule = x; text = Atn.rule_name atn x; target }
    | Atn.Program.Act ->
        Ir.Do_action
          {
            code = fst atn.Atn.actions.(x);
            always = Atn.Program.arg2 p s <> 0;
            target;
          }
  in
  let successors (n : Ir.node) : int list =
    match n with
    | Ir.Stop -> []
    | Ir.Dead -> []
    | Ir.Match_term { target; term = _ } -> [ target ]
    | Ir.Call { target; rule = _; prec = _ } -> [ target ]
    | Ir.Check_sem { target; code = _ } -> [ target ]
    | Ir.Check_prec { target; bound = _ } -> [ target ]
    | Ir.Check_syn { target; synrule = _; text = _ } -> [ target ]
    | Ir.Do_action { target; code = _; always = _ } -> [ target ]
    | Ir.Decide { targets; decision = _ } -> Array.to_list targets
  in
  let lower_rule (ri : Atn.rule_info) : Ir.rule_ir =
    (* collect the slots reachable from the rule's first slot without
       leaving the rule (calls continue at the follow state, not the
       callee) *)
    let seen = Hashtbl.create 64 in
    let acc = ref [] in
    let rec visit s =
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        if atn.Atn.state_rule.(s) <> ri.Atn.r_id then
          issue "rule %s: reached state %d owned by another rule"
            ri.Atn.r_name s;
        let n = node_of s in
        acc := (s, n) :: !acc;
        List.iter visit (successors n)
      end
    in
    let first = Atn.Program.first p ri.Atn.r_id in
    visit first;
    let states = Array.of_list !acc in
    Array.sort (fun (a, _) (b, _) -> compare a b) states;
    {
      Ir.ru_id = ri.Atn.r_id;
      ru_name = ri.Atn.r_name;
      ru_entry = first;
      ru_is_synpred = ri.Atn.r_is_synpred;
      ru_states = states;
    }
  in
  let lower_decision (dec : Atn.decision) : Ir.decision_ir =
    let dfa = Llstar.Compiled.dfa c dec.Atn.d_id in
    (* the DFA must only predict alternatives the decision has *)
    Array.iteri
      (fun s alt ->
        if alt < 0 || alt > dec.Atn.d_nalts then
          issue "decision %d: DFA state %d accepts alternative %d of %d"
            dec.Atn.d_id s alt dec.Atn.d_nalts)
      dfa.Llstar.Look_dfa.accept;
    Array.iteri
      (fun s edges ->
        Array.iter
          (fun (e : Llstar.Look_dfa.pred_edge) ->
            if e.Llstar.Look_dfa.alt < 1 || e.Llstar.Look_dfa.alt > dec.Atn.d_nalts
            then
              issue
                "decision %d: DFA state %d predicate edge predicts \
                 alternative %d of %d"
                dec.Atn.d_id s e.Llstar.Look_dfa.alt dec.Atn.d_nalts)
          edges)
      dfa.Llstar.Look_dfa.preds;
    let plan =
      if dfa.Llstar.Look_dfa.nstates <= inline_threshold then Ir.Inline
      else Ir.Table
    in
    {
      Ir.de_id = dec.Atn.d_id;
      de_rule = dec.Atn.d_rule;
      de_exit_alt = dec.Atn.d_exit_alt;
      de_nalts = dec.Atn.d_nalts;
      de_plan = plan;
      de_dfa = dfa;
    }
  in
  let rules = Array.map lower_rule atn.Atn.rules in
  let decisions = Array.map lower_decision atn.Atn.decisions in
  (* every synpred referenced by a DFA or a gate must name a real rule *)
  let check_synrule where r =
    if r < 0 || r >= Array.length atn.Atn.rules then
      issue "%s references synpred rule %d out of range" where r
  in
  Array.iter
    (fun (d : Ir.decision_ir) ->
      Array.iter
        (fun edges ->
          Array.iter
            (fun (e : Llstar.Look_dfa.pred_edge) ->
              match e.Llstar.Look_dfa.pred with
              | Some (Atn.Syn r) ->
                  check_synrule
                    (Printf.sprintf "decision %d" d.Ir.de_id)
                    r
              | Some (Atn.Sem _) -> ()
              | Some (Atn.Prec _) -> ()
              | None -> ())
            edges)
        d.Ir.de_dfa.Llstar.Look_dfa.preds)
    decisions;
  Array.iter
    (fun (r : Ir.rule_ir) ->
      Array.iter
        (fun ((_ : int), n) ->
          match n with
          | Ir.Check_syn { synrule; text = _; target = _ } ->
              check_synrule
                (Printf.sprintf "rule %s" r.Ir.ru_name)
                synrule
          | Ir.Stop | Ir.Dead -> ()
          | Ir.Match_term _ | Ir.Call _ | Ir.Check_sem _ | Ir.Check_prec _
          | Ir.Do_action _ | Ir.Decide _ ->
              ())
        r.Ir.ru_states)
    rules;
  match List.rev !issues with
  | first :: _ as all ->
      Error
        (Printf.sprintf "cannot lower grammar: %s%s" first
           (match all with
           | [ _ ] -> ""
           | _ ->
               Printf.sprintf " (and %d more issues)"
                 (List.length all - 1)))
  | [] ->
      Ok
        {
          Ir.grammar_name = c.Llstar.Compiled.surface.Grammar.Ast.gname;
          start_rule = atn.Atn.start_rule;
          memoize =
            (Llstar.Compiled.options c).Grammar.Ast.memoize;
          rules;
          decisions;
          sym = Llstar.Compiled.sym c;
          lexer_hint = lexer;
          grammar_text;
        }
