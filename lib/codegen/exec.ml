(* Closure-execution backend: run the codegen IR in-process.

   This interprets the IR with closures, mirroring the control flow the
   OCaml emitter prints -- same decision plans, same runtime helpers
   ({!Runtime.Generated}), same freshness rule for left-edge synpreds.
   It exists so property tests can drive the lowered representation
   against the ATN interpreter on qcheck-random grammars without
   compiling emitted source, covering the decision-plan logic that the
   six bench parsers alone would not. *)

module Rt = Runtime.Generated
module Ts = Runtime.Token_stream

(* Inline-plan prediction: walk the DFA the way the emitted match/if
   chains do (accept first, then terminal edges, then the ordered
   predicate chain; the next token is examined before predicates even
   when no terminal edge can match, for high-water parity with the
   interpreter). *)
let inline_predict (st : Rt.st) (d : Ir.decision_ir) ~(prec : int)
    ~(synpred : int -> unit) : int =
  let dfa = d.Ir.de_dfa in
  let bt = ref false and reach = ref 0 in
  let record ~depth alt =
    Rt.record st ~decision:d.Ir.de_id ~depth ~backtracked:!bt
      ~spec_depth:!reach;
    alt
  in
  let rec walk q k =
    let acc = dfa.Llstar.Look_dfa.accept.(q) in
    if acc <> 0 then record ~depth:k acc
    else begin
      let tok = Ts.la st.ts (k + 1) in
      match Llstar.Look_dfa.lookup_edge dfa q tok with
      | Some q' -> walk q' (k + 1)
      | None -> preds q k
    end
  and preds q k =
    let edges = dfa.Llstar.Look_dfa.preds.(q) in
    let n = Array.length edges in
    let rec try_edge i =
      if i >= n then
        Rt.no_viable st ~decision:d.Ir.de_id ~depth:k ~rule:d.Ir.de_rule
      else begin
        let e = edges.(i) in
        let guard_ok =
          match e.Llstar.Look_dfa.guard with
          | [] -> true
          | g -> List.mem (Ts.la st.ts (k + 1)) g
        in
        let ok =
          guard_ok
          && (match e.Llstar.Look_dfa.pred with
             | None -> true
             | Some (Atn.Sem code) -> Rt.sem st code
             | Some (Atn.Prec bound) -> prec <= bound
             | Some (Atn.Syn r) ->
                 Rt.syn_pred st ~bt ~reach ~depth:k (fun () -> synpred r))
        in
        if ok then record ~depth:k e.Llstar.Look_dfa.alt
        else try_edge (i + 1)
      end
    in
    try_edge 0
  in
  walk dfa.Llstar.Look_dfa.start 0

let to_parser (ir : Ir.t) : (module Rt.PARSER) =
  let nrules = Array.length ir.Ir.rules in
  let rules : (Rt.st -> prec:int -> unit) array =
    Array.make nrules (fun _st ~prec:_ ->
        invalid_arg "codegen exec: rule not linked")
  in
  let decide : (Rt.st -> prec:int -> int) array =
    Array.map
      (fun (d : Ir.decision_ir) ->
        match d.Ir.de_plan with
        | Ir.Inline ->
            fun st ~prec ->
              inline_predict st d ~prec ~synpred:(fun r ->
                  rules.(r) st ~prec:0)
        | Ir.Table ->
            fun st ~prec ->
              Rt.predict_table st d.Ir.de_dfa ~prec ~rule:d.Ir.de_rule
                ~synpred:(fun r -> rules.(r) st ~prec:0))
      ir.Ir.decisions
  in
  let body_of (r : Ir.rule_ir) : Rt.st -> prec:int -> unit =
    let node_at : (int, Ir.node) Hashtbl.t =
      Hashtbl.create (Array.length r.Ir.ru_states)
    in
    Array.iter (fun (s, n) -> Hashtbl.add node_at s n) r.Ir.ru_states;
    fun st ~prec ->
      let last_pos = ref (-1) and seen = ref ([] : int list) in
      let rec step s ~fresh =
        match Hashtbl.find node_at s with
        | Ir.Stop -> ()
        | Ir.Dead -> Rt.dead st ~rule:r.Ir.ru_id
        | Ir.Eps { target } -> step target ~fresh
        | Ir.Match_term { term; target } ->
            let la1 = Ts.la st.ts 1 in
            if la1 = term || (term = Grammar.Sym.wildcard && la1 <> 0) then begin
              ignore (Ts.consume st.ts);
              step target ~fresh:false
            end
            else Rt.mismatched st ~expected:term ~rule:r.Ir.ru_id
        | Ir.Call { rule; prec = p; target } ->
            rules.(rule) st ~prec:p;
            step target ~fresh:false
        | Ir.Check_sem { code; target } ->
            if Rt.sem st code then step target ~fresh:false
            else Rt.failed_pred st ~text:code ~rule:r.Ir.ru_id
        | Ir.Check_prec { bound; target } ->
            if prec <= bound then step target ~fresh:false
            else
              Rt.failed_pred st
                ~text:(Printf.sprintf "p <= %d" bound)
                ~rule:r.Ir.ru_id
        | Ir.Check_syn { synrule; text; target } ->
            if fresh then step target ~fresh:false
            else if Rt.syn_gate st (fun () -> rules.(synrule) st ~prec:0)
            then step target ~fresh:false
            else Rt.failed_pred st ~text ~rule:r.Ir.ru_id
        | Ir.Do_action { code; always; target } ->
            Rt.action st code always;
            step target ~fresh:false
        | Ir.Decide { decision; targets } ->
            let d = ir.Ir.decisions.(decision) in
            let alt =
              if Rt.stuck st last_pos seen ~d:decision then
                match d.Ir.de_exit_alt with
                | Some a -> a
                | None -> Rt.stuck_fail st ~decision ~rule:r.Ir.ru_id
              else decide.(decision) st ~prec
            in
            if alt >= 1 && alt <= Array.length targets then
              step targets.(alt - 1) ~fresh:true
            else Rt.bad_alt ~decision alt
      in
      step r.Ir.ru_entry ~fresh:false
  in
  Array.iteri
    (fun i r ->
      let body = body_of r in
      if ir.Ir.memoize then
        rules.(i) <-
          (fun st ~prec ->
            Rt.memoized st ~rule:i ~prec (fun () -> body st ~prec))
      else rules.(i) <- body)
    ir.Ir.rules;
  let entry st = rules.(ir.Ir.start_rule) st ~prec:0 in
  (module struct
    let grammar_name = ir.Ir.grammar_name
    let start_rule_name = ir.Ir.rules.(ir.Ir.start_rule).Ir.ru_name

    let token_names =
      Array.init
        (Grammar.Sym.num_terms ir.Ir.sym)
        (Grammar.Sym.term_name ir.Ir.sym)

    let rule_names = Array.map (fun r -> r.Ir.ru_name) ir.Ir.rules

    let outcome_stream ?env ?profile ts =
      Rt.run_recognizer ?env ?profile ~memoize:ir.Ir.memoize
        ~start_rule:ir.Ir.start_rule entry ts

    let outcome ?env ?profile toks =
      outcome_stream ?env ?profile (Ts.of_array toks)
  end : Rt.PARSER)
