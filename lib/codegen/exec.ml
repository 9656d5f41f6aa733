(* Closure-execution backend: run the codegen IR in-process.

   This interprets the IR with closures, mirroring the control flow the
   OCaml emitter prints -- same runtime ({!Runtime.Interp}'s speculation
   code and {!Runtime.Generated}'s stuck guard), same freshness rule for
   left-edge synpreds.  Every decision, whatever its plan, predicts with
   {!Runtime.Interp.predict}: the one DFA walk, of which the emitted
   [Inline] match chains are a transcription.  It exists so
   property tests can drive the lowered representation against the ATN
   interpreter on qcheck-random grammars without compiling emitted
   source, covering lowering cases that the six bench parsers alone
   would not. *)

module Rt = Runtime.Interp
module G = Runtime.Generated
module Ts = Runtime.Token_stream

let to_parser (ir : Ir.t) : (module G.PARSER) =
  let nrules = Array.length ir.Ir.rules in
  let unlinked _st ~prec:_ = invalid_arg "codegen exec: rule not linked" in
  let rules : (Rt.st -> prec:int -> unit) array = Array.make nrules unlinked in
  let bodies = Array.make nrules unlinked in
  (* the runners {!Runtime.Interp} calls back into *)
  let synpred st r _ = rules.(r) st ~prec:0 in
  let body st r prec = bodies.(r) st ~prec in
  let body_of (r : Ir.rule_ir) : Rt.st -> prec:int -> unit =
    let node_at : (int, Ir.node) Hashtbl.t =
      Hashtbl.create (Array.length r.Ir.ru_states)
    in
    Array.iter (fun (s, n) -> Hashtbl.add node_at s n) r.Ir.ru_states;
    fun st ~prec ->
      let ts = st.Rt.ts in
      let last_pos = ref (-1) and seen = ref ([] : int list) in
      let rec step s ~fresh =
        match Hashtbl.find node_at s with
        | Ir.Stop -> ()
        | Ir.Dead -> Rt.dead st ~rule:r.Ir.ru_id
        | Ir.Match_term { term; target } ->
            let la1 = Ts.la ts 1 in
            if la1 = term || (term = Grammar.Sym.wildcard && la1 <> 0) then begin
              ignore (Ts.consume ts);
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
            if fresh || Rt.speculate st synpred st synrule then
              step target ~fresh:false
            else Rt.failed_pred st ~text ~rule:r.Ir.ru_id
        | Ir.Do_action { code; always; target } ->
            Rt.action st code always;
            step target ~fresh:false
        | Ir.Decide { decision; targets } ->
            let d = ir.Ir.decisions.(decision) in
            let alt =
              if G.stuck st last_pos seen ~d:decision then
                match d.Ir.de_exit_alt with
                | Some a -> a
                | None -> Rt.stuck_fail st ~decision ~rule:r.Ir.ru_id
              else
                Rt.predict st d.Ir.de_dfa ~prec ~rule:d.Ir.de_rule synpred st
            in
            if alt >= 1 && alt <= Array.length targets then
              step targets.(alt - 1) ~fresh:true
            else G.bad_alt ~decision alt
      in
      step r.Ir.ru_entry ~fresh:false
  in
  Array.iteri
    (fun i r ->
      let b = body_of r in
      bodies.(i) <- b;
      rules.(i) <-
        (if ir.Ir.memoize then fun st ~prec ->
           if st.Rt.speculating > 0 then Rt.memo_rule st body st i prec
           else b st ~prec
         else b))
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
      G.run_recognizer ?env ?profile ~memoize:ir.Ir.memoize
        ~start_rule:ir.Ir.start_rule entry ts

    let outcome ?env ?profile toks =
      outcome_stream ?env ?profile (Ts.of_array toks)
  end : G.PARSER)
