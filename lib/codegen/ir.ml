(* Intermediate representation for the code-generation backend.

   The IR is the interpreter's flat program ({!Atn.Program}) as nodes: one
   node per program slot reachable from a rule's first slot, each naming
   its successor state(s) directly.  The program has no epsilon steps, so
   no node only forwards to another.  Lowering ([Lower]) decodes it from a
   compiled grammar; the OCaml emitter ([Emit_ocaml]) prints it as source
   and the closure backend ([Exec]) runs it in-process, so both backends
   execute the *same* decision plans and the property tests that drive
   [Exec] against the interpreter cover the emitted control flow too.

   Decision nodes carry a plan: [Inline] compiles the lookahead DFA to
   nested match/if chains over token ids; [Table] embeds the frozen DFA
   and predicts with it generically ({!Runtime.Interp.predict}).  Both
   plans keep the DFA value around -- the emitter needs the states and
   edges either way.

   NOTE: [stats] here and the emitter are checked by the CI hygiene job
   for wildcard match arms: every variant must be matched explicitly so a
   new node kind cannot silently compile without a rendering. *)

type decision_plan =
  | Inline (* nested match/if chains over token ids *)
  | Table (* embedded Look_dfa + generic table walk *)

type node =
  | Stop (* the rule's stop state: return *)
  | Dead (* non-stop state without transitions: internal error *)
  | Match_term of { term : int; target : int }
      (* [term = Grammar.Sym.wildcard] matches any token but EOF *)
  | Call of { rule : int; prec : int; target : int }
  | Check_sem of { code : string; target : int }
  | Check_prec of { bound : int; target : int }
  | Check_syn of { synrule : int; text : string; target : int }
      (* left-edge synpred gate; skipped when the surrounding decision just
         selected this alternative ([text] is the predicate's rule name,
         used in the failure message) *)
  | Do_action of { code : string; always : bool; target : int }
  | Decide of { decision : int; targets : int array }
      (* decision state: predict an alternative, continue at
         [targets.(alt - 1)] *)

type rule_ir = {
  ru_id : int;
  ru_name : string;
  ru_entry : int; (* the rule's first program slot ({!Atn.Program.first}) *)
  ru_is_synpred : bool;
  ru_states : (int * node) array; (* reachable states, ascending id *)
}

type decision_ir = {
  de_id : int;
  de_rule : int; (* owning rule *)
  de_exit_alt : int option; (* forced alternative when the loop is stuck *)
  de_nalts : int;
  de_plan : decision_plan;
  de_dfa : Llstar.Look_dfa.t;
}

type t = {
  grammar_name : string;
  start_rule : int;
  memoize : bool; (* grammar option: memoize while speculating *)
  rules : rule_ir array; (* indexed by rule id *)
  decisions : decision_ir array; (* indexed by decision id *)
  sym : Grammar.Sym.t; (* shared vocabulary (terminal and rule ids) *)
  lexer_hint : Runtime.Lexer_engine.config option;
      (* lexer configuration to embed in emitted drivers, when known *)
  grammar_text : string option; (* surface source, for driver --check *)
}

(* ------------------------------------------------------------------ *)
(* Statistics for reports and tests. *)

type stats = {
  n_rules : int;
  n_states : int;
  n_decisions : int;
  n_inline : int;
  n_table : int;
  n_synpreds : int;
}

let stats (ir : t) : stats =
  let n_states =
    Array.fold_left (fun a r -> a + Array.length r.ru_states) 0 ir.rules
  in
  let n_inline = ref 0 and n_table = ref 0 in
  Array.iter
    (fun d ->
      match d.de_plan with
      | Inline -> incr n_inline
      | Table -> incr n_table)
    ir.decisions;
  let n_synpreds =
    Array.fold_left
      (fun a r -> if r.ru_is_synpred then a + 1 else a)
      0 ir.rules
  in
  {
    n_rules = Array.length ir.rules;
    n_states;
    n_decisions = Array.length ir.decisions;
    n_inline = !n_inline;
    n_table = !n_table;
    n_synpreds;
  }
