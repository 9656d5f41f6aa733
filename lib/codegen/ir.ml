(* Intermediate representation for the code-generation backend.

   The IR is a flat threaded-code view of the ATN: one node per reachable
   ATN state, each naming its successor state(s) directly.  Lowering
   ([Lower]) produces it from a compiled grammar; the OCaml emitter
   ([Emit_ocaml]) prints it as source and the closure backend ([Exec])
   runs it in-process, so both backends execute the *same* decision plans
   and the property tests that drive [Exec] against the interpreter cover
   the emitted control flow too.

   Decision nodes carry a plan: [Inline] compiles the lookahead DFA to
   nested match/if chains over token ids; [Table] embeds the frozen DFA
   and predicts with it generically ({!Runtime.Interp.predict}).  Both
   plans keep the DFA value around -- the emitter needs the states and
   edges either way.

   NOTE: the serializers in this file (and the emitter) are checked by the
   CI hygiene job for wildcard match arms: every variant must be matched
   explicitly so a new node kind cannot silently compile without a
   rendering. *)

type decision_plan =
  | Inline (* nested match/if chains over token ids *)
  | Table (* embedded Look_dfa + generic table walk *)

type node =
  | Stop (* the rule's stop state: return *)
  | Dead (* non-stop state without transitions: internal error *)
  | Eps of { target : int }
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
  ru_entry : int;
  ru_stop : int;
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

(* ------------------------------------------------------------------ *)
(* Debug pretty-printer (exhaustive; see the hygiene note above). *)

let plan_str (p : decision_plan) : string =
  match p with Inline -> "inline" | Table -> "table"

let pp_node (sym : Grammar.Sym.t) ppf (n : node) =
  match n with
  | Stop -> Fmt.string ppf "stop"
  | Dead -> Fmt.string ppf "dead"
  | Eps { target } -> Fmt.pf ppf "eps -> %d" target
  | Match_term { term; target } ->
      Fmt.pf ppf "match %s -> %d" (Grammar.Sym.term_name sym term) target
  | Call { rule; prec; target } ->
      Fmt.pf ppf "call %s[%d] -> %d" (Grammar.Sym.nonterm_name sym rule) prec
        target
  | Check_sem { code; target } -> Fmt.pf ppf "sem {%s}? -> %d" code target
  | Check_prec { bound; target } ->
      Fmt.pf ppf "prec {p<=%d}? -> %d" bound target
  | Check_syn { synrule; text; target } ->
      Fmt.pf ppf "syn (%s=r%d)=> -> %d" text synrule target
  | Do_action { code; always; target } ->
      Fmt.pf ppf "act {%s}%s -> %d" code (if always then "!!" else "") target
  | Decide { decision; targets } ->
      Fmt.pf ppf "decide d%d -> [%a]" decision
        Fmt.(array ~sep:(any " ") int)
        targets

let pp ppf (ir : t) =
  let s = stats ir in
  Fmt.pf ppf "codegen IR for %s: %d rules, %d states, %d decisions (%d inline, %d table)@."
    ir.grammar_name s.n_rules s.n_states s.n_decisions s.n_inline s.n_table;
  Array.iter
    (fun r ->
      Fmt.pf ppf "rule %s (r%d)%s: entry=%d stop=%d@." r.ru_name r.ru_id
        (if r.ru_is_synpred then " [synpred]" else "")
        r.ru_entry r.ru_stop;
      Array.iter
        (fun (s, n) -> Fmt.pf ppf "  %4d: %a@." s (pp_node ir.sym) n)
        r.ru_states)
    ir.rules;
  Array.iter
    (fun d ->
      Fmt.pf ppf "decision d%d: rule=r%d nalts=%d plan=%s dfa=%d states%s@."
        d.de_id d.de_rule d.de_nalts (plan_str d.de_plan)
        d.de_dfa.Llstar.Look_dfa.nstates
        (match d.de_exit_alt with
        | Some e -> Printf.sprintf " exit=%d" e
        | None -> ""))
    ir.decisions

let to_string (ir : t) : string = Fmt.str "%a" pp ir
