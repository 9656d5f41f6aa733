(* Augmented transition networks (paper section 5.1).

   One submachine per rule: entry state p_A, stop state p_A'.  Nonterminal
   (rule) transitions act like function calls: taking a [Rule] edge pushes
   the edge's target (the follow state) and continues at the callee's entry
   state (Figure 6).  Predicate and action edges are epsilon-like for
   lookahead analysis; the runtime evaluates/executes them.

   States that begin a multi-alternative construct are decision states; the
   order of their outgoing transitions is the alternative order, which is
   how production precedence (section 3.1) is represented. *)

module Sym = Grammar.Sym

type pred =
  | Sem of string (* {code}? semantic predicate *)
  | Prec of int (* {p <= n}? precedence predicate *)
  | Syn of int (* (__synpredN)=> -- rule id of the lifted fragment *)

type edge =
  | Eps
  | Term of int (* terminal id; [Sym.wildcard] matches any token *)
  | Rule of { rule : int; arg : int option }
    (* transition target is the follow state pushed on call *)
  | Pred of pred
  | Act of { id : int; always : bool }

type decision_kind =
  | Rule_decision (* choice among a rule's productions *)
  | Block_decision (* ( a | b ) sub-block *)
  | Opt_decision (* ( ... )? with implicit exit alternative *)
  | Star_loop (* ( ... )* enter-or-exit, re-tested each iteration *)
  | Plus_loop (* ( ... )+ continue-or-exit after one iteration *)

type decision = {
  d_id : int;
  d_state : int;
  d_rule : int; (* owning rule *)
  d_nalts : int; (* total alternatives, including implicit exit *)
  d_kind : decision_kind;
  d_exit_alt : int option; (* 1-based alternative number that exits *)
  d_label : string;
}

type rule_info = {
  r_id : int;
  r_name : string;
  r_entry : int;
  r_stop : int;
  r_nalts : int;
  r_parameterized : bool;
  r_is_synpred : bool;
}

type t = {
  sym : Sym.t;
  grammar : Grammar.Ast.t; (* the prepared (transformed) grammar *)
  nstates : int;
  trans : (edge * int) array array; (* state -> ordered transitions *)
  state_rule : int array; (* owning rule of each state; -1 for augmented *)
  rules : rule_info array;
  start_rule : int;
  decisions : decision array;
  decision_of_state : int array; (* -1 if not a decision state *)
  callers : (int * int option) list array;
    (* rule -> (follow state, precedence arg) of every call site, including
       the synthetic EOF-augmented call of the start rule *)
  actions : (string * bool) array; (* action id -> (code, always) *)
  augmented_start : int; (* state calling the start rule, followed by EOF *)
}

let rule_name t r = t.rules.(r).r_name
let rule_by_name t name =
  let found = ref None in
  Array.iter (fun ri -> if ri.r_name = name then found := Some ri.r_id) t.rules;
  !found

let decision_of t s = t.decision_of_state.(s)

(* Alternative left-edge states of a decision, in alternative order. *)
let decision_alt_targets t (d : decision) : int array =
  Array.map snd t.trans.(d.d_state)

let is_stop_state t s =
  let r = t.state_rule.(s) in
  r >= 0 && t.rules.(r).r_stop = s

(* Per-state facts the LL-star closure walk tests on every step.  They are
   derived from [t] in one pass rather than stored in it, so the marshaled
   ATN keeps its shape; analysis computes them once per ATN before it fans
   decisions out, and worker domains only read them. *)
type state_flags = {
  significant : bool array;
    (* a stop state, a state with an outgoing terminal edge, or a terminal
       sink (no edges, e.g. the augmented post-EOF state) *)
  stop : bool array; (* [is_stop_state] *)
  decision : bool array; (* [decision_of] >= 0 *)
}

let state_flags t =
  let stop = Array.init t.nstates (is_stop_state t) in
  let significant =
    Array.init t.nstates (fun s ->
        stop.(s)
        || Array.length t.trans.(s) = 0
        || Array.exists
             (fun (edge, _) -> match edge with Term _ -> true | _ -> false)
             t.trans.(s))
  in
  let decision = Array.map (fun d -> d >= 0) t.decision_of_state in
  { significant; stop; decision }

let pp_pred sym ppf = function
  | Sem code -> Fmt.pf ppf "{%s}?" code
  | Prec n -> Fmt.pf ppf "{p<=%d}?" n
  | Syn rule -> Fmt.pf ppf "(%s)=>" (Sym.nonterm_name sym rule)

let pp_edge sym ppf = function
  | Eps -> Fmt.string ppf "eps"
  | Term t -> Fmt.string ppf (Sym.term_name sym t)
  | Rule { rule; arg = None } -> Fmt.pf ppf "<%s>" (Sym.nonterm_name sym rule)
  | Rule { rule; arg = Some p } ->
      Fmt.pf ppf "<%s[%d]>" (Sym.nonterm_name sym rule) p
  | Pred p -> pp_pred sym ppf p
  | Act { id; always } -> Fmt.pf ppf "{act%d%s}" id (if always then "!!" else "")

let pp ppf t =
  Fmt.pf ppf "ATN: %d states, %d rules, %d decisions@." t.nstates
    (Array.length t.rules) (Array.length t.decisions);
  Array.iter
    (fun ri ->
      Fmt.pf ppf "rule %s: entry=%d stop=%d@." ri.r_name ri.r_entry ri.r_stop)
    t.rules;
  for s = 0 to t.nstates - 1 do
    Array.iter
      (fun (e, tgt) -> Fmt.pf ppf "  %d -%a-> %d@." s (pp_edge t.sym) e tgt)
      t.trans.(s)
  done
