(* The interpreter's view of the ATN: a flat program with no epsilon steps.

   The ATN construction (paper section 5.1, Figures 6-7) leaves an [Eps]
   edge at every block entry and exit and at every loop, and the parser
   interpreter (section 4) would spend a loop iteration on each.  The
   program has one slot per ATN state, held in flat arrays: an opcode, two
   integer operands and a successor.  Every successor is already moved past
   the non-decision states whose edge is [Eps], so no slot the interpreter
   reaches is an epsilon step; a decision slot has a row of
   per-alternative successors, resolved the same way.

   Decision states are never skipped: the interpreter's stuck-loop guard
   keys on them.  Skipping the epsilon states between a decision and the
   next real step keeps the interpreter's fresh-prediction flag exact,
   because an epsilon step never cleared it.

   [of_atn] is one linear pass over the states with no hash tables;
   [Llstar.Compiled.compile] runs it once per grammar and keeps the result
   in the compiled value, so it travels in the compilation cache.  Lookahead
   analysis, code generation and error recovery keep reading [Atn.trans]. *)

type op =
  | Decide (* a: decision id; b: offset of its row in [alts] *)
  | Match (* a: terminal id ([Sym.wildcard] matches any token but EOF) *)
  | Call (* a: callee rule; b: its precedence argument, 0 when none *)
  | Sem (* a: index of the predicate's code in [sem] *)
  | Prec (* a: n of the precedence predicate [p <= n] *)
  | Syn (* a: rule id of the [__synpredN] fragment *)
  | Act (* a: action id; b: 1 when always executed, else 0 *)
  | Stop (* the rule's stop state: return *)
  | Dead (* no outgoing edge: an internal error if reached *)

type t = {
  ops : op array; (* state -> opcode *)
  code : int array;
    (* [stride * state + 0, 1, 2]: operand a, operand b, successor *)
  alts : int array; (* every decision's alternative successors, in order *)
  rules : int array;
    (* [3 * rule + 0, 1, 2]: first slot, entry state, synpred flag *)
  sem : string array; (* semantic-predicate code, by a [Sem] slot's operand *)
}

let stride = 3
let empty = { ops = [||]; code = [||]; alts = [||]; rules = [||]; sem = [||] }
let length p = Array.length p.ops
let op p s = p.ops.(s)
let arg p s = p.code.(stride * s)
let arg2 p s = p.code.((stride * s) + 1)
let next p s = p.code.((stride * s) + 2)

(* Successor of alternative [alt] (1-based) at the decision slot [s]. *)
let alt_next p s alt = p.alts.(arg2 p s + alt - 1)

(* The slot a rule invocation starts at: its entry state, moved past
   epsilon steps. *)
let first p r = p.rules.(3 * r)

(* The rule's ATN entry state.  When it is a decision state (a rule with
   several productions) it is also [first], and the alternative chosen
   there is the one recorded in the rule's tree node. *)
let entry p r = p.rules.((3 * r) + 1)

let is_synpred p r = p.rules.((3 * r) + 2) <> 0

(* A state the program skips: not a decision, and its (only) edge is [Eps].
   Non-decision states have at most one edge; the interpreter always
   followed the first.  Returns the edge's target, or -1. *)
let eps_target (a : Machine.t) s =
  if a.Machine.decision_of_state.(s) >= 0 then -1
  else
    match a.Machine.trans.(s) with
    | [||] -> -1
    | row -> ( match row.(0) with Machine.Eps, tgt -> tgt | _ -> -1)

let of_atn (a : Machine.t) : t =
  let n = a.Machine.nstates in
  let eps = Array.init n (eps_target a) in
  (* [resolved.(s)]: the first state reached from [s] through skipped
     states; -1 until known.  Each chain is walked twice (find its end,
     then record it for every state on it), so the pass is linear.  A
     chain longer than [n] is an epsilon cycle, which the ATN construction
     never makes (every loop passes through its decision state); it
     resolves to one of its members, whose slot is [Dead]. *)
  let resolved = Array.init n (fun s -> if eps.(s) < 0 then s else -1) in
  let resolve s0 =
    let s = ref s0 and steps = ref 0 in
    while resolved.(!s) < 0 && !steps <= n do
      s := eps.(!s);
      incr steps
    done;
    let r = if resolved.(!s) >= 0 then resolved.(!s) else !s in
    let s = ref s0 in
    while resolved.(!s) < 0 do
      resolved.(!s) <- r;
      s := eps.(!s)
    done;
    r
  in
  for s = 0 to n - 1 do
    ignore (resolve s)
  done;
  let ops = Array.make n Dead in
  let code = Array.make (stride * n) 0 in
  let nalts =
    Array.fold_left
      (fun acc (d : Machine.decision) ->
        acc + Array.length a.Machine.trans.(d.Machine.d_state))
      0 a.Machine.decisions
  in
  let alts = Array.make nalts 0 in
  let alts_len = ref 0 in
  let sem = ref [] and nsem = ref 0 in
  let set s op x y nxt =
    ops.(s) <- op;
    code.(stride * s) <- x;
    code.((stride * s) + 1) <- y;
    code.((stride * s) + 2) <- nxt
  in
  (* Slots of the states the program keeps, from their own edges. *)
  for s = 0 to n - 1 do
    if resolved.(s) = s then begin
      let d = a.Machine.decision_of_state.(s) in
      let row = a.Machine.trans.(s) in
      if d >= 0 then begin
        set s Decide d !alts_len (-1);
        Array.iter
          (fun (_, tgt) ->
            alts.(!alts_len) <- resolved.(tgt);
            incr alts_len)
          row
      end
      else if Machine.is_stop_state a s then set s Stop 0 0 (-1)
      else if Array.length row = 0 then set s Dead 0 0 (-1)
      else
        let edge, tgt = row.(0) in
        let nxt = resolved.(tgt) in
        match edge with
        | Machine.Eps -> set s Dead 0 0 (-1) (* a member of an epsilon cycle *)
        | Machine.Term term -> set s Match term 0 nxt
        | Machine.Rule { rule; arg } ->
            set s Call rule (Option.value ~default:0 arg) nxt
        | Machine.Pred (Machine.Sem text) ->
            sem := text :: !sem;
            set s Sem !nsem 0 nxt;
            incr nsem
        | Machine.Pred (Machine.Prec k) -> set s Prec k 0 nxt
        | Machine.Pred (Machine.Syn rule) -> set s Syn rule 0 nxt
        | Machine.Act { id; always } ->
            set s Act id (if always then 1 else 0) nxt
    end
  done;
  (* A skipped state's slot is a copy of the slot it resolves to, so the
     program runs the same from any state. *)
  for s = 0 to n - 1 do
    let r = resolved.(s) in
    if r <> s then begin
      ops.(s) <- ops.(r);
      Array.blit code (stride * r) code (stride * s) stride
    end
  done;
  let rules = Array.make (3 * Array.length a.Machine.rules) 0 in
  Array.iteri
    (fun r (ri : Machine.rule_info) ->
      rules.(3 * r) <- resolved.(ri.Machine.r_entry);
      rules.((3 * r) + 1) <- ri.Machine.r_entry;
      rules.((3 * r) + 2) <- (if ri.Machine.r_is_synpred then 1 else 0))
    a.Machine.rules;
  { ops; code; alts; rules; sem = Array.of_list (List.rev !sem) }
