(* LL-star grammar analysis: the modified subset construction that builds a
   lookahead DFA for every parsing decision (paper section 5, Algorithms
   8-11).

   For each decision the algorithm simulates the ATN from the alternatives'
   left-edge states.  DFA states are sets of ATN configurations; [move]
   advances over a terminal, [closure] chases every non-terminal edge,
   simulating rule invocation push/pop with the configuration stack.  A
   newly discovered state that uniquely predicts an alternative becomes an
   accept state and is not expanded further -- this is what makes the DFA
   match minimal lookahead sets LA_i rather than whole regular partitions
   (Definition 5).

   Termination (section 5.3): the LL-regular condition is undecidable, so
   closure bounds recursion with the constant [m]; hitting the bound marks
   the DFA state as overflowed, and the state is then resolved like an
   ambiguous one.  Recursion appearing in more than one alternative aborts
   construction ([Non_ll_regular], section 5.4) and the decision falls back
   to a depth-1 (LL(1)) DFA, resolved with predicates/backtracking when
   available.  A configurable state budget guards against the exponential
   "land mines" the paper mentions; exceeding it also falls back.  Our
   default instead retries such a decision with the recursion bound as the
   only governor ([Bounded]); a retry whose open frontier grows too wide at
   one lookahead depth is not converging and falls back to LL(1) early
   (see [note_open]).

   Alternative sets and terminal sets are [Bitset.t] over the decision's
   alternative count and the interned token-type universe respectively:
   the subset construction manipulates these sets on every closure and
   every discovered state, and the flat representation keeps that
   bookkeeping allocation-light.

   What one subset-construction step costs:
   - closure: each seed configuration is walked once per builder and its
     reached set memoized, sorted (see [closure]); a step reads the ATN's
     per-state flags ([Atn.state_flags], computed once per ATN before the
     decisions fan out), tests and inserts the busy set with one hash and
     walks edges with a loop; a closure's set is the merge of its seeds'
     sorted sets;
   - move: one pass per state buckets every configuration's terminal edges
     ([moves]), and a per-builder memo keyed on the canonical move set
     sends a repeated move set straight to its state ([step]);
   - conflicts: one pass over a state's runs of configurations at one ATN
     state, bucketed by stack ([conflict_info]), so the cost does not grow
     with the square of the alternatives.
   [effort] counts closure steps and conflict comparisons.

   Table keys: the dedup table, the move-set memo, the closure memo and
   the closure walk's busy set hash the whole key -- every configuration
   of a set, every field of a configuration -- with [Config.hash], and call
   stacks are hash-consed per builder ([Config.Stack]), so hashing and
   comparing a configuration costs O(1) whatever its stack depth. *)

type warning =
  | Ambiguity of { decision : int; alts : int list; path : int list }
    (* conflicting alternatives resolved in favour of the lowest-numbered
       one; [path] is a sample terminal sequence reaching the conflict *)
  | Overflow of { decision : int; path : int list }
    (* recursion bound hit; potential ambiguity resolved by order *)
  | Non_ll_regular of { decision : int }
    (* recursion in more than one alternative: gave up on the full DFA *)
  | Dfa_too_big of { decision : int; limit : int }
  | Not_converging of {
      decision : int;
      depth : int;
      open_states : int;
      states : int;
    }
    (* the Bounded retry opened more than [open_limit] undecided states at
       lookahead depth [depth], after building [states] states *)
  | Dead_alternative of { decision : int; alt : int }

type decision_class =
  | Fixed of int (* pure LL(k) decision: acyclic DFA, max lookahead k *)
  | Cyclic (* cyclic DFA: arbitrary (regular) lookahead *)
  | Backtrack (* at least one syntactic-predicate edge: may speculate *)

type result = {
  dfa : Look_dfa.t;
  klass : decision_class;
  warnings : warning list;
  fallback : bool;
}

(* DFA states built by each attempt at a decision -- the full
   construction, the [Bounded] retry and the LL(1) fallback -- abandoned
   attempts included. *)
type states_built = { primary : int; bounded : int; ll1 : int }

let total_states s = s.primary + s.bounded + s.ll1

(* Analysis effort: the states each attempt built, plus the work summed
   over every attempt -- closure steps (configurations the closure walk
   visited, busy ones included) and conflict comparisons (configurations
   bucketed by stack, plus the Definition 6 tests between distinct stacks,
   see [relate_stacks]).  Counts, not times, so they are deterministic. *)
type effort = {
  states : states_built;
  closure_steps : int;
  conflict_comparisons : int;
}

type fallback_strategy =
  | Bounded
    (* retry the full construction with the recursion bound as the only
       governor; strictly stronger than LL(1), still terminating *)
  | Ll1 (* the paper's section-5.4 fallback: a depth-1 DFA *)

type options = {
  m : int; (* closure recursion bound *)
  max_states : int; (* DFA state budget per decision *)
  k_cap : int option; (* optional user cap on DFA depth *)
  fallback : fallback_strategy;
    (* what to do when recursion appears in more than one alternative *)
  minimize : bool; (* run Moore minimization over each lookahead DFA *)
}

let default_options =
  { m = 1; max_states = 2000; k_cap = None; fallback = Bounded; minimize = false }

let options_of_grammar (g : Grammar.Ast.t) =
  { default_options with m = g.options.m; k_cap = g.options.k }

exception Non_ll_regular_exn
exception Too_big
exception Not_converging_exn of { depth : int; open_states : int }

(* ------------------------------------------------------------------ *)
(* Mutable DFA states during construction *)

type wstate = {
  id : int;
  mutable configs : Config.t list; (* canonical; resolve may prune *)
  mutable term_edges : (int * int) list; (* reversed *)
  mutable accept : int;
  mutable pred_edges : Look_dfa.pred_edge list;
  mutable overflow : bool;
  depth : int; (* terminal distance from D0, for k-cap enforcement *)
  path : int list; (* sample terminal path from D0, reversed *)
}

(* Cached closure of a single seed configuration: the significant
   configurations its walk reaches (canonical), whether the walk hit the
   recursion bound, and the alternatives it found left-recursing.  Only
   completed walks are cached, so a cached entry is independent of the
   busy-set and [allow_multi_recursion] state at the time it was
   recorded.  [cm_seed] is the seed the entry is keyed on, shared by the
   move-set memo's keys. *)
type closure_memo_entry = {
  cm_seed : Config.t;
  cm_reached : Config.t list;
  cm_overflow : bool;
  cm_rec_alts : int list;
}

(* DFA-state identity: a canonical configuration set with its hash,
   computed once per discovered set. *)
type set_key = { set : Config.t list; set_hash : int }

module Dedup = Hashtbl.Make (struct
  type t = set_key

  let equal a b =
    a.set_hash = b.set_hash && List.equal Config.equal a.set b.set
  let hash k = k.set_hash
end)

let set_key set = { set; set_hash = Config.hash_list set }

(* Move-set memo key: a canonical move set as an array, with its hash.  A
   stored key's configurations are the closure memo's seeds, so an entry
   costs a word per configuration. *)
type move_key = { seeds : Config.t array; seeds_hash : int }

module Moves = Hashtbl.Make (struct
  type t = move_key

  let equal a b =
    a.seeds_hash = b.seeds_hash
    && Array.length a.seeds = Array.length b.seeds
    && Array.for_all2 Config.equal a.seeds b.seeds

  let hash k = k.seeds_hash
end)

(* [conflict_info]'s working space, reused across the states of a builder.
   [slot] maps a stack id to its bucket in the current run (-1 between
   runs); bucket [s] holds [stacks.(s)], the summary [own.(s)] of its
   alternatives and the pooled summary [rel.(s)] of its equivalent
   buckets.

   The stacks' top-first prefixes are interned in a trie: node 0 is the
   empty prefix and [trie] maps (node, frame) to the node one frame
   deeper.  [paths.(id)] is the path of the stack with that id --
   [path.(d)] is the node of its top [d] frames, so the last node stands
   for the whole stack -- computed once per stack.  [node_bucket] maps a
   node to the bucket of the run's stack ending there (-1 between
   runs). *)
type run_scratch = {
  mutable slot : int array;
  mutable stacks : Config.Stack.t array;
  mutable own : int array;
  mutable rel : int array;
  trie : (int * int, int) Hashtbl.t;
  mutable paths : int array array;
  mutable node_bucket : int array;
}

type builder = {
  atn : Atn.t;
  flags : Atn.state_flags; (* shared by every builder of the ATN, read-only *)
  opts : options;
  decision : Atn.decision;
  mutable states : wstate list; (* reversed *)
  mutable nstates : int;
  dedup : wstate Dedup.t;
  move_memo : wstate Moves.t;
    (* canonical move set -> the state its closure reached *)
  recursive_alts : Bitset.t; (* universe: d_nalts + 1 *)
  stacks : Config.Stack.table; (* hash-consed call stacks *)
  closure_memo : closure_memo_entry Config.Tbl.t;
  busy : Config.Busy.set;
    (* one seed's closure walk; cleared between seeds, never shared *)
  mutable move_buckets : Config.t list array;
    (* [moves] scratch, one list per terminal; empty between calls *)
  runs : run_scratch; (* [conflict_info] scratch *)
  mutable alt_slot : int array;
    (* [resolve_with_preds] scratch, indexed by alternative; -1 between
       calls *)
  mutable warnings : warning list;
  mutable uses_synpred : bool;
  allow_multi_recursion : bool; (* true in the fallback attempts *)
  mutable open_at_depth : int array;
    (* index k: fresh states at lookahead depth k that settled undecided,
       counted only when [allow_multi_recursion]; grows on demand *)
  mutable closure_steps : int;
  mutable conflict_comparisons : int;
}

let busy_initial = 64
let alt_universe (d : Atn.decision) = d.Atn.d_nalts + 1

let warn b w = b.warnings <- w :: b.warnings

(* ------------------------------------------------------------------ *)
(* Closure (Algorithm 9) *)

(* Compute the closure of [seed] configurations.  [overflowed] is set when
   the recursion bound is reached.  The busy set prevents infinite loops
   through epsilon cycles (EBNF loops) and redundant work.

   Each seed's walk is independent (cleared busy set) and deterministic in
   the seed configuration alone, so completed walks are memoized on the
   builder: distinct (state, terminal) steps that move onto the same
   configuration replay its recorded closure instead of re-walking the
   ATN.  Each walk's reached set is kept canonical (sorted, deduplicated),
   and the closure is their [Config.union]: the per-seed decomposition
   produces exactly the configuration sets the shared-walk formulation
   did.  Walks are not cached while hoisting
   predicates (the start state's closure) -- the [sem]/[free]/[crossed]
   collection differs there and D0 is built once per decision anyway --
   nor when aborted by [Non_ll_regular_exn], which abandons the builder
   (busy set included).

   A step reads the state's significance, stop and decision flags from
   [b.flags], tests and inserts the busy set with one hash, and walks the
   state's edges with a loop: the walk allocates only the configurations
   it steps to, the busy set's entries and the lists it records. *)
let closure ?(collect_preds = false) (b : builder) (seed : Config.t list) :
    Config.t list * bool =
  let acc = ref [] in
  let overflowed = ref false in
  let atn = b.atn and flags = b.flags in
  let note_recursion alt =
    Bitset.add b.recursive_alts alt;
    if Bitset.cardinal b.recursive_alts > 1 && not b.allow_multi_recursion
    then raise Non_ll_regular_exn
  in
  (* Predicate hoisting discipline (section 5.5): see the [free] and
     [crossed] flags on configurations.  Semantic predicates are hoisted
     from arbitrarily deep in the derivation chain (that is what makes C's
     isTypeName work); syntactic predicates gate exactly the nested
     alternative they were written on, so they are only collected before
     closure passes a nested decision state.  Neither is collected after a
     configuration escapes its alternative's derivation through an
     empty-stack pop. *)
  let busy = b.busy in
  let run_seed (seed_c : Config.t) =
    let reached = ref [] in
    let walk_overflow = ref false in
    let rec_alts = ref [] in
    let rec go (c : Config.t) =
      b.closure_steps <- b.closure_steps + 1;
      if Config.Busy.add busy c then begin
        (* Only configurations at *significant* states -- stop states and
           states with outgoing terminal edges (or none at all) -- enter
           the DFA state's set.  Pass-through configurations (epsilon,
           action, predicate and rule-call positions) carry no information
           their successors do not, and recording them creates spurious
           Definition-7 conflicts, e.g. a configuration sitting just before
           its own predicate edge with its semantic context not yet
           collected. *)
        if flags.significant.(c.state) then reached := c :: !reached;
        let c =
          if (not c.crossed) && flags.decision.(c.state) then
            { c with crossed = true }
          else c
        in
        if flags.stop.(c.state) then
          (* Submachine stop: pop the return state, or -- with an empty
             stack, the wildcard context -- chase every call site of this
             rule. *)
          match c.stack with
          | Push { top = f; rest; _ } -> go { c with state = f; stack = rest }
          | Empty ->
              let rule = atn.state_rule.(c.state) in
              List.iter
                (fun (follow, _arg) ->
                  go { c with state = follow; stack = Empty; free = true })
                atn.callers.(rule)
        else
          let edges = atn.trans.(c.state) in
          for i = 0 to Array.length edges - 1 do
            let edge, tgt = edges.(i) in
            match edge with
            | Atn.Term _ -> () (* left for move *)
            | Atn.Eps | Atn.Act _ -> go { c with state = tgt }
            | Atn.Pred p ->
                (* Hoisting is restricted to predicates *visible at the
                   left edge* of the decision (section 5.5): only the start
                   state's closure collects them ([collect_preds]), because
                   a predicate first reached after k tokens of lookahead
                   would be evaluated at the decision point, k tokens too
                   early.  Configurations carry already-collected contexts
                   across moves unchanged. *)
                let collectable =
                  collect_preds
                  &&
                  match p with
                  | Atn.Sem _ | Atn.Prec _ -> not c.free
                  | Atn.Syn _ -> (not c.free) && not c.crossed
                in
                let sem =
                  match c.sem with None when collectable -> Some p | s -> s
                in
                go { c with state = tgt; sem }
            | Atn.Rule { rule; arg = _ } ->
                let follow = tgt in
                let depth = Config.Stack.count follow c.stack in
                if depth >= 1 then begin
                  rec_alts := c.alt :: !rec_alts;
                  note_recursion c.alt
                end;
                if depth >= b.opts.m then begin
                  walk_overflow := true;
                  (* Keep the cut configuration itself even though its
                     state is a pass-through: it is the only evidence that
                     this alternative remains viable beyond the bound. *)
                  reached := c :: !reached
                end
                else
                  go
                    {
                      c with
                      state = atn.rules.(rule).r_entry;
                      stack = Config.Stack.push b.stacks follow c.stack;
                    }
          done
      end
    in
    go seed_c;
    (* [clear] costs the set's bucket count: a walk that grew the set past
       its initial size gives the memory back instead, so later small walks
       keep clearing a small set. *)
    if Config.Busy.length busy > 2 * busy_initial then
      Config.Busy.reset busy busy_initial
    else Config.Busy.clear busy;
    let reached = Config.canonicalize !reached in
    (* the walk completed: safe to cache *)
    if not collect_preds then
      Config.Tbl.replace b.closure_memo seed_c
        {
          cm_seed = seed_c;
          cm_reached = reached;
          cm_overflow = !walk_overflow;
          cm_rec_alts = !rec_alts;
        };
    acc := reached :: !acc;
    if !walk_overflow then overflowed := true
  in
  List.iter
    (fun c ->
      match
        if collect_preds then None else Config.Tbl.find_opt b.closure_memo c
      with
      | Some e ->
          List.iter note_recursion e.cm_rec_alts;
          acc := e.cm_reached :: !acc;
          if e.cm_overflow then overflowed := true
      | None -> run_seed c)
    seed;
  (Config.union !acc, !overflowed)

(* ------------------------------------------------------------------ *)
(* Move: configurations reachable on each terminal (Algorithm 8's move). *)

(* Terminals with outgoing edges from any configuration of [configs];
   ascending (bitset iteration order). *)
let outgoing_terminals (atn : Atn.t) (configs : Config.t list) : int list =
  let seen = Bitset.create (Grammar.Sym.num_terms atn.sym) in
  List.iter
    (fun (c : Config.t) ->
      Array.iter
        (fun (edge, _) ->
          match edge with Atn.Term t -> Bitset.add seen t | _ -> ())
        atn.trans.(c.state))
    configs;
  Bitset.elements seen

(* The move of [configs] on every outgoing terminal, in one pass over the
   configurations: ascending terminals, each with its (non-empty) move list
   in configuration order, then edge order.  A wildcard edge moves on every
   terminal but EOF, so its target joins each of those lists at its own
   position -- the lists are exactly what moving on one terminal at a time
   produced, which keeps the closure walks, and so the step counts and
   every DFA, as they were. *)
let moves (b : builder) (configs : Config.t list) : (int * Config.t list) list
    =
  let atn = b.atn in
  match outgoing_terminals atn configs with
  | [] -> []
  | outgoing ->
      if Array.length b.move_buckets = 0 then
        b.move_buckets <- Array.make (Grammar.Sym.num_terms atn.sym) [];
      let buckets = b.move_buckets in
      List.iter
        (fun (c : Config.t) ->
          let edges = atn.trans.(c.state) in
          for i = 0 to Array.length edges - 1 do
            match edges.(i) with
            | Atn.Term t, tgt ->
                let c' = { c with state = tgt } in
                if t = Grammar.Sym.wildcard then
                  List.iter
                    (fun a ->
                      if a <> Grammar.Sym.eof then
                        buckets.(a) <- c' :: buckets.(a))
                    outgoing
                else buckets.(t) <- c' :: buckets.(t)
            | _ -> ()
          done)
        configs;
      List.map
        (fun a ->
          let mv = List.rev buckets.(a) in
          buckets.(a) <- [];
          (a, mv))
        outgoing

(* ------------------------------------------------------------------ *)
(* Resolve (Algorithms 10 and 11) *)

let viable_alts (b : builder) (configs : Config.t list) : Bitset.t =
  let s = Bitset.create (alt_universe b.decision) in
  List.iter (fun (c : Config.t) -> Bitset.add s c.alt) configs;
  s

(* Alternative summaries of a set of configurations: 0 for none, [a > 0]
   for exactly alternative [a], [several] for two or more. *)
let several = -1

let merge_alts x y = if x = 0 || x = y then y else if y = 0 then x else several

(* Some alternative of summary [s] differs from [alt]. *)
let has_other s alt = s = several || (s > 0 && s <> alt)

(* Grow [a] (filled with [x]) to at least [n] elements. *)
let grown a n x =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) x in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* The trie path of [stack] (see [run_scratch]). *)
let trie_path (b : builder) (stack : Config.Stack.t) : int array =
  let r = b.runs in
  let id = Config.Stack.id stack in
  r.paths <- grown r.paths (id + 1) [||];
  if Array.length r.paths.(id) > 0 then r.paths.(id)
  else begin
    let path = Array.make (Config.Stack.depth stack + 1) 0 in
    let rec walk d node = function
      | Config.Stack.Empty -> ()
      | Push { top; rest; _ } ->
          let child =
            match Hashtbl.find_opt r.trie (node, top) with
            | Some child -> child
            | None ->
                let child = Hashtbl.length r.trie + 1 in
                Hashtbl.add r.trie (node, top) child;
                child
          in
          path.(d + 1) <- child;
          walk (d + 1) child rest
    in
    walk 0 0 stack;
    r.paths.(id) <- path;
    path
  end

(* Stack depths as a bit set, depths past 62 sharing the top bit. *)
let depth_bit d = 1 lsl min d 62

(* Runs with at most this many distinct stacks test every pair of them. *)
let pairwise_stacks = 8

(* Pool the summaries [own] of the [k] distinct stacks [stacks.(0..k-1)]
   of one run into [rel]: [rel.(p)] gets the summary of every other stack
   equivalent to [stacks.(p)] (Definition 6).  Distinct stacks are
   equivalent when one is a proper top-first prefix of the other, the empty
   stack being a prefix of every stack, so a run whose stacks all have one
   depth ([depths], a [depth_bit] set) relates none.  A few stacks are
   tested pairwise.  Past [pairwise_stacks], pairs would grow with the
   square of the stacks -- in a wide decision every alternative calls a
   shared rule from its own call site, so each alternative has stacks of
   its own -- and each stack's proper prefixes are looked up among the
   run's stacks through their trie nodes instead, one probe per frame at a
   depth where some stack of the run ends.  Each pair test or probe is one
   conflict comparison. *)
let relate_stacks (b : builder) (k : int) (depths : int) : unit =
  let r = b.runs in
  let { stacks; own; rel; _ } = r in
  let compared () = b.conflict_comparisons <- b.conflict_comparisons + 1 in
  let relate p q =
    rel.(p) <- merge_alts rel.(p) own.(q);
    rel.(q) <- merge_alts rel.(q) own.(p)
  in
  if depths land (depths - 1) = 0 then ()
  else if k <= pairwise_stacks then
    for p = 0 to k - 1 do
      for q = p + 1 to k - 1 do
        compared ();
        if Config.stacks_equivalent stacks.(p) stacks.(q) then relate p q
      done
    done
  else begin
    let paths = Array.init k (fun p -> trie_path b stacks.(p)) in
    r.node_bucket <- grown r.node_bucket (Hashtbl.length r.trie + 1) (-1);
    let node_bucket = r.node_bucket in
    let whole path = path.(Array.length path - 1) in
    Array.iteri (fun p path -> node_bucket.(whole path) <- p) paths;
    Array.iteri
      (fun p path ->
        for d = 0 to Array.length path - 2 do
          if depths land depth_bit d <> 0 then begin
            compared ();
            let q = node_bucket.(path.(d)) in
            if q >= 0 then relate p q
          end
        done)
      paths;
    Array.iter (fun path -> node_bucket.(whole path) <- -1) paths
  end

(* Room in [b.runs] for a run of [len] configurations. *)
let reserve_run (b : builder) (len : int) : unit =
  let r = b.runs in
  r.slot <- grown r.slot b.stacks.Config.Stack.next (-1);
  if Array.length r.own < len then begin
    let size = max len (2 * Array.length r.own) in
    r.stacks <- Array.make size Config.Stack.empty;
    r.own <- Array.make size 0;
    r.rel <- Array.make size 0
  end

(* The conflict set of a configuration set (Definition 7), together with the
   configurations that participate in a conflicting pair: [part.(i)] for
   the [i]th configuration of [configs] ([part] is empty when there is no
   conflict).

   [configs] is canonical, so it is sorted by ATN state and each state's
   group is one run of it.  Inside a run the configurations are bucketed by
   their hash-consed stack, one bucket per distinct stack, and each bucket
   summarises its alternatives.  Then:
   - a bucket with several alternatives conflicts with itself: every member
     has a partner on the same stack predicting another alternative;
   - buckets whose stacks are equivalent pool their summaries
     ([relate_stacks]);
   - a configuration participates when its own bucket has several
     alternatives or an equivalent bucket holds an alternative other than
     its own.
   A run costs one comparison per configuration plus [relate_stacks]'s,
   which depend on its distinct stacks, not on its alternatives: comparing
   every pair of configurations was quadratic in the alternatives, because
   every alternative of a wide decision reaches the same ATN states.  A
   state's only allocations are the alternative set and, if something
   conflicts, [part]. *)
let conflict_info (b : builder) (configs : Config.t list) :
    Bitset.t * bool array =
  let alts = Bitset.create (alt_universe b.decision) in
  let part = ref [||] in
  let mark x =
    if Array.length !part = 0 then
      part := Array.make (List.length configs) false;
    !part.(x) <- true
  in
  (* [f x c] on the first [len] configurations [c] of [l], [x] counting
     from [first]. *)
  let rec iter_run f x len l =
    match l with
    | c :: rest when len > 0 ->
        f x c;
        iter_run f (x + 1) (len - 1) rest
    | _ -> ()
  in
  (* The run of [len] configurations at the head of [run], the first being
     the [first]th of [configs]. *)
  let resolve_run first run len =
    reserve_run b len;
    let { slot; stacks; own; rel; _ } = b.runs in
    let k = ref 0 and depths = ref 0 in
    iter_run
      (fun _ (c : Config.t) ->
        let id = Config.Stack.id c.stack in
        if slot.(id) < 0 then begin
          slot.(id) <- !k;
          stacks.(!k) <- c.stack;
          own.(!k) <- 0;
          rel.(!k) <- 0;
          depths := !depths lor depth_bit (Config.Stack.depth c.stack);
          incr k
        end;
        own.(slot.(id)) <- merge_alts own.(slot.(id)) c.alt)
      first len run;
    relate_stacks b !k !depths;
    iter_run
      (fun x (c : Config.t) ->
        let s = slot.(Config.Stack.id c.stack) in
        if own.(s) = several || has_other rel.(s) c.alt then begin
          mark x;
          Bitset.add alts c.alt
        end)
      first len run;
    for s = 0 to !k - 1 do
      slot.(Config.Stack.id stacks.(s)) <- -1
    done;
    b.conflict_comparisons <- b.conflict_comparisons + len
  in
  let rec runs first = function
    | [] -> ()
    | (c : Config.t) :: rest as run ->
        let rec length len = function
          | (c' : Config.t) :: rest when c'.state = c.state ->
              length (len + 1) rest
          | tail -> (len, tail)
        in
        let len, tail = length 1 rest in
        if len > 1 then resolve_run first run len;
        runs (first + len) tail
  in
  runs 0 configs;
  (alts, !part)

let participates (part : bool array) x = x < Array.length part && part.(x)

(* Per-alternative agreement of the predicates carried by a set of
   configurations: [Agree p] when every one carries [p]. *)
type pred_acc = Unseen | Agree of Atn.pred | Disagree

let agree acc (sem : Config.sem_ctx) =
  match (acc, sem) with
  | Unseen, Some p -> Agree p
  | Agree p, Some q when Config.compare_pred p q = 0 -> acc
  | _ -> Disagree

(* [b.alt_slot] maps each alternative of [alt_list] to its position in it,
   for one pass over a state's configurations; [release_alt_slots] puts it
   back. *)
let alt_slots (b : builder) (alt_list : int list) : int array =
  if Array.length b.alt_slot = 0 then
    b.alt_slot <- Array.make (alt_universe b.decision) (-1);
  List.iteri (fun i a -> b.alt_slot.(a) <- i) alt_list;
  b.alt_slot

let release_alt_slots (b : builder) (alt_list : int list) =
  List.iter (fun a -> b.alt_slot.(a) <- -1) alt_list

(* Try to resolve the alternatives in [alts] with predicates
   (Algorithm 11, resolveWithPreds).  Each alternative needs a
   representative configuration carrying a predicate.  Two refinements over
   the paper's pseudocode, both matching the hoisting behaviour sketched in
   section 5.5 and required by the precedence-climbing loops of the
   left-recursion rewrite:

   - gated default: if exactly one conflicting alternative lacks a predicate
     and it is the highest-numbered one (e.g. a loop's implicit exit
     branch), it becomes the default, tested after every real predicate;
   - lookahead gating: each predicate edge carries the set of terminals its
     alternative can actually start with at this state, so a predicate is
     only consulted for inputs on which its alternative is viable (hoisted
     predicates are conjoined with lookahead-membership tests).

   [part], when given, marks the configurations of [d.configs] that
   participate in a conflict ([conflict_info]).  The predicates of every
   alternative are found in one pass over the configurations, and their
   guards in one more. *)
let resolve_with_preds (b : builder) (d : wstate) ?(part : bool array option)
    (alts : Bitset.t) : bool =
  let alt_list = Bitset.elements alts in
  let nalts = List.length alt_list in
  (* A predicate covers an alternative only when every configuration of that
     alternative that participates in a conflict carries it: a predicate
     hoisted from one derivation branch must not gate inputs that reach the
     alternative through unpredicated branches.  Without conflict pairs
     (recursion overflow), every configuration of the alternative counts. *)
  let in_part = Array.make nalts Unseen and in_all = Array.make nalts Unseen in
  let slot = alt_slots b alt_list in
  List.iteri
    (fun x (c : Config.t) ->
      let i = slot.(c.alt) in
      if i >= 0 then begin
        in_all.(i) <- agree in_all.(i) c.sem;
        match part with
        | Some part when participates part x ->
            in_part.(i) <- agree in_part.(i) c.sem
        | _ -> ()
      end)
    d.configs;
  let preds =
    Array.init nalts (fun i ->
        match (match in_part.(i) with Unseen -> in_all.(i) | acc -> acc) with
        | Agree p -> Some p
        | Unseen | Disagree -> None)
  in
  let indexed = List.mapi (fun i a -> (i, a)) alt_list in
  let with_preds, without =
    List.partition (fun (i, _) -> preds.(i) <> None) indexed
  in
  (* Terminals on which each alternative is viable at this state.  On an
     overflowed state the closure was truncated by the recursion bound, so
     the computed set under-approximates and the gate must be dropped
     (matching the paper's Figure 2, whose backtracking state carries
     unguarded predicate edges). *)
  let guards () =
    if d.overflow then Array.make nalts []
    else begin
      let num_terms = Grammar.Sym.num_terms b.atn.sym in
      let sets = Array.init nalts (fun _ -> Bitset.create num_terms) in
      List.iter
        (fun (c : Config.t) ->
          let i = slot.(c.alt) in
          if i >= 0 then
            Array.iter
              (fun (edge, _) ->
                match edge with
                | Atn.Term t -> Bitset.add sets.(i) t
                | _ -> ())
              b.atn.trans.(c.state))
        d.configs;
      Array.map Bitset.elements sets
    end
  in
  let edges guards l : Look_dfa.pred_edge list =
    List.map
      (fun (i, a) -> { Look_dfa.guard = guards.(i); pred = preds.(i); alt = a })
      l
  in
  let resolved =
    match without with
    | [] ->
        d.pred_edges <- edges (guards ()) indexed;
        true
    | [ (_, dflt) ] when Some dflt = Bitset.max_elt_opt alts && with_preds <> []
      ->
        d.pred_edges <-
          edges (guards ()) with_preds
          @ [ { guard = []; pred = None; alt = dflt } ];
        true
    | _ -> false
  in
  release_alt_slots b alt_list;
  resolved

(* Resolve ambiguities and overflow in a freshly discovered state
   (Algorithm 10).  Mutates the state: either installs predicate edges or
   prunes configurations of losing alternatives. *)
let resolve (b : builder) (d : wstate) : unit =
  let conflicts, part = conflict_info b d.configs in
  let needs_resolution = (not (Bitset.is_empty conflicts)) || d.overflow in
  if needs_resolution then begin
    let target_alts =
      if Bitset.is_empty conflicts then viable_alts b d.configs else conflicts
    in
    if Bitset.cardinal target_alts <= 1 then ()
    else if resolve_with_preds b d ~part target_alts then
      List.iter
        (fun (e : Look_dfa.pred_edge) ->
          match e.pred with
          | Some (Atn.Syn _) -> b.uses_synpred <- true
          | _ -> ())
        d.pred_edges
    else begin
      (* Resolve statically in favour of the lowest-numbered alternative.
         Refinement of Algorithm 10: only the configurations that actually
         participate in a conflict are removed (the pseudocode removes every
         configuration of the losing alternatives, which would also destroy
         their unambiguous lookahead paths -- e.g. a loop exit's distinct
         follow terminals when only its wrap-around path conflicts).  On
         recursion overflow there are no conflict pairs, so the losing
         alternatives are pruned wholesale as in the paper. *)
      let keep = Option.get (Bitset.min_elt_opt target_alts) in
      let doomed x (c : Config.t) =
        c.alt <> keep
        && Bitset.mem target_alts c.alt
        && (Bitset.is_empty conflicts || participates part x)
      in
      d.configs <- List.filteri (fun x c -> not (doomed x c)) d.configs;
      if d.overflow then
        warn b (Overflow { decision = b.decision.d_id; path = List.rev d.path })
      else
        warn b
          (Ambiguity
             {
               decision = b.decision.d_id;
               alts = Bitset.elements target_alts;
               path = List.rev d.path;
             })
    end
  end

(* Alternatives that have run off the end of a syntactic-predicate fragment:
   a configuration at the stop state of a rule with no callers and an empty
   stack.  A syntactic predicate only checks a *prefix* of the remaining
   input (section 4.1), so reaching the fragment's end means the predicate
   holds regardless of what follows; such alternatives become a gated
   default tried after the state's terminal edges. *)
let fragment_end_alts (b : builder) (configs : Config.t list) : Bitset.t =
  let atn = b.atn in
  let acc = Bitset.create (alt_universe b.decision) in
  List.iter
    (fun (c : Config.t) ->
      if c.stack == Config.Stack.empty && b.flags.stop.(c.state) then begin
        let rule = atn.state_rule.(c.state) in
        if atn.callers.(rule) = [] then Bitset.add acc c.alt
      end)
    configs;
  acc

(* Install the fragment-end default on a state that is not otherwise
   resolved; the state keeps expanding its terminal edges. *)
let attach_fragment_end (b : builder) (d : wstate) : unit =
  if d.accept = 0 && d.pred_edges = [] then
    match Bitset.min_elt_opt (fragment_end_alts b d.configs) with
    | Some alt ->
        let others = viable_alts b d.configs in
        Bitset.remove others alt;
        if not (Bitset.is_empty others) then
          d.pred_edges <- [ { Look_dfa.guard = []; pred = None; alt } ]
    | None -> ()

(* ------------------------------------------------------------------ *)
(* createDFA (Algorithm 8) *)

let new_wstate (b : builder) ~depth ~path configs overflow : wstate * bool =
  let key = set_key configs in
  match Dedup.find_opt b.dedup key with
  | Some d -> (d, false)
  | None ->
      if b.nstates >= b.opts.max_states then raise Too_big;
      let d =
        {
          id = b.nstates;
          configs;
          term_edges = [];
          accept = 0;
          pred_edges = [];
          overflow;
          depth;
          path;
        }
      in
      Dedup.add b.dedup key d;
      b.states <- d :: b.states;
      b.nstates <- b.nstates + 1;
      (d, true)

let freeze (b : builder) ~fallback : Look_dfa.t =
  let states = Array.of_list (List.rev b.states) in
  let n = Array.length states in
  let edges =
    Array.map
      (fun d ->
        let arr = Array.of_list (List.rev d.term_edges) in
        Array.sort compare arr;
        arr)
      states
  in
  let accept = Array.map (fun d -> d.accept) states in
  let preds = Array.map (fun d -> Array.of_list d.pred_edges) states in
  let overflowed = Array.map (fun d -> d.overflow) states in
  let t : Look_dfa.t =
    {
      decision = b.decision.d_id;
      start = 0;
      nstates = n;
      edges;
      accept;
      preds;
      overflowed;
      cyclic = false;
      max_k = None;
      uses_synpred = b.uses_synpred;
      fallback;
      start_row = [||];
    }
  in
  let max_k = Look_dfa.compute_max_k t in
  Look_dfa.with_start_row
    { t with cyclic = max_k = None; max_k }
    ~num_terms:(Grammar.Sym.num_terms b.atn.Atn.sym)

(* The state that move set [mv] leads to, and whether it is fresh.  The
   builder memoizes this per canonical move set: a move set met before
   goes straight to its state, with no closure, canonicalization or dedup
   lookup.  That skips no closure step -- every seed of a repeated move set
   is in the closure memo already -- and the state is the one dedup would
   have found, so every DFA stays as it was. *)
let step (b : builder) ~depth ~path (mv : Config.t list) : wstate * bool =
  let canonical = Config.canonicalize mv in
  let key =
    { seeds = Array.of_list canonical; seeds_hash = Config.hash_list canonical }
  in
  match Moves.find_opt b.move_memo key with
  | Some d -> (d, false)
  | None ->
      let configs, overflow = closure b mv in
      let ((d, _) as target) = new_wstate b ~depth ~path configs overflow in
      (* the closure left every seed in the closure memo *)
      Array.iteri
        (fun i c ->
          key.seeds.(i) <- (Config.Tbl.find b.closure_memo c).cm_seed)
        key.seeds;
      Moves.add b.move_memo key d;
      target

(* Settle a freshly discovered state: resolve its conflicts, accept when
   exactly one viable alternative survives without predicate edges, and
   attach the fragment-end default.  The LL(1) fallback's D0 is the one
   state settled without that default ([fragment_end:false]). *)
let settle ?(fragment_end = true) (b : builder) (d : wstate) : unit =
  resolve b d;
  (match Bitset.elements (viable_alts b d.configs) with
  | [ j ] when d.pred_edges = [] -> d.accept <- j
  | _ -> ());
  if fragment_end then attach_fragment_end b d

(* The start state D0: the closure of each alternative's left edge,
   settled. *)
let build_d0 ?fragment_end (b : builder) : wstate =
  let targets = Atn.decision_alt_targets b.atn b.decision in
  let seeds =
    Array.to_list
      (Array.mapi (fun i tgt -> Config.make tgt (i + 1)) targets)
  in
  let configs, overflow = closure ~collect_preds:true b seeds in
  let d, _fresh = new_wstate b ~depth:0 ~path:[] configs overflow in
  settle ?fragment_end b d;
  d

(* A state keeps expanding while some viable alternative is not covered by
   its predicate edges: conflict resolution only predicates the alternatives
   that actually conflict, and an uncovered alternative may still be
   separated by more lookahead (the predicate edges then serve as the
   fallback when no terminal edge matches -- the fragment-end default is the
   degenerate case).  Accepts, and predicate edges covering every viable
   alternative, make a state terminal. *)
let preds_cover_viable (b : builder) (d : wstate) =
  let viable = viable_alts b d.configs in
  List.iter
    (fun (e : Look_dfa.pred_edge) -> Bitset.remove viable e.alt)
    d.pred_edges;
  Bitset.is_empty viable

let should_expand (b : builder) (d : wstate) =
  d.accept = 0 && (d.pred_edges = [] || not (preds_cover_viable b d))

(* Non-convergence of a [Bounded] retry.  Every fresh state that settles
   undecided is counted at its lookahead depth.  A retry that converges
   keeps that frontier narrow -- on the six bench grammars at most 62 open
   states at any one depth -- while the retries that run away to the state
   budget open hundreds (342-763) at one depth before they exhaust it.  So
   once one depth holds more than [open_limit] undecided states, the retry
   gives up for the LL(1) fallback instead of building the rest of the
   budget.  Only builders that allow multi-alternative recursion (the
   retry) count; primary constructions are governed by [max_states]
   alone, and the LL(1) fallback never steps past depth 1. *)
let open_limit (opts : options) = opts.max_states / 16

(* Count [d] as open at its depth, giving up once that depth holds more
   than [open_limit] undecided states. *)
let note_open (b : builder) (d : wstate) : unit =
  let k = d.depth in
  let len = Array.length b.open_at_depth in
  if k >= len then begin
    let grown = Array.make (max (k + 1) (2 * len)) 0 in
    Array.blit b.open_at_depth 0 grown 0 len;
    b.open_at_depth <- grown
  end;
  let n = b.open_at_depth.(k) + 1 in
  b.open_at_depth.(k) <- n;
  if n > open_limit b.opts then
    raise (Not_converging_exn { depth = k; open_states = n })

(* User-capped depth (the grammar's k option): force a resolution at this
   state instead of expanding it further. *)
let force_cap_resolution (b : builder) (d : wstate) : unit =
  let alts = viable_alts b d.configs in
  if not (resolve_with_preds b d alts) then begin
    d.accept <- Option.get (Bitset.min_elt_opt alts);
    warn b
      (Ambiguity
         {
           decision = b.decision.d_id;
           alts = Bitset.elements alts;
           path = List.rev d.path;
         })
  end

(* Algorithm 8's work list: each state that is still open is expanded
   once.  Past the user's k-cap a resolution is forced; otherwise every
   outgoing terminal is stepped ([moves], then [step]: closure + dedup),
   and a target met for the first time is settled and, if still open,
   queued. *)
let create_dfa_exn (b : builder) : Look_dfa.t =
  let d0 = build_d0 b in
  let work = Queue.create () in
  if should_expand b d0 then Queue.add d0 work;
  while not (Queue.is_empty work) do
    let d = Queue.pop work in
    match b.opts.k_cap with
    | Some k when d.depth >= k -> force_cap_resolution b d
    | _ ->
        List.iter
          (fun (a, mv) ->
            let d', fresh =
              step b ~depth:(d.depth + 1) ~path:(a :: d.path) mv
            in
            if fresh then settle b d';
            let open_ = fresh && should_expand b d' in
            if open_ && b.allow_multi_recursion then note_open b d';
            d.term_edges <- (a, d'.id) :: d.term_edges;
            if open_ then Queue.add d' work)
          (moves b d.configs)
  done;
  freeze b ~fallback:false

(* ------------------------------------------------------------------ *)
(* LL(1) fallback (section 5.4): a depth-1 DFA where every successor of D0
   is forced to a resolution -- by predicates (including the backtracking
   syntactic predicates of PEG mode) when available, by production order
   otherwise. *)

let create_fallback (b : builder) : Look_dfa.t =
  let d0 = build_d0 ~fragment_end:false b in
  if d0.accept = 0 && d0.pred_edges = [] then
    List.iter
      (fun (a, mv) ->
        let d', fresh = step b ~depth:1 ~path:[ a ] mv in
        if fresh then begin
          let alts = viable_alts b d'.configs in
          if Bitset.cardinal alts = 1 then
            d'.accept <- Option.get (Bitset.min_elt_opt alts)
          else if resolve_with_preds b d' alts then
            List.iter
              (fun (e : Look_dfa.pred_edge) ->
                match e.pred with
                | Some (Atn.Syn _) -> b.uses_synpred <- true
                | _ -> ())
              d'.pred_edges
          else begin
            d'.accept <- Option.get (Bitset.min_elt_opt alts);
            warn b
              (Ambiguity
                 {
                   decision = b.decision.d_id;
                   alts = Bitset.elements alts;
                   path = [ a ];
                 })
          end
        end;
        d0.term_edges <- (a, d'.id) :: d0.term_edges)
      (moves b d0.configs);
  freeze b ~fallback:true

(* ------------------------------------------------------------------ *)

(* [flags] defaults to [Atn.state_flags atn]; callers building many
   builders over one ATN compute it once and pass it. *)
let make_builder ?flags atn opts decision ~allow_multi_recursion =
  let flags =
    match flags with Some f -> f | None -> Atn.state_flags atn
  in
  {
    atn;
    flags;
    opts;
    decision;
    states = [];
    nstates = 0;
    dedup = Dedup.create 64;
    move_memo = Moves.create 64;
    recursive_alts = Bitset.create (alt_universe decision);
    stacks = Config.Stack.create_table ();
    closure_memo = Config.Tbl.create 256;
    busy = Config.Busy.create busy_initial;
    move_buckets = [||];
    runs =
      {
        slot = [||];
        stacks = [||];
        own = [||];
        rel = [||];
        trie = Hashtbl.create 64;
        paths = [||];
        node_bucket = [||];
      };
    alt_slot = [||];
    warnings = [];
    uses_synpred = false;
    allow_multi_recursion;
    open_at_depth = Array.make 16 0;
    closure_steps = 0;
    conflict_comparisons = 0;
  }

(* Alternatives that no accept state or predicate edge ever predicts can
   never be chosen: dead productions (section 1.1). *)
let find_dead_alts (dfa : Look_dfa.t) (d : Atn.decision) : warning list =
  let predicted = Array.make (d.d_nalts + 1) false in
  Array.iter (fun a -> if a > 0 && a <= d.d_nalts then predicted.(a) <- true) dfa.accept;
  Array.iter
    (Array.iter (fun (e : Look_dfa.pred_edge) ->
         if e.alt > 0 && e.alt <= d.d_nalts then predicted.(e.alt) <- true))
    dfa.preds;
  let dead = ref [] in
  for alt = d.d_nalts downto 1 do
    if not predicted.(alt) then
      dead := Dead_alternative { decision = d.d_id; alt } :: !dead
  done;
  !dead

let classify (dfa : Look_dfa.t) : decision_class =
  if dfa.uses_synpred then Backtrack
  else if dfa.cyclic then Cyclic
  else Fixed (match dfa.max_k with Some k -> k | None -> 1)

(* Analyze one decision, reading [flags] ([Atn.state_flags atn]); also
   returns the analysis effort of every attempt. *)
let analyze_decision_effort ?(opts = default_options) ~flags (atn : Atn.t)
    (decision : Atn.decision) : result * effort =
  let post dfa = if opts.minimize then Minimize.minimize dfa else dfa in
  let b = make_builder ~flags atn opts decision ~allow_multi_recursion:false in
  let bounded = ref None and ll1 = ref None in
  let new_builder slot opts =
    let fb =
      make_builder ~flags atn opts decision ~allow_multi_recursion:true
    in
    slot := Some fb;
    fb
  in
  let fall_back_ll1 reason =
    (* the depth-1 DFA is bounded by the alphabet; don't let a tiny state
       budget (the thing that may have sent us here) starve it *)
    let fb_opts = { opts with max_states = max opts.max_states 10_000 } in
    let fb = new_builder ll1 fb_opts in
    let dfa = post (create_fallback fb) in
    let warnings =
      (reason :: List.rev fb.warnings) @ find_dead_alts dfa decision
    in
    { dfa; klass = classify dfa; warnings; fallback = true }
  in
  let too_big () =
    fall_back_ll1
      (Dfa_too_big { decision = decision.d_id; limit = opts.max_states })
  in
  (* Recursion in more than one alternative: the decision is extremely
     unlikely to be LL-regular (section 5.4).  The [Bounded] strategy
     retries the full construction with only the recursion bound [m] as
     governor -- the resulting DFA resolves everything fixed lookahead can
     and falls to predicates/order where it cannot; [Ll1] is the paper's
     depth-1 fallback.  A retry that stops converging ([note_open]) ends in
     the same LL(1) fallback as one that runs out of states. *)
  let fall_back_bounded reason =
    let fb = new_builder bounded opts in
    match post (create_dfa_exn fb) with
    | dfa ->
        let warnings =
          (reason :: List.rev fb.warnings) @ find_dead_alts dfa decision
        in
        { dfa; klass = classify dfa; warnings; fallback = true }
    | exception Too_big -> too_big ()
    | exception Not_converging_exn { depth; open_states } ->
        fall_back_ll1
          (Not_converging
             {
               decision = decision.d_id;
               depth;
               open_states;
               states = fb.nstates;
             })
  in
  let result =
    match post (create_dfa_exn b) with
    | dfa ->
        let warnings = List.rev b.warnings @ find_dead_alts dfa decision in
        { dfa; klass = classify dfa; warnings; fallback = false }
    | exception Non_ll_regular_exn -> (
        let reason = Non_ll_regular { decision = decision.d_id } in
        match opts.fallback with
        | Bounded -> fall_back_bounded reason
        | Ll1 -> fall_back_ll1 reason)
    | exception Too_big -> too_big ()
  in
  let sum f = List.fold_left (fun n fb -> n + f fb) 0 in
  let attempts = b :: List.filter_map Fun.id [ !bounded; !ll1 ] in
  let built = function Some fb -> fb.nstates | None -> 0 in
  ( result,
    {
      states =
        { primary = b.nstates; bounded = built !bounded; ll1 = built !ll1 };
      closure_steps = sum (fun fb -> fb.closure_steps) attempts;
      conflict_comparisons = sum (fun fb -> fb.conflict_comparisons) attempts;
    } )

(* Analyze every decision of an ATN.

   Decisions are analyzed independently: each builder's mutable state
   (work-list states, dedup tables, closure memo, warning list) is local
   to its decision, and the ATN, grammar and interned vocabulary are only
   read.  That makes the fan-out below safe on a worker pool: with [pool]
   (and more than one job) per-decision construction runs across domains,
   and [Exec.Pool.map_array]'s deterministic ordering merges the results
   in decision order -- the output array, and anything derived from it
   (the report, the compilation-cache payload digest), is byte-identical
   to the sequential build.  Callers must freeze the vocabulary
   ([Grammar.Sym.freeze]) before fanning out; [Compiled.compile] does.  The
   ATN's per-state flags are computed here, once, before the fan-out, and
   the builders only read them. *)
let analyze_all_effort ?opts ?pool (atn : Atn.t) : (result * effort) array =
  let opts =
    match opts with
    | Some o -> o
    | None -> options_of_grammar atn.grammar
  in
  let flags = Atn.state_flags atn in
  let decide d = analyze_decision_effort ~opts ~flags atn d in
  match pool with
  | Some p when Exec.Pool.jobs p > 1 -> Exec.Pool.map_array p decide atn.decisions
  | _ -> Array.map decide atn.decisions

let analyze_all ?opts ?pool atn =
  Array.map fst (analyze_all_effort ?opts ?pool atn)

(* ------------------------------------------------------------------ *)

let pp_warning sym atn ppf w =
  let dlabel d = (Array.get atn.Atn.decisions d).Atn.d_label in
  let pp_path ppf path =
    Fmt.(list ~sep:sp (fun ppf t -> Fmt.string ppf (Grammar.Sym.term_name sym t)))
      ppf path
  in
  match w with
  | Ambiguity { decision; alts; path } ->
      Fmt.pf ppf
        "decision %d (%s): alternatives %a are ambiguous upon \"%a\"; \
         resolving in favour of alternative %d"
        decision (dlabel decision)
        Fmt.(list ~sep:(any ", ") int)
        alts pp_path path (List.hd alts)
  | Overflow { decision; path } ->
      Fmt.pf ppf
        "decision %d (%s): recursion overflow while computing lookahead upon \
         \"%a\"; resolving potential ambiguity by production order"
        decision (dlabel decision) pp_path path
  | Non_ll_regular { decision } ->
      Fmt.pf ppf
        "decision %d (%s): recursion in more than one alternative; falling \
         back to LL(1)%s"
        decision (dlabel decision)
        " (with backtracking if predicates are available)"
  | Dfa_too_big { decision; limit } ->
      Fmt.pf ppf
        "decision %d (%s): lookahead DFA exceeded %d states; falling back to \
         LL(1)"
        decision (dlabel decision) limit
  | Not_converging { decision; depth; open_states; states } ->
      Fmt.pf ppf
        "decision %d (%s): Bounded retry stopped converging at lookahead \
         depth %d (%d undecided states after %d built); falling back to \
         LL(1)"
        decision (dlabel decision) depth open_states states
  | Dead_alternative { decision; alt } ->
      Fmt.pf ppf "decision %d (%s): alternative %d can never be matched"
        decision (dlabel decision) alt
