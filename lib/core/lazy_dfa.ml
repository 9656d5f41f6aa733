(* Lazy on-demand lookahead-DFA construction.

   The paper's static analysis (section 5) materializes every decision's
   full lookahead DFA before the first parse, which makes cold-start cost
   proportional to grammar size even when a workload exercises only a few
   decisions.  This engine performs the same modified subset construction
   one DFA state at a time, driven by the interpreter at prediction time: a
   prediction that walks off the edge of the materialized DFA asks the
   engine to [sprout] the missing transition, and the discovered state is
   memoized into the same frozen [Look_dfa.t] representation, so warm
   predictions hit the precomputed table path with no lazy-path overhead.

   Equivalence with the eager analysis: all state discovery goes through
   the per-state steps shared with [Analysis] ([init_d0], [step_terminal],
   [settle_fresh], [force_cap_resolution]), and closure behaves identically
   whether or not multi-alternative recursion has been observed yet, so
   every state the engine materializes is exactly the state the eager
   construction (or its Bounded retry) would have built.  The fallback
   ladder mirrors [Analysis.analyze_decision_effort]:

   - recursion in more than one alternative under the [Bounded] strategy
     flips the builder's [allow_multi_recursion] flag and keeps going --
     no restart is needed because the states built so far are identical to
     the ones the eager retry would rebuild;
   - under the [Ll1] strategy, when the DFA state budget is exhausted, or
     when the Bounded construction stops converging (too many undecided
     states at one lookahead depth, [Analysis.note_open]), the engine
     abandons incremental construction and installs the result of the full
     eager [analyze_decision_effort] chain ([Rebuilt]).

   [complete] drives the remaining work-list to exhaustion in the same BFS
   order as the eager construction; on a fresh engine it reproduces the
   eager DFA state-for-state, which the test suite pins.

   Concurrency (the publication protocol, see DESIGN.md "Execution
   layer"): one engine may be shared by many parsing domains.  All builder
   mutation happens under the engine's mutex; after every mutation a fresh
   immutable snapshot is published through an [Atomic].  Readers
   ([current], [is_complete], the interpreter's table walk) never take the
   lock -- they work off whichever published snapshot they last fetched.
   That is sound because of two invariants that hold while the engine is
   [Building]:

   - state ids are stable and state content only gains information (new
     edges, an accept, predicate edges), so a stale snapshot is a subset
     view: anything it answers, the newest snapshot answers identically;
   - the only discontinuity is the Building -> Done transition (eager
     rebuild or [complete], both of which may renumber states); sprouting
     against a [Done] engine therefore answers [Rebuilt], telling the
     caller to restart its walk from the published start state -- always
     safe, prediction consumes no input.

   [sprout_view] returns the snapshot that backs its answer, so a caller
   resuming its walk is guaranteed a DFA in which the answer (and its own
   state id) is valid, whatever other domains did in between. *)

type sprout =
  | Edge of { target : int; fresh : bool }
    (* the transition now exists; [fresh] when a new state was discovered *)
  | Resolved
    (* no transition, but the source state acquired an accept or predicate
       edges (k-cap forcing): re-read the state *)
  | No_edge (* nothing moves on this terminal: fall through to predicates *)
  | Rebuilt
    (* incremental construction was abandoned for the full eager fallback,
       or completed concurrently: restart the prediction walk from the
       start state of the returned (published) DFA *)

type phase =
  | Building of Analysis.builder
  | Done (* complete, or replaced by the eager fallback result *)

(* What the atomic publishes: the frozen view plus whether construction is
   over.  One immutable record, so a reader always sees a snapshot and its
   phase from the same moment. *)
type view = { snap : Analysis.result; complete : bool }

type t = {
  atn : Atn.t;
  opts : Analysis.options;
  decision : Atn.decision;
  lock : Mutex.t; (* guards every mutable field below *)
  mutable phase : phase;
  mutable fallback : bool; (* Bounded fallback engaged *)
  mutable pre_warnings : Analysis.warning list;
    (* warnings logically preceding the builder's own, e.g. the
       [Non_ll_regular] reason emitted when the Bounded fallback engages *)
  pub : view Atomic.t; (* current frozen view, published for lock-free reads *)
  (* observability counters: states discovered at prediction time and
     abandon-to-eager events, surfaced in telemetry snapshots *)
  mutable sprouted : int;
  mutable rebuilds : int;
  mutable retired_states : Analysis.effort;
    (* states built by builders no longer live: the abandoned incremental
       one and the eager rebuild's attempts, or a completed builder *)
}

let snapshot_of_builder t (b : Analysis.builder) : Analysis.result =
  (* [~fallback:false]: that flag marks the LL(1) depth-1 fallback DFA
     only; a Bounded retry is still a full subset-construction DFA (the
     eager path does the same), and [result.fallback] records the retry.

     The snapshot's [warnings] are deliberately left empty: warnings live
     in [pre_warnings] and the builder until they are assembled on demand
     ([result]) or once at completion.  Re-concatenating the lists here --
     on every sprout -- made warning bookkeeping quadratic in the number
     of lazily discovered states. *)
  let dfa = Analysis.freeze b ~fallback:false in
  {
    Analysis.dfa;
    klass = Analysis.classify dfa;
    warnings = [];
    fallback = t.fallback;
  }

(* Publish a fresh frozen view of the builder.  Caller holds the lock. *)
let refresh t b =
  Atomic.set t.pub { snap = snapshot_of_builder t b; complete = false }

(* The Bounded-fallback engagement reason.  Set-once: engagement can be
   attempted from several paths (initial D0 construction, a sprout, the
   completion drive), and appending unconditionally would duplicate the
   [Non_ll_regular] warning. *)
let note_non_ll_regular t =
  let w = Analysis.Non_ll_regular { decision = t.decision.Atn.d_id } in
  if not (List.mem w t.pre_warnings) then
    t.pre_warnings <- t.pre_warnings @ [ w ]

(* The live builder's states as an effort: the builder is the primary
   attempt until the Bounded strategy engages, and the Bounded attempt --
   which continues from its states instead of restarting -- from then on. *)
let builder_effort (b : Analysis.builder) : Analysis.effort =
  if b.Analysis.allow_multi_recursion then
    { Analysis.no_effort with bounded = b.Analysis.nstates }
  else { Analysis.no_effort with primary = b.Analysis.nstates }

(* Count the live builder's states as retired; the caller then drops it.
   Caller holds the lock. *)
let retire t =
  match t.phase with
  | Building b ->
      t.retired_states <-
        Analysis.add_effort t.retired_states (builder_effort b)
  | Done -> ()

(* Caller holds the lock (or has exclusive access during [create]). *)
let go_eager t : unit =
  let r, built =
    Analysis.analyze_decision_effort ~opts:t.opts t.atn t.decision
  in
  retire t;
  t.retired_states <- Analysis.add_effort t.retired_states built;
  t.phase <- Done;
  t.fallback <- r.Analysis.fallback;
  t.rebuilds <- t.rebuilds + 1;
  Atomic.set t.pub { snap = r; complete = true }

let engage_bounded t (b : Analysis.builder) : unit =
  t.fallback <- true;
  note_non_ll_regular t;
  b.Analysis.allow_multi_recursion <- true

let empty_result (decision : Atn.decision) : Analysis.result =
  Analysis.
    {
      dfa =
        Look_dfa.
          {
            decision = decision.Atn.d_id;
            start = 0;
            nstates = 0;
            edges = [||];
            accept = [||];
            preds = [||];
            overflowed = [||];
            cyclic = false;
            max_k = None;
            uses_synpred = false;
            fallback = false;
          };
      klass = Fixed 1;
      warnings = [];
      fallback = false;
    }

let create ?opts (atn : Atn.t) (decision : Atn.decision) : t =
  let opts =
    match opts with
    | Some o -> o
    | None -> Analysis.options_of_grammar atn.Atn.grammar
  in
  let t =
    {
      atn;
      opts;
      decision;
      lock = Mutex.create ();
      phase = Done;
      fallback = false;
      pre_warnings = [];
      (* placeholder; overwritten below before [create] returns *)
      pub = Atomic.make { snap = empty_result decision; complete = true };
      sprouted = 0;
      rebuilds = 0;
      retired_states = Analysis.no_effort;
    }
  in
  let start allow_multi =
    let b =
      Analysis.make_builder atn opts decision
        ~allow_multi_recursion:allow_multi
    in
    ignore (Analysis.init_d0 b);
    t.phase <- Building b;
    refresh t b
  in
  (match start false with
  | () -> ()
  | exception Analysis.Non_ll_regular_exn -> (
      match opts.Analysis.fallback with
      | Analysis.Bounded ->
          t.fallback <- true;
          note_non_ll_regular t;
          start true
      | Analysis.Ll1 -> go_eager t)
  | exception Analysis.Too_big -> go_eager t);
  t

(* Lock-free: the latest published frozen DFA. *)
let current t : Look_dfa.t = (Atomic.get t.pub).snap.Analysis.dfa
let is_complete t = (Atomic.get t.pub).complete

(* Assemble warnings on demand while building: the stored snapshot keeps
   them empty (see [snapshot_of_builder]); a completed or eagerly rebuilt
   engine has them baked into the snapshot. *)
let result t : Analysis.result =
  Mutex.lock t.lock;
  let r =
    match t.phase with
    | Done -> (Atomic.get t.pub).snap
    | Building b ->
        {
          (Atomic.get t.pub).snap with
          Analysis.warnings = t.pre_warnings @ List.rev b.Analysis.warnings;
        }
  in
  Mutex.unlock t.lock;
  r

let materialized t = (current t).Look_dfa.nstates

(* Construction-effort counters for telemetry: states discovered on demand
   at prediction time, and how often incremental construction was abandoned
   for the full eager analysis.  Plain word-sized reads; racy by design. *)
let sprouted t = t.sprouted
let rebuilds t = t.rebuilds

(* Analysis effort: DFA states built so far by this engine's builders and
   any eager rebuild, the lazy counterpart of
   [Analysis.analyze_decision_effort]. *)
let states_built t =
  match t.phase with
  | Building b -> Analysis.add_effort t.retired_states (builder_effort b)
  | Done -> t.retired_states

(* Materialize the missing transition of [state] over [term], if any.
   Returns the published snapshot backing the answer: the caller resumes
   its prediction walk on that DFA, never on the (possibly stale) one it
   was walking when the lookup missed. *)
let sprout_view t ~(state : int) ~(term : int) : sprout * Look_dfa.t =
  (* Lock-free fast path: another domain may already have sprouted this
     transition, in which case the newest published snapshot answers
     without contending on the lock.  Valid only while building -- state
     ids are stable then; a completed engine may have renumbered
     (minimization, eager rebuild), so the caller must restart rather
     than reuse its state id against the new numbering. *)
  let v = Atomic.get t.pub in
  if v.complete then (Rebuilt, v.snap.Analysis.dfa)
  else
    match Look_dfa.lookup_edge v.snap.Analysis.dfa state term with
    | Some target -> (Edge { target; fresh = false }, v.snap.Analysis.dfa)
    | None -> (
        Mutex.lock t.lock;
        let answer =
          match t.phase with
          | Done -> Rebuilt
          | Building b ->
              let d = Analysis.state_by_id b state in
              if not (Analysis.should_expand b d) then No_edge
              else begin
                let beyond_cap =
                  match t.opts.Analysis.k_cap with
                  | Some k -> d.Analysis.depth >= k
                  | None -> false
                in
                if beyond_cap then begin
                  Analysis.force_cap_resolution b d;
                  refresh t b;
                  Resolved
                end
                else
                  let rec attempt retried =
                    match Analysis.step_terminal b d term with
                    | Some (d', fresh) ->
                        refresh t b;
                        if fresh then t.sprouted <- t.sprouted + 1;
                        Edge { target = d'.Analysis.id; fresh }
                    | None -> No_edge
                    | exception Analysis.Non_ll_regular_exn ->
                        if
                          t.opts.Analysis.fallback = Analysis.Bounded
                          && not retried
                        then begin
                          engage_bounded t b;
                          attempt true
                        end
                        else begin
                          go_eager t;
                          Rebuilt
                        end
                    | exception
                        (Analysis.Too_big | Analysis.Not_converging_exn _) ->
                        go_eager t;
                        Rebuilt
                  in
                  attempt false
              end
        in
        (* Read the view inside the lock so the returned DFA is the one
           the answer was computed against. *)
        let v = Atomic.get t.pub in
        Mutex.unlock t.lock;
        (answer, v.snap.Analysis.dfa))

let sprout t ~state ~term : sprout = fst (sprout_view t ~state ~term)

(* Drive the remaining construction to exhaustion, yielding the same
   [Analysis.result] the eager analysis produces (state-for-state identical
   on a fresh engine: the work list visits states in discovery order, which
   is the eager BFS order, and every step is idempotent). *)
let complete t : Analysis.result =
  Mutex.lock t.lock;
  let finish () =
    let r = (Atomic.get t.pub).snap in
    Mutex.unlock t.lock;
    r
  in
  match t.phase with
  | Done -> finish ()
  | Building b ->
      let rec run () =
        match
          let work = Queue.create () in
          List.iter
            (fun d -> if Analysis.should_expand b d then Queue.add d work)
            (List.rev b.Analysis.states);
          while not (Queue.is_empty work) do
            Analysis.expand_state b work (Queue.pop work)
          done
        with
        | () -> ()
        | exception Analysis.Non_ll_regular_exn
          when t.opts.Analysis.fallback = Analysis.Bounded
               && not b.Analysis.allow_multi_recursion ->
            engage_bounded t b;
            run ()
        | exception
            ( Analysis.Non_ll_regular_exn | Analysis.Too_big
            | Analysis.Not_converging_exn _ ) ->
            go_eager t
      in
      run ();
      (match t.phase with
      | Done -> () (* eager fallback already installed the result *)
      | Building b ->
          let dfa = Analysis.freeze b ~fallback:false in
          let dfa =
            if t.opts.Analysis.minimize then Minimize.minimize dfa else dfa
          in
          let warnings =
            t.pre_warnings @ List.rev b.Analysis.warnings
            @ Analysis.find_dead_alts dfa t.decision
          in
          Atomic.set t.pub
            {
              snap =
                {
                  Analysis.dfa;
                  klass = Analysis.classify dfa;
                  warnings;
                  fallback = t.fallback;
                };
              complete = true;
            };
          retire t;
          t.phase <- Done);
      finish ()

(* ------------------------------------------------------------------ *)
(* Canonical serialized form.

   An engine contains a mutex, an atomic and derived hash tables -- none
   of which marshal -- and, worse, the builder's raw state is
   discovery-order dependent: two runs that materialize the same state
   *set* through different prediction interleavings (different job
   counts, different input orders) number the states differently and
   record different sample paths.  [to_portable] therefore renumbers
   states canonically -- BFS from the start state following terminal
   edges in sorted order -- recomputes depths and sample paths along that
   BFS tree, and canonically sorts warnings (dropping their sample paths,
   which also record discovery order).  Two engines that materialized the
   same state set serialize identically, whatever order the states were
   discovered in; the warm-blob digest tests pin this.

   Derived tables (dedup, by-id, the closure memo) are dropped and
   rebuilt on load -- the memo cold, it is a pure cache.  Note the
   canonical depth is the BFS distance in the materialized graph; a state
   first discovered through a longer walk keeps that longer depth
   in-process but is normalized on the way to disk (observable only
   through the grammar's optional k-cap, which compares depths). *)

type portable_state = {
  ps_configs : Config.Plain.t list; (* structurally sorted *)
  ps_term_edges : (int * int) list; (* canonical ids, sorted by terminal *)
  ps_accept : int;
  ps_pred_edges : Look_dfa.pred_edge list;
  ps_overflow : bool;
  ps_depth : int;
  ps_path : int list; (* canonical sample path from D0, reversed *)
}

type portable_building = {
  pb_states : portable_state array; (* canonical BFS order; index = id *)
  pb_recursive_alts : int list;
  pb_warnings : Analysis.warning list; (* canonically sorted, paths dropped *)
  pb_uses_synpred : bool;
  pb_allow_multi : bool;
}

type portable_phase =
  | P_done of Analysis.result
  | P_building of portable_building

type portable = {
  p_decision : int;
  p_fallback : bool;
  p_pre_warnings : Analysis.warning list;
  p_sprouted : int;
  p_rebuilds : int;
  p_retired_states : Analysis.effort;
  p_phase : portable_phase;
}

let strip_warning_path : Analysis.warning -> Analysis.warning = function
  | Analysis.Ambiguity { decision; alts; path = _ } ->
      Analysis.Ambiguity { decision; alts; path = [] }
  | Analysis.Overflow { decision; path = _ } ->
      Analysis.Overflow { decision; path = [] }
  | w -> w

let canonical_warnings ws =
  List.sort_uniq compare (List.map strip_warning_path ws)

let portable_of_builder (b : Analysis.builder) : portable_building =
  let states = Array.of_list (List.rev b.Analysis.states) in
  let n = Array.length states in
  (* Sorted outgoing edges per original id. *)
  let sorted_edges =
    Array.map
      (fun (d : Analysis.wstate) ->
        List.sort compare (List.rev d.Analysis.term_edges))
      states
  in
  (* BFS from state 0: canonical id, depth and sample path per state. *)
  let canon_of = Array.make n (-1) in
  let order = Array.make n 0 (* canonical id -> original id *) in
  let depth = Array.make n 0 in
  let path = Array.make n [] in
  let next = ref 0 in
  let visit orig ~d ~p =
    canon_of.(orig) <- !next;
    order.(!next) <- orig;
    depth.(!next) <- d;
    path.(!next) <- p;
    incr next
  in
  if n > 0 then begin
    let q = Queue.create () in
    visit 0 ~d:0 ~p:[];
    Queue.add 0 q;
    while not (Queue.is_empty q) do
      let orig = Queue.pop q in
      let c = canon_of.(orig) in
      List.iter
        (fun (term, tgt) ->
          if canon_of.(tgt) < 0 then begin
            visit tgt ~d:(depth.(c) + 1) ~p:(term :: path.(c));
            Queue.add tgt q
          end)
        sorted_edges.(orig)
    done;
    (* Defensive: every state is created as the target of a recorded edge
       (or is D0), so everything is reachable; if that invariant ever
       broke, append the strays in original order rather than losing
       them. *)
    Array.iteri
      (fun orig (d : Analysis.wstate) ->
        if canon_of.(orig) < 0 then
          visit orig ~d:d.Analysis.depth ~p:d.Analysis.path)
      states
  end;
  let pb_states =
    Array.init n (fun cid ->
        let d = states.(order.(cid)) in
        {
          ps_configs =
            List.sort Config.Plain.compare
              (List.map Config.to_plain d.Analysis.configs);
          ps_term_edges =
            List.sort compare
              (List.map
                 (fun (term, tgt) -> (term, canon_of.(tgt)))
                 sorted_edges.(order.(cid)));
          ps_accept = d.Analysis.accept;
          ps_pred_edges = d.Analysis.pred_edges;
          ps_overflow = d.Analysis.overflow;
          ps_depth = depth.(cid);
          ps_path = path.(cid);
        })
  in
  {
    pb_states;
    pb_recursive_alts = Bitset.elements b.Analysis.recursive_alts;
    pb_warnings = canonical_warnings b.Analysis.warnings;
    pb_uses_synpred = b.Analysis.uses_synpred;
    pb_allow_multi = b.Analysis.allow_multi_recursion;
  }

let to_portable t : portable =
  Mutex.lock t.lock;
  let p =
    {
      p_decision = t.decision.Atn.d_id;
      p_fallback = t.fallback;
      p_pre_warnings = t.pre_warnings;
      p_sprouted = t.sprouted;
      p_rebuilds = t.rebuilds;
      p_retired_states = t.retired_states;
      p_phase =
        (match t.phase with
        | Done -> P_done (Atomic.get t.pub).snap
        | Building b -> P_building (portable_of_builder b));
    }
  in
  Mutex.unlock t.lock;
  p

let of_portable ~(opts : Analysis.options) (atn : Atn.t)
    (decision : Atn.decision) (p : portable) : t =
  let t =
    {
      atn;
      opts;
      decision;
      lock = Mutex.create ();
      phase = Done;
      fallback = p.p_fallback;
      pre_warnings = p.p_pre_warnings;
      pub = Atomic.make { snap = empty_result decision; complete = true };
      sprouted = p.p_sprouted;
      rebuilds = p.p_rebuilds;
      retired_states = p.p_retired_states;
    }
  in
  (match p.p_phase with
  | P_done r -> Atomic.set t.pub { snap = r; complete = true }
  | P_building pb ->
      let b =
        Analysis.make_builder atn opts decision
          ~allow_multi_recursion:pb.pb_allow_multi
      in
      Array.iter
        (fun ps ->
          Analysis.restore_wstate b ~configs:ps.ps_configs
            ~term_edges:ps.ps_term_edges ~accept:ps.ps_accept
            ~pred_edges:ps.ps_pred_edges ~overflow:ps.ps_overflow
            ~depth:ps.ps_depth ~path:ps.ps_path)
        pb.pb_states;
      List.iter (Bitset.add b.Analysis.recursive_alts) pb.pb_recursive_alts;
      (* [builder.warnings] is newest-first; the canonical list re-reverses
         to that convention so [result] assembles them in list order. *)
      b.Analysis.warnings <- List.rev pb.pb_warnings;
      b.Analysis.uses_synpred <- pb.pb_uses_synpred;
      t.phase <- Building b;
      refresh t b);
  t
