(* Runtime decision profiling: the counters behind the paper's Tables 3
   and 4, plus the count of DFA states loaded from a compilation cache.

   Since the observability layer landed, this module is a *view* over an
   [Obs.Metrics] registry rather than a bag of ad-hoc mutable fields: every
   quantity lives in a named counter or histogram (labeled by decision for
   the per-decision stats), so the same numbers that feed [pp] also appear
   verbatim in bench telemetry snapshots ([Obs.Metrics.to_json]).  The hot
   path keeps its old cost: metric cells are interned once and cached, so
   [record] performs one int-keyed hashtable probe plus field updates,
   exactly like the previous hand-rolled implementation.

   A decision *event* is one execution of a prediction (loop decisions fire
   once per iteration).  Two lookahead depths are tracked separately:

   - the *DFA depth*: how many tokens the lookahead DFA itself examined
     ([avg_dfa_k]/[dfa_max_k]);
   - the *effective depth*: the furthest token the decision reached,
     counting speculation for events that evaluated a syntactic predicate
     ([avg_k]/[max_k], the paper's Table 3 "avg k").

   [back_k] averages speculation depth over backtracking events only. *)

module M = Obs.Metrics

(* Per-decision metric cells, interned on first sight of the decision. *)
type dcells = {
  d_events : M.counter;
  d_backtracks : M.counter;
  d_cached : M.counter;
  d_k : M.histogram; (* effective lookahead depth at this decision *)
}

type t = {
  registry : M.t;
  look : M.histogram; (* effective depth: max(dfa, speculation) *)
  dfa_look : M.histogram; (* DFA-only depth *)
  spec : M.histogram; (* speculation reach, backtracking events only *)
  lazy_states : M.counter; (* always 0; see [lazy_dfa_states] *)
  cached_states : M.counter; (* DFA states loaded from a cache *)
  parse_us : Obs.Duration.t; (* per-parse wall time, serve layer only *)
  per_decision : (int, dcells) Hashtbl.t;
}

let registry t = t.registry

let create () =
  let registry = M.create () in
  {
    registry;
    look = M.histogram registry "parse_lookahead_k";
    dfa_look = M.histogram registry "parse_dfa_lookahead_k";
    spec = M.histogram registry "parse_speculation_k";
    lazy_states = M.counter registry "dfa_lazy_states";
    cached_states = M.counter registry "dfa_cached_states";
    parse_us = M.duration registry "parse_wall_us";
    per_decision = Hashtbl.create 64;
  }

(* Wall time of one parse, recorded by callers that own a clock (the serve
   handler).  Deliberately absent from [pp]/[to_json]: those outputs are
   diffed byte-for-byte across job counts in CI, so nothing wall-clock
   dependent may appear in them.  The quantiles surface through the
   registry snapshot ([registry] + [Obs.Metrics.to_json]) instead. *)
let observe_parse_us t us = Obs.Duration.observe t.parse_us us

let reset t =
  M.reset t.registry;
  Hashtbl.reset t.per_decision

(* [Hashtbl.find], not [find_opt]: [record] runs once per prediction,
   and an option per lookup is the only allocation it would make. *)
let dstats_of t decision =
  match Hashtbl.find t.per_decision decision with
  | ds -> ds
  | exception Not_found ->
      let labels = [ ("decision", string_of_int decision) ] in
      let ds =
        {
          d_events = M.counter t.registry ~labels "decision_events";
          d_backtracks = M.counter t.registry ~labels "decision_backtracks";
          d_cached = M.counter t.registry ~labels "decision_cached_states";
          d_k = M.histogram t.registry ~labels "decision_lookahead_k";
        }
      in
      (* always 0, like [lazy_states]; registered so the series remains *)
      ignore (M.counter t.registry ~labels "decision_lazy_states");
      Hashtbl.add t.per_decision decision ds;
      ds

(* Merge a worker's profile into [into] (the batch drivers' join step).
   Merging the registries does the arithmetic: the headline quantities
   below are all views over registry cells.  The per-decision cell cache
   is then re-interned for every decision the worker saw, so
   [decisions_covered] and the per-decision table count merged decisions
   too ([dstats_of] finds the already-merged registry cells by label). *)
let merge ~into (src : t) : unit =
  M.merge ~into:into.registry src.registry;
  Hashtbl.iter (fun d _ -> ignore (dstats_of into d)) src.per_decision

(* [depth] is the DFA lookahead depth alone; [spec_depth] the furthest token
   reached by speculation (0 when [backtracked] is false). *)
let record t ~decision ~depth ~backtracked ~spec_depth =
  M.observe t.dfa_look depth;
  let effective = if backtracked then max depth spec_depth else depth in
  M.observe t.look effective;
  if backtracked then M.observe t.spec spec_depth;
  let ds = dstats_of t decision in
  M.incr ds.d_events;
  M.observe ds.d_k effective;
  if backtracked then M.incr ds.d_backtracks

(* [n] DFA states of [decision] were loaded from a compilation cache. *)
let record_cached_states t ~decision ~n =
  if n > 0 then begin
    M.add t.cached_states n;
    M.add (dstats_of t decision).d_cached n
  end

(* --- Table 3 quantities --- *)

let events t = M.h_count t.look
let back_events t = M.h_count t.spec
(* Decisions that made a prediction.  A cache-loaded compilation also
   interns a cell for every decision it credits with cached states, so the
   table's size would count decisions the parse never reached. *)
let decisions_covered t =
  Hashtbl.fold
    (fun _ ds acc -> if M.value ds.d_events > 0 then acc + 1 else acc)
    t.per_decision 0
let avg_k t = M.h_avg t.look
let avg_dfa_k t = M.h_avg t.dfa_look
let back_k t = M.h_avg t.spec
let max_k t = M.h_max t.look
let dfa_max_k t = M.h_max t.dfa_look

(* --- Construction quantities --- *)

(* Always 0 (lazy DFAs are gone); kept because e2ebench reads it. *)
let lazy_dfa_states t = M.value t.lazy_states
let cached_dfa_states t = M.value t.cached_states

(* --- Table 4 quantities --- *)

(* Distinct decisions that backtracked at least once. *)
let decisions_that_backtracked t =
  Hashtbl.fold
    (fun _ ds acc -> if M.value ds.d_backtracks > 0 then acc + 1 else acc)
    t.per_decision 0

let backtrack_event_rate t =
  if events t = 0 then 0.0
  else 100.0 *. float_of_int (back_events t) /. float_of_int (events t)

(* Likelihood that an event at a decision that ever backtracks actually
   backtracked (the paper's "back. rate"). *)
let backtrack_rate_at_pbds t =
  let ev, bk =
    Hashtbl.fold
      (fun _ ds (ev, bk) ->
        if M.value ds.d_backtracks > 0 then
          (ev + M.value ds.d_events, bk + M.value ds.d_backtracks)
        else (ev, bk))
      t.per_decision (0, 0)
  in
  if ev = 0 then 0.0 else 100.0 *. float_of_int bk /. float_of_int ev

let pp ppf t =
  Fmt.pf ppf
    "decision events=%d covered=%d avg k=%.2f (dfa %.2f) back k=%.2f max k=%d \
     backtracked=%.2f%% (at PBDs: %.2f%%)"
    (events t) (decisions_covered t) (avg_k t) (avg_dfa_k t) (back_k t)
    (max_k t)
    (backtrack_event_rate t)
    (backtrack_rate_at_pbds t);
  if cached_dfa_states t > 0 then
    Fmt.pf ppf "; dfa states cached=%d" (cached_dfa_states t)

(* Verbose per-decision table (the CLI's [--profile -v]): the per-decision
   stats were historically collected but never rendered anywhere. *)
let pp_decisions ppf t =
  let rows =
    Hashtbl.fold (fun d ds acc -> (d, ds) :: acc) t.per_decision []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Fmt.pf ppf "%8s %8s %10s %7s %6s %7s@." "decision" "events"
    "backtracks" "avg k" "max k" "cached";
  List.iter
    (fun (d, ds) ->
      Fmt.pf ppf "%8d %8d %10d %7.2f %6d %7d@." d (M.value ds.d_events)
        (M.value ds.d_backtracks) (M.h_avg ds.d_k) (M.h_max ds.d_k)
        (M.value ds.d_cached))
    rows

(* Summary document for telemetry: the headline Table 3/4 quantities plus
   construction counters.  The full registry (per-decision points included)
   is available via [registry] + [Obs.Metrics.to_json]. *)
let to_json t : Obs.Json.t =
  Obs.Json.obj
    [
      ("decision_events", Obs.Json.int (events t));
      ("decisions_covered", Obs.Json.int (decisions_covered t));
      ("avg_k", Obs.Json.float (avg_k t));
      ("max_k", Obs.Json.int (max_k t));
      ("avg_dfa_k", Obs.Json.float (avg_dfa_k t));
      ("dfa_max_k", Obs.Json.int (dfa_max_k t));
      ("back_k", Obs.Json.float (back_k t));
      ("backtrack_events", Obs.Json.int (back_events t));
      ("backtrack_event_pct", Obs.Json.float (backtrack_event_rate t));
      ("backtrack_rate_at_pbds", Obs.Json.float (backtrack_rate_at_pbds t));
      ( "decisions_that_backtracked",
        Obs.Json.int (decisions_that_backtracked t) );
      ("lazy_dfa_states", Obs.Json.int (lazy_dfa_states t));
      ("cached_dfa_states", Obs.Json.int (cached_dfa_states t));
    ]
