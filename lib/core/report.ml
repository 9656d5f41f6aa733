(* Analysis report: per-decision classification plus the aggregates that the
   paper's Table 1 (Fixed / Cyclic / Backtrack counts, analysis time) and
   Table 2 (lookahead-depth histogram of fixed decisions) summarize.

   Decisions inside [__synpredN] pseudo-rules execute only during
   speculation; like ANTLR we exclude them from the per-grammar counts
   ([counted] = false) while still analyzing them. *)

type decision_report = {
  decision : int;
  rule : string;
  label : string;
  klass : Analysis.decision_class;
  dfa_states : int;
  states_built : Analysis.effort;
    (* analysis effort: DFA states built by each attempt (full
       construction, Bounded retry, LL(1) fallback); a count, not a time,
       so reports stay reproducible *)
  fallback : bool;
  counted : bool;
  warnings : Analysis.warning list;
}

type t = {
  grammar_name : string;
  grammar_lines : int;
  n : int; (* counted parsing decisions *)
  fixed : int;
  cyclic : int;
  backtrack : int;
  fixed_by_k : (int * int) list; (* lookahead depth -> #decisions *)
  analysis_time : float; (* seconds, filled by Compiled *)
  decisions : decision_report array;
}

let count_lines text =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 text

let build ?(grammar_lines = 0) ?(analysis_time = 0.0) ~states_built
    (atn : Atn.t) (results : Analysis.result array) : t =
  let decisions =
    Array.mapi
      (fun i (r : Analysis.result) ->
        let d = atn.decisions.(i) in
        let rule = atn.rules.(d.d_rule) in
        {
          decision = i;
          rule = rule.r_name;
          label = d.d_label;
          klass = r.klass;
          dfa_states = r.dfa.nstates;
          states_built = states_built.(i);
          fallback = r.fallback;
          counted = not rule.r_is_synpred;
          warnings = r.warnings;
        })
      results
  in
  let n = ref 0 and fixed = ref 0 and cyclic = ref 0 and backtrack = ref 0 in
  let by_k = Hashtbl.create 8 in
  Array.iter
    (fun dr ->
      if dr.counted then begin
        incr n;
        match dr.klass with
        | Analysis.Fixed k ->
            incr fixed;
            Hashtbl.replace by_k k
              (1 + Option.value ~default:0 (Hashtbl.find_opt by_k k))
        | Analysis.Cyclic -> incr cyclic
        | Analysis.Backtrack -> incr backtrack
      end)
    decisions;
  let fixed_by_k =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_k [] |> List.sort compare
  in
  {
    grammar_name = atn.grammar.gname;
    grammar_lines;
    n = !n;
    fixed = !fixed;
    cyclic = !cyclic;
    backtrack = !backtrack;
    fixed_by_k;
    analysis_time;
    decisions;
  }

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

(* Percentage of counted decisions that are LL(k) for some fixed k, and
   LL(1) specifically (Table 2's first two columns). *)
let pct_fixed t = pct t.fixed t.n

let pct_ll1 t =
  pct (Option.value ~default:0 (List.assoc_opt 1 t.fixed_by_k)) t.n

(* Machine-readable report snapshot, embedded in bench telemetry documents
   (DFA sizes per decision give the static half of the paper's Table 1). *)
let to_json (t : t) : Obs.Json.t =
  let klass_str = function
    | Analysis.Fixed k -> Printf.sprintf "LL(%d)" k
    | Analysis.Cyclic -> "cyclic"
    | Analysis.Backtrack -> "backtrack"
  in
  Obs.Json.obj
    [
      ("grammar", Obs.Json.str t.grammar_name);
      ("lines", Obs.Json.int t.grammar_lines);
      ("decisions", Obs.Json.int t.n);
      ("fixed", Obs.Json.int t.fixed);
      ("cyclic", Obs.Json.int t.cyclic);
      ("backtrack", Obs.Json.int t.backtrack);
      ( "fixed_by_k",
        Obs.Json.obj
          (List.map
             (fun (k, c) -> (string_of_int k, Obs.Json.int c))
             t.fixed_by_k) );
      ("analysis_s", Obs.Json.float t.analysis_time);
      ( "dfa_states",
        Obs.Json.int
          (Array.fold_left (fun acc d -> acc + d.dfa_states) 0 t.decisions) );
      ( "per_decision",
        Obs.Json.list
          (Array.to_list
             (Array.map
                (fun d ->
                  Obs.Json.obj
                    [
                      ("decision", Obs.Json.int d.decision);
                      ("rule", Obs.Json.str d.rule);
                      ("class", Obs.Json.str (klass_str d.klass));
                      ("dfa_states", Obs.Json.int d.dfa_states);
                      ( "states_built",
                        Obs.Json.int (Analysis.total_effort d.states_built) );
                      ( "states_built_by_attempt",
                        Obs.Json.obj
                          [
                            ("primary", Obs.Json.int d.states_built.primary);
                            ("bounded", Obs.Json.int d.states_built.bounded);
                            ("ll1", Obs.Json.int d.states_built.ll1);
                          ] );
                      ("counted", Obs.Json.bool d.counted);
                    ])
                t.decisions)) );
    ]

let pp ppf (t : t) =
  Fmt.pf ppf "grammar %s: %d decisions: %d fixed, %d cyclic, %d backtrack@."
    t.grammar_name t.n t.fixed t.cyclic t.backtrack;
  Fmt.pf ppf "  fixed lookahead depths:";
  List.iter (fun (k, c) -> Fmt.pf ppf " k=%d:%d" k c) t.fixed_by_k;
  Fmt.pf ppf "@."

let pp_decisions ?(only_interesting = false) (atn : Atn.t) ppf t =
  Array.iter
    (fun dr ->
      let interesting =
        dr.klass <> Analysis.Fixed 1 || dr.warnings <> [] || dr.fallback
      in
      if dr.counted && ((not only_interesting) || interesting) then begin
        let klass_str =
          match dr.klass with
          | Analysis.Fixed k -> Printf.sprintf "LL(%d)" k
          | Analysis.Cyclic -> "cyclic"
          | Analysis.Backtrack -> "backtrack"
        in
        Fmt.pf ppf "  d%d %-30s %-10s %d DFA states%s@." dr.decision dr.label
          klass_str dr.dfa_states
          (if dr.fallback then " (fallback)" else "");
        List.iter
          (fun w ->
            Fmt.pf ppf "    warning: %a@."
              (Analysis.pp_warning atn.sym atn)
              w)
          dr.warnings;
        if dr.fallback then begin
          let e = dr.states_built in
          Fmt.pf ppf
            "    effort: %d DFA states built across all attempts (primary \
             %d, Bounded %d, LL(1) %d)@."
            (Analysis.total_effort e) e.primary e.bounded e.ll1
        end
      end)
    t.decisions
