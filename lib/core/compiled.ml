(* End-to-end grammar compilation pipeline:

     validate -> left-recursion rewrite -> PEG mode (if backtrack=true)
       -> syntactic-predicate lifting -> ATN construction
       -> lookahead-DFA analysis for every decision -> report

   The result bundles everything the runtime interpreter needs.

   Two analysis strategies are available.  [Eager] is the paper's static
   analysis: every decision's lookahead DFA is fully materialized up front.
   [Lazy] only builds each decision's start state and hands the runtime a
   [Lazy_dfa] engine per decision; DFA states are then discovered on demand
   at prediction time, which makes cold start proportional to the ATN size
   rather than to the total DFA size.  In lazy mode [results] and [report]
   are the compile-time snapshot (start states only); use the accessors
   [dfa]/[result] for the live view. *)

type error =
  | Validation of Grammar.Validate.issue list
  | Message of string

let pp_error ppf = function
  | Validation issues ->
      Fmt.pf ppf "invalid grammar:@.%a"
        Fmt.(list ~sep:cut Grammar.Validate.pp_issue)
        issues
  | Message m -> Fmt.string ppf m

type strategy = Eager | Lazy

type origin = Fresh | From_cache

type t = {
  surface : Grammar.Ast.t; (* grammar as written *)
  grammar : Grammar.Ast.t; (* prepared grammar the ATN was built from *)
  atn : Atn.t;
  opts : Analysis.options; (* resolved analysis options actually used *)
  results : Analysis.result array; (* per decision; snapshot in lazy mode *)
  report : Report.t;
  engines : Lazy_dfa.t array option; (* per decision, [Lazy] strategy only *)
  origin : origin;
}

let sym t = t.atn.Atn.sym
let options t = t.surface.Grammar.Ast.options
let strategy t = match t.engines with Some _ -> Lazy | None -> Eager
let from_cache t = t.origin = From_cache
let with_origin t origin = { t with origin }
let engine t decision = Option.map (fun e -> e.(decision)) t.engines

(* Live per-decision view: in lazy mode the engine's current (possibly
   partial) DFA, otherwise the statically analyzed one. *)
let result t decision =
  match t.engines with
  | Some e -> Lazy_dfa.result e.(decision)
  | None -> t.results.(decision)

(* The prediction hot path: in lazy mode this must stay lock-free (the
   engine's published snapshot), not go through [result], which takes the
   engine lock to assemble warnings. *)
let dfa t decision =
  match t.engines with
  | Some e -> Lazy_dfa.current e.(decision)
  | None -> t.results.(decision).Analysis.dfa

let num_decisions t = Array.length t.results

(* The report of the live view: in lazy mode, rebuilt from every engine's
   current result and effort (the compile-time [report] only covers start
   states); otherwise the static report. *)
let live_report t =
  match t.engines with
  | None -> t.report
  | Some e ->
      Report.build ~grammar_lines:t.report.Report.grammar_lines
        ~analysis_time:t.report.Report.analysis_time
        ~states_built:(Array.map Lazy_dfa.states_built e)
        t.atn
        (Array.map Lazy_dfa.result e)

(* [pool] fans the per-decision lookahead-DFA work out across a worker
   pool (see [Analysis.analyze_all]); the compiled result is byte-identical
   to the sequential build.  The vocabulary is frozen once the ATN exists,
   so the fan-out shares only provably read-only grammar structures. *)
let compile ?analysis_opts ?grammar_source ?pool ?(strategy = Eager)
    (surface : Grammar.Ast.t) : (t, error) result =
  (* The left-recursion rewrite runs before validation so that immediate
     left recursion -- which the rewrite eliminates -- is not rejected;
     everything it cannot handle still surfaces as a validation error. *)
  let rewritten =
    try Grammar.Leftrec.rewrite surface
    with Invalid_argument _ -> surface
  in
  match Grammar.Validate.errors rewritten with
  | _ :: _ as issues -> Error (Validation issues)
  | [] -> (
      match Grammar.Transform.prepare rewritten with
      | exception Invalid_argument m -> Error (Message m)
      | prepared -> (
          match Atn.Build.build prepared with
          | exception Invalid_argument m -> Error (Message m)
          | atn ->
              (* Interning is complete: close the vocabulary before any
                 analysis work (possibly on worker domains) can reach it. *)
              Grammar.Sym.freeze atn.Atn.sym;
              let opts =
                match analysis_opts with
                | Some o -> o
                | None -> Analysis.options_of_grammar prepared
              in
              let t0 = Unix.gettimeofday () in
              let results, states_built, engines =
                match strategy with
                | Eager ->
                    let r = Analysis.analyze_all_effort ~opts ?pool atn in
                    (Array.map fst r, Array.map snd r, None)
                | Lazy ->
                    (* Engine creation only builds each decision's start
                       state; they are independent, so the fan-out is the
                       same as the eager one, just over far less work. *)
                    let mk d = Lazy_dfa.create ~opts atn d in
                    let engines =
                      match pool with
                      | Some p when Exec.Pool.jobs p > 1 ->
                          Exec.Pool.map_array p mk atn.Atn.decisions
                      | _ -> Array.map mk atn.Atn.decisions
                    in
                    ( Array.map Lazy_dfa.result engines,
                      Array.map Lazy_dfa.states_built engines,
                      Some engines )
              in
              let dt = Unix.gettimeofday () -. t0 in
              let grammar_lines =
                match grammar_source with
                | Some src -> Report.count_lines src
                | None -> 0
              in
              let report =
                Report.build ~grammar_lines ~analysis_time:dt ~states_built atn
                  results
              in
              Ok
                {
                  surface;
                  grammar = prepared;
                  atn;
                  opts;
                  results;
                  report;
                  engines;
                  origin = Fresh;
                }))

let compile_exn ?analysis_opts ?grammar_source ?pool ?strategy surface =
  match compile ?analysis_opts ?grammar_source ?pool ?strategy surface with
  | Ok t -> t
  | Error e -> failwith (Fmt.str "%a" pp_error e)

(* Parse a grammar written in the metalanguage and compile it. *)
let of_source ?analysis_opts ?pool ?strategy (src : string) : (t, error) result
    =
  match Grammar.Meta_parser.parse_result src with
  | Error msg -> Error (Message msg)
  | Ok surface ->
      compile ?analysis_opts ~grammar_source:src ?pool ?strategy surface

let of_source_exn ?analysis_opts ?pool ?strategy src =
  match of_source ?analysis_opts ?pool ?strategy src with
  | Ok t -> t
  | Error e -> failwith (Fmt.str "%a" pp_error e)

(* All analysis warnings across decisions, with their decision ids; the
   live view, so in lazy mode only warnings discovered so far appear. *)
let all_warnings t : Analysis.warning list =
  List.concat_map
    (fun i -> (result t i).Analysis.warnings)
    (List.init (num_decisions t) Fun.id)
