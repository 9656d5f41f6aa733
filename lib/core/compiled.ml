(* End-to-end grammar compilation pipeline:

     validate -> left-recursion rewrite -> PEG mode (if backtrack=true)
       -> syntactic-predicate lifting -> ATN construction
       -> lookahead-DFA analysis for every decision -> report

   The result bundles everything the runtime interpreter needs.  Every
   decision's lookahead DFA is fully materialized up front by the paper's
   static analysis; [Compiled_cache] skips that work on later runs. *)

type error =
  | Validation of Grammar.Validate.issue list
  | Message of string

let pp_error ppf = function
  | Validation issues ->
      Fmt.pf ppf "invalid grammar:@.%a"
        Fmt.(list ~sep:cut Grammar.Validate.pp_issue)
        issues
  | Message m -> Fmt.string ppf m

type origin = Fresh | From_cache

type t = {
  surface : Grammar.Ast.t; (* grammar as written *)
  grammar : Grammar.Ast.t; (* prepared grammar the ATN was built from *)
  atn : Atn.t;
  opts : Analysis.options; (* resolved analysis options actually used *)
  results : Analysis.result array; (* per decision *)
  report : Report.t;
  origin : origin;
}

let sym t = t.atn.Atn.sym
let options t = t.surface.Grammar.Ast.options
let from_cache t = t.origin = From_cache
let with_origin t origin = { t with origin }
let result t decision = t.results.(decision)
let dfa t decision = t.results.(decision).Analysis.dfa
let num_decisions t = Array.length t.results

(* [pool] fans the per-decision lookahead-DFA work out across a worker
   pool (see [Analysis.analyze_all]); the compiled result is byte-identical
   to the sequential build.  The vocabulary is frozen once the ATN exists,
   so the fan-out shares only provably read-only grammar structures. *)
let compile ?analysis_opts ?grammar_source ?pool (surface : Grammar.Ast.t) :
    (t, error) result =
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
              let r = Analysis.analyze_all_effort ~opts ?pool atn in
              let results = Array.map fst r in
              let dt = Unix.gettimeofday () -. t0 in
              let grammar_lines =
                match grammar_source with
                | Some src -> Report.count_lines src
                | None -> 0
              in
              let states_built =
                Array.map (fun (_, (e : Analysis.effort)) -> e.states) r
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
                  origin = Fresh;
                }))

let compile_exn ?analysis_opts ?grammar_source ?pool surface =
  match compile ?analysis_opts ?grammar_source ?pool surface with
  | Ok t -> t
  | Error e -> failwith (Fmt.str "%a" pp_error e)

(* Parse a grammar written in the metalanguage and compile it. *)
let of_source ?analysis_opts ?pool (src : string) : (t, error) result =
  match Grammar.Meta_parser.parse_result src with
  | Error msg -> Error (Message msg)
  | Ok surface ->
      compile ?analysis_opts ~grammar_source:src ?pool surface

let of_source_exn ?analysis_opts ?pool src =
  match of_source ?analysis_opts ?pool src with
  | Ok t -> t
  | Error e -> failwith (Fmt.str "%a" pp_error e)

(* All analysis warnings across decisions, with their decision ids. *)
let all_warnings t : Analysis.warning list =
  List.concat_map
    (fun i -> (result t i).Analysis.warnings)
    (List.init (num_decisions t) Fun.id)
