(* End-to-end grammar compilation pipeline:

     validate -> left-recursion rewrite -> PEG mode (if backtrack=true)
       -> syntactic-predicate lifting -> ATN construction
       -> lookahead-DFA analysis for every decision -> report

   The result bundles everything the runtime interpreter needs, including
   the flat, epsilon-free program it runs ([Atn.Program]), built from the
   ATN in one pass after the analysis.  Every decision's lookahead DFA is
   fully materialized up front by the paper's static analysis;
   [Compiled_cache] skips that work on later runs.  Error recovery's sync
   sets are built on the first recovery instead ({!sync_sets}): most
   parses never recover, and compile time should not pay for them. *)

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
  program : Atn.Program.t; (* the interpreter's flat view of [atn] *)
  sync : Bitset.t array option Atomic.t; (* see [sync_sets] *)
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
                  program = Atn.Program.of_atn atn;
                  sync = Atomic.make None;
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

(* Panic-mode recovery's sync set of each rule, by rule id: FOLLOW(rule) u
   {EOF}, with FOLLOW (section 7) computed over the prepared grammar's BNF
   skeleton -- the terminals that can come right after the rule in some
   calling context.  EOF is always in, so a sync never skips past the end
   of the input.  FOLLOW's interned terminal ids are translated to the
   lexer's token types; the grammar-level "." maps to the wildcard token.

   Built on the first call and kept in the compiled value, so every later
   parse of the grammar reuses them.  Domains may race to build them; the
   sets are read-only once built, and the loser adopts the winner's. *)
let build_sync_sets (a : Atn.t) : Bitset.t array =
  let ff = Grammar.First_follow.compute (Grammar.Bnf.convert a.Atn.grammar) in
  let token_type =
    Array.init (Grammar.First_follow.num_terms ff) (fun i ->
        let name = Grammar.First_follow.term_name ff i in
        if name = "." then Grammar.Sym.wildcard
        else
          match Grammar.Sym.find_term a.Atn.sym name with
          | Some id -> id
          | None -> -1)
  in
  let sync (ri : Atn.rule_info) =
    let set = Bitset.create (Grammar.Sym.num_terms a.Atn.sym) in
    Bitset.add set Grammar.Sym.eof;
    (match Grammar.First_follow.nonterm_id ff ri.Atn.r_name with
    | None -> ()
    | Some n ->
        Bitset.iter
          (fun fid ->
            if token_type.(fid) >= 0 then Bitset.add set token_type.(fid))
          (Grammar.First_follow.follow_ids ff n));
    set
  in
  Array.map sync a.Atn.rules

let sync_sets t : Bitset.t array =
  match Atomic.get t.sync with
  | Some sets -> sets
  | None ->
      let sets = build_sync_sets t.atn in
      if Atomic.compare_and_set t.sync None (Some sets) then sets
      else Option.get (Atomic.get t.sync)

(* All analysis warnings across decisions, with their decision ids. *)
let all_warnings t : Analysis.warning list =
  List.concat_map
    (fun i -> (result t i).Analysis.warnings)
    (List.init (num_decisions t) Fun.id)
