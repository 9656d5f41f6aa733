(** End-to-end grammar compilation: validation, transforms, ATN
    construction and lookahead-DFA analysis for every decision.

    This is the main entry point of the core library:

    {[
      let c = Llstar.Compiled.of_source_exn "grammar T; s : A | B ;" in
      Fmt.pr "%a" Llstar.Report.pp c.report
    ]} *)

type error =
  | Validation of Grammar.Validate.issue list
  | Message of string

val pp_error : Format.formatter -> error -> unit

type origin = Fresh | From_cache

type t = {
  surface : Grammar.Ast.t;  (** the grammar as written *)
  grammar : Grammar.Ast.t;  (** prepared grammar the ATN was built from *)
  atn : Atn.t;
  program : Atn.Program.t;
      (** the interpreter's flat, epsilon-free view of [atn] *)
  opts : Analysis.options;  (** resolved analysis options actually used *)
  results : Analysis.result array;  (** indexed by decision number *)
  report : Report.t;
  origin : origin;  (** whether this value was loaded from the cache *)
}

val sym : t -> Grammar.Sym.t
(** The vocabulary: terminal and rule ids shared by the ATN, the DFAs, the
    lexer engine and the parser. *)

val options : t -> Grammar.Ast.options
val from_cache : t -> bool

val with_origin : t -> origin -> t
(** Re-tag the provenance; used by {!Compiled_cache} on load. *)

val result : t -> int -> Analysis.result
val dfa : t -> int -> Look_dfa.t
val num_decisions : t -> int

val compile :
  ?analysis_opts:Analysis.options ->
  ?grammar_source:string ->
  ?pool:Exec.Pool.t ->
  Grammar.Ast.t ->
  (t, error) result
(** Compile a grammar.  [grammar_source] is only used to record the line
    count in the report.  The left-recursion rewrite runs before
    validation, so immediately left-recursive rules are accepted.
    [pool] fans per-decision lookahead-DFA
    analysis out across the pool's workers; the result (and its
    {!Compiled_cache} payload digest) is byte-identical to the sequential
    build, because decisions are independent and merged in decision
    order. *)

val compile_exn :
  ?analysis_opts:Analysis.options ->
  ?grammar_source:string ->
  ?pool:Exec.Pool.t ->
  Grammar.Ast.t ->
  t

val of_source :
  ?analysis_opts:Analysis.options ->
  ?pool:Exec.Pool.t ->
  string ->
  (t, error) result
(** Parse metalanguage source and compile it. *)

val of_source_exn :
  ?analysis_opts:Analysis.options ->
  ?pool:Exec.Pool.t ->
  string ->
  t

val all_warnings : t -> Analysis.warning list
