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

type strategy =
  | Eager  (** full static analysis of every decision up front *)
  | Lazy
      (** start states only; lookahead DFAs are grown on demand at
          prediction time by per-decision {!Lazy_dfa} engines *)

type origin = Fresh | From_cache

type t = {
  surface : Grammar.Ast.t;  (** the grammar as written *)
  grammar : Grammar.Ast.t;  (** prepared grammar the ATN was built from *)
  atn : Atn.t;
  opts : Analysis.options;  (** resolved analysis options actually used *)
  results : Analysis.result array;
      (** indexed by decision number; in lazy mode this is the compile-time
          snapshot (start states only) -- use {!result}/{!dfa} for the live
          view *)
  report : Report.t;
  engines : Lazy_dfa.t array option;
      (** per-decision lazy engines; [Some] iff compiled with [Lazy] *)
  origin : origin;  (** whether this value was loaded from the cache *)
}

val sym : t -> Grammar.Sym.t
(** The vocabulary: terminal and rule ids shared by the ATN, the DFAs, the
    lexer engine and the parser. *)

val options : t -> Grammar.Ast.options
val strategy : t -> strategy
val from_cache : t -> bool

val with_origin : t -> origin -> t
(** Re-tag the provenance; used by {!Compiled_cache} on load. *)

val engine : t -> int -> Lazy_dfa.t option
(** The lazy engine of a decision, when compiled with [Lazy]. *)

val result : t -> int -> Analysis.result
(** Live analysis result of a decision: the engine's current (possibly
    partial) DFA in lazy mode, the static one otherwise. *)

val dfa : t -> int -> Look_dfa.t
val num_decisions : t -> int

val live_report : t -> Report.t
(** The report of the live view: in lazy mode rebuilt from every engine's
    current result and effort, otherwise [report]. *)

val compile :
  ?analysis_opts:Analysis.options ->
  ?grammar_source:string ->
  ?pool:Exec.Pool.t ->
  ?strategy:strategy ->
  Grammar.Ast.t ->
  (t, error) result
(** Compile a grammar.  [grammar_source] is only used to record the line
    count in the report.  The left-recursion rewrite runs before
    validation, so immediately left-recursive rules are accepted.
    [strategy] defaults to [Eager].  [pool] fans per-decision lookahead-DFA
    analysis out across the pool's workers; the result (and its
    {!Compiled_cache} payload digest) is byte-identical to the sequential
    build, because decisions are independent and merged in decision
    order. *)

val compile_exn :
  ?analysis_opts:Analysis.options ->
  ?grammar_source:string ->
  ?pool:Exec.Pool.t ->
  ?strategy:strategy ->
  Grammar.Ast.t ->
  t

val of_source :
  ?analysis_opts:Analysis.options ->
  ?pool:Exec.Pool.t ->
  ?strategy:strategy ->
  string ->
  (t, error) result
(** Parse metalanguage source and compile it. *)

val of_source_exn :
  ?analysis_opts:Analysis.options ->
  ?pool:Exec.Pool.t ->
  ?strategy:strategy ->
  string ->
  t

val all_warnings : t -> Analysis.warning list
