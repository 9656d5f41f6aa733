(** Static sanity checks on grammars, run before analysis.

    Errors ({!is_error} = [true]) make a grammar unusable: undefined or
    duplicated rules, remaining left recursion (LL-star shares PEG's
    restriction; run {!Leftrec.rewrite} first for immediate cases), or an
    empty grammar.  Warnings flag unreachable rules and structurally
    duplicate alternatives (dead under ordered-alternative semantics). *)

type issue =
  | Undefined_rule of { referenced_in : string; name : string }
  | Duplicate_rule of string
  | Left_recursion of string list  (** cycle of rule names *)
  | Unreachable_rule of string
  | Duplicate_alt of { rule : string; alt1 : int; alt2 : int }
  | Empty_grammar

val is_error : issue -> bool
val pp_issue : Format.formatter -> issue -> unit

val check : Ast.t -> issue list
(** All issues, errors first in source order. *)

val errors : Ast.t -> issue list
(** Only the issues that make the grammar unusable. *)

val warnings : Ast.t -> issue list

val compute_nullable : Ast.t -> (string, bool) Hashtbl.t
(** Which rules can derive the empty string (fixpoint over the AST). *)

val find_left_recursion : Ast.t -> string list option
(** A leftmost-derivation cycle, if any, through nullable prefixes, blocks
    and syntactic predicates. *)
