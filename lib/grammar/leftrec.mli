(** Elimination of immediate left recursion by rewriting into a
    precedence-predicated loop (paper section 1.1):

    {[ e : e '*' e | e '+' e | INT ; ]}

    becomes

    {[ e[p] : (INT) ( {p <= 2}? '*' e[3] | {p <= 1}? '+' e[2] )* ; ]}

    The first alternative binds tightest; binary operators associate to the
    left (their recursive tail parses at precedence n+1); prefix operators
    bind their operand at their own precedence.  Trailing predicates and
    actions of a left-recursive alternative ([e '*' e {mul}]) are carried
    into the loop. *)

type alt_class =
  | Binary of Ast.element list * Ast.element list
      (** middle between the two self references, trailing elements after
          the second *)
  | Suffix of Ast.element list  (** tail after the leading self reference *)
  | Primary

val classify : string -> Ast.alt -> alt_class

val is_left_recursive_rule : Ast.rule -> bool
(** Immediate (self-referential) left recursion only; indirect cycles are a
    validation error instead. *)

val rewrite_rule : Ast.rule -> Ast.rule
(** @raise Invalid_argument when the rule has no non-left-recursive
    alternative. *)

val rewrite : Ast.t -> Ast.t
(** Rewrite every immediately left-recursive rule; other rules unchanged. *)
