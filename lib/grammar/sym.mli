(** Symbol vocabulary: interning of terminals (token types) and nonterminals
    (rule names).

    Terminals and nonterminals live in separate dense integer id spaces.
    Terminal id {!eof} (0) is always the end-of-file token; terminal id
    {!wildcard} (1) is the placeholder matched by the [.] grammar element. *)

type t

val create : unit -> t

val eof : int
(** Terminal id of the implicit end-of-file token. *)

val wildcard : int
(** Terminal id of the wildcard pseudo-terminal used by [.]. *)

val eof_name : string

val intern_term : t -> string -> int
(** [intern_term t name] returns the id for terminal [name], creating it if
    needed.  A single-quoted [name] (e.g. ["'int'"]) is registered as a
    literal token and its raw text recorded for lexer-table construction. *)

val intern_nonterm : t -> string -> int

val freeze : t -> unit
(** Close the vocabulary: after [freeze t], interning a symbol that is not
    already present raises [Invalid_argument] (looking up or re-interning
    an existing symbol stays legal and never mutates).  Compilation
    freezes the vocabulary once ATN construction is done, which makes the
    table safely shareable -- read-only by construction -- across the
    worker domains of the parallel analysis and batch-parse drivers. *)

val is_frozen : t -> bool

val find_term : t -> string -> int option
val term_name : t -> int -> string
val nonterm_name : t -> int -> string
val num_terms : t -> int
val num_nonterms : t -> int

val is_literal_name : string -> bool
(** Whether a terminal spelling denotes a literal token (['...']). *)

val unquote : string -> string
(** [unquote "'foo'"] is ["foo"]; other spellings pass through unchanged. *)

val literal_text : t -> int -> string option
(** Raw (unquoted) text of a literal terminal, if [id] is one. *)

val is_literal : t -> int -> bool

val literals : t -> (string * int) list
(** All literal terminals as [(raw text, id)], sorted. *)
