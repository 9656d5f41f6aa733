(** Configurable lexer engine: the scanner substrate used by every benchmark
    grammar.

    Literal tokens (keywords and operators) always come from the grammar's
    vocabulary; the configuration maps the common token *classes*
    (identifiers, numbers, strings, characters), comment styles and
    language-specific quirks (single-quoted SQL strings, T-SQL [@vars],
    VB-style newline tokens, case-insensitive keywords).  A word spelled
    exactly like a named token type (e.g. [A]) lexes as that type, which
    keeps abstract vocabularies usable in tests and examples. *)

type config = {
  ident_token : string option;  (** token type for identifiers, e.g. ["ID"] *)
  int_token : string option;
  float_token : string option;
  string_token : string option;
  string_quote : char;  (** ['"'] for C-family, ['\''] for SQL *)
  char_token : string option;  (** single-quoted character literals *)
  at_ident_token : string option;
      (** token type for ['@']-prefixed identifiers (T-SQL variables) *)
  newline_token : string option;
      (** emit one token per newline run (VB-style line-oriented syntax) *)
  line_comments : string list;  (** e.g. [["//"; "--"]] *)
  block_comments : (string * string) list;  (** e.g. [[("/*", "*/")]] *)
  case_insensitive_keywords : bool;
  extra_ident_start : string;  (** additional identifier start characters *)
  extra_ident_cont : string;
}

val default_config : config
(** C-family defaults: [ID]/[INT], [//] and [/* */] comments,
    double-quoted strings disabled until a token name is supplied. *)

type error = { msg : string; line : int; col : int }

val pp_error : Format.formatter -> error -> unit

exception Lex_error of error
(** Raised by {!pull} when the scanner hits a lex error mid-stream. *)

(** {1 Chunked scanning}

    The scanner is incremental: it reads bytes from a pull-based {!reader}
    through a sliding window and yields tokens in chunks, so unbounded
    inputs lex in O(window) memory.  Chunked and whole-string scanning are
    byte-identical: same tokens, indices, positions, trace events and
    errors. *)

type reader = Bytes.t -> int -> int -> int
(** [reader buf off len] reads up to [len] bytes into [buf] at [off] and
    returns the count; 0 means end of input. *)

val reader_of_string : string -> reader

val reader_of_channel : in_channel -> reader

type stream
(** Incremental scanner state: byte window, position, line/col, token
    count.  One value per input; not thread-safe. *)

val stream :
  ?tracer:Obs.Trace.t ->
  ?buf_chars:int ->
  config ->
  Grammar.Sym.t ->
  reader ->
  stream
(** Open an incremental scan of [reader] against a grammar's vocabulary.
    [buf_chars] (default 4 KiB, at least 64) sizes the byte window: it
    starts at 1 KiB (or [buf_chars], if smaller) and doubles up to
    [buf_chars] each time a read fills it, so a short input holds only
    what it needs.  The window retains the current token from its first
    byte, so it also doubles when one token (an identifier, number,
    string or character literal) outlives it; whitespace and comments are
    never retained, however long.  The scanner tables for a frozen
    vocabulary and a config are built once and shared by every stream
    over them. *)

val next_chunk : ?max_tokens:int -> stream -> (Token.t array, error) result
(** Scan up to [max_tokens] (default 256) further tokens.  [Ok [||]]
    means the input is exhausted; after an [Error] the stream stays
    failed.  Tokens scanned before a mid-chunk failure are withheld, so a
    failing input yields the same observable outcome as {!tokenize}. *)

val pull : ?chunk_tokens:int -> stream -> unit -> Token.t array
(** [pull s] is a chunk source compatible with [Token_stream.of_pull];
    lex failures raise {!Lex_error} at the lookahead call that pulled
    them. *)

val drain : stream -> (int, error) result
(** Scan the remaining input without retaining tokens: the count of
    remaining tokens, or the first lex error.  Lets a streaming driver
    report the same verdict and token total as the materialized path,
    which always lexes everything first. *)

val produced : stream -> int
(** Tokens produced so far (across all chunks). *)

val tokenize :
  ?tracer:Obs.Trace.t ->
  config ->
  Grammar.Sym.t ->
  string ->
  (Token.t array, error) result
(** Tokenize [src] against a grammar's vocabulary.  Keywords are matched
    before identifiers; operators by maximal munch.  [tracer] receives
    [Lexer_mode_enter]/[Lexer_mode_exit] events around the block-comment,
    string and character sub-scanners.  [src] is scanned in place, without
    a copy into a window. *)

val tokenize_exn :
  ?tracer:Obs.Trace.t -> config -> Grammar.Sym.t -> string -> Token.t array
