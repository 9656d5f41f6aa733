(** Token stream with mark/seek support for speculation.

    LL-star parsing is one-pass and left-to-right (paper section 4): the
    stream only rewinds as far as the oldest live mark.  The high-water
    mark records the furthest index examined by lookahead or consumption;
    the profiler uses it to measure speculation depth.

    There is one mode: [toks] is a sliding window over the token sequence
    a pull function produces.  Tokens behind the {e release frontier} --
    [min (oldest live mark) (cursor) - 1], everything speculation can no
    longer rewind to -- are reclaimed when the window needs room, so live
    memory is O(window + speculation reach) instead of O(input).
    {!of_array} is the degenerate window: already filled with the whole
    input over an exhausted source, so it makes no copy and never slides.
    The public API speaks absolute token indices throughout. *)

type t = {
  mutable toks : Token.t array; (* window; slots [0, limit) are live *)
  mutable p : int; (* cursor, window-relative: next token to consume *)
  mutable hw : int; (* furthest window-relative index examined; -1 initially *)
  mutable limit : int; (* filled prefix of [toks]; always <= length *)
  mutable base : int; (* absolute index of [toks.(0)]: the frontier *)
  src : unit -> Token.t array; (* chunk source; [ [||] ] ends the input *)
  mutable eof_seen : bool; (* the source returned its last chunk *)
  mutable marks : int list; (* live marks (absolute), newest first *)
  mutable peak : int; (* max tokens resident at once *)
  window : int; (* length [toks] grows to before the window slides *)
}
(** The representation is exposed so generated parsers (lib/codegen's
    emitter) can inline the lookahead/consume hot path as direct field
    accesses: [p]/[hw] are window-relative, and a read below [limit] may
    use [Array.unsafe_get].  Everyone else should treat it as abstract and
    use the functions below; any manual update must preserve the
    invariants they maintain (cursor within [0, limit], [limit] within the
    array, high-water monotone between rewinds). *)

exception Released of { frontier : int; requested : int }
(** Raised by {!seek} when the target index has been reclaimed:
    [requested < frontier].  A silent clamp here would corrupt the
    speculation rewind that issued the seek. *)

val default_window : int
(** The window {!of_pull} uses when none is given (4096 tokens); also the
    default of the serve [window] field and the CLI's [--window]. *)

val of_array : Token.t array -> t
(** A window over the whole array, without copying it.  The source is
    already exhausted, so the window never slides and the frontier stays
    at 0. *)

val of_pull : ?window:int -> (unit -> Token.t array) -> t
(** [of_pull pull] is a window over the token chunks produced by [pull]
    ([ [||] ] meaning end of input; exceptions propagate to the lookahead
    call that triggered the pull).  [window] (default {!default_window})
    sizes the window: the token array starts empty, takes the size of
    the first chunk and doubles up to [window] as tokens arrive, so a
    parse holds only what its input fills, whatever the window (up to
    [max_int]).  The window slides once [window] tokens are resident, and
    grows past [window] -- by doubling -- only when the live span
    (unreleased marks plus lookahead reach) exceeds it. *)

val size : t -> int
(** Tokens seen so far: the total pulled count, complete once the source
    is exhausted (at once, for {!of_array}). *)

val index : t -> int
(** Absolute index of the next token to consume. *)

val lt : t -> int -> Token.t
(** [lt t k] is the token [k] ahead (k >= 1), pulling from the source as
    needed; a synthetic EOF token beyond the end. *)

val la : t -> int -> int
(** Token type at lookahead offset [k]. *)

val la_far : t -> int -> int
(** Out-of-line continuation of the lookahead that generated parsers
    inline: same contract as {!la}, called when [p + k - 1 >= limit]. *)

val consume : t -> Token.t
(** Consume and return the next token; does not move past EOF. *)

val prev : t -> Token.t option
(** The most recently consumed token.  The window always retains at least
    one token behind the cursor. *)

val mark : t -> int
(** Record the cursor as a rewind target.  The mark pins the window --
    tokens from [mark - 1] on are retained -- until the matching
    {!release}. *)

val release : t -> int -> unit
(** Release a mark obtained from {!mark}, allowing the window to slide past
    it. *)

val live_marks : t -> int list
(** Outstanding (unreleased) marks, newest first: the debug retention
    check.  A non-empty result after a completed parse is a mark leak --
    the window can never slide past the oldest entry. *)

val seek : t -> int -> unit
(** Reposition the cursor.  A negative target clamps to 0; a target behind
    the frontier raises {!Released}; a forward target clamps to the filled
    prefix ({!size} being the post-EOF position). *)

val at_eof : t -> bool

val high_water : t -> int
(** Furthest absolute index examined so far; [-1] until the first
    [lt]/[la] call. *)

val set_high_water : t -> int -> unit

val frontier : t -> int
(** Absolute index of the oldest resident token: {!seek} below it raises
    {!Released}.  It advances each time the window slides, and stays 0 for
    {!of_array}. *)

val peak_live : t -> int
(** Maximum number of tokens resident in the window at once: the live
    memory high-water of a parse (the array length for {!of_array}). *)
