(* Token stream with mark/seek support for speculation.

   The LL-star strategy is one-pass and left-to-right (paper section 4), so
   the stream only ever needs to rewind as far as the oldest live mark.  The
   high-water mark records the furthest token index touched by lookahead or
   consumption; the profiler uses it to measure speculation depth.

   There is one mode: [toks] is a sliding window over a token sequence
   produced by a pull function.  [base] is the absolute index of
   [toks.(0)]; [limit] is the filled prefix.  Tokens below the release
   frontier -- [min (oldest live mark) (cursor) - 1], i.e. everything
   speculation can no longer rewind to -- are reclaimed when the window
   needs room.  The frontier is always [base].  [of_array] is the
   degenerate case: a window already filled with the whole input over an
   exhausted source, which never needs room and so never slides.

   The cursor [p] and high-water [hw] are window-relative (absolute minus
   [base]); the public API speaks absolute indices.  Keeping [p]/[hw]
   relative is what lets generated parsers inline lookahead and consume as
   direct field accesses. *)

type t = {
  mutable toks : Token.t array; (* window; slots [0, limit) are live *)
  mutable p : int; (* cursor, window-relative: next token to consume *)
  mutable hw : int; (* furthest window-relative index examined *)
  mutable limit : int; (* filled prefix of [toks]; always <= length *)
  mutable base : int; (* absolute index of [toks.(0)]: the frontier *)
  src : unit -> Token.t array; (* chunk source; [ [||] ] ends the input *)
  mutable eof_seen : bool; (* the source returned its last chunk *)
  mutable marks : int list; (* live marks (absolute), newest first *)
  mutable on_release : int -> unit; (* called with the new frontier *)
  mutable peak : int; (* max tokens resident at once *)
}

exception Released of { frontier : int; requested : int }

let () =
  Printexc.register_printer (function
    | Released { frontier; requested } ->
        Some
          (Printf.sprintf
             "Token_stream.Released { frontier = %d; requested = %d }" frontier
             requested)
    | _ -> None)

let default_window = 4096

(* hw = -1: no index has been examined until the first [lt]/[la] call *)
let make toks ~limit ~eof_seen src =
  {
    toks;
    p = 0;
    hw = -1;
    limit;
    base = 0;
    src;
    eof_seen;
    marks = [];
    on_release = ignore;
    peak = limit;
  }

(* A window that is already full and a source that is already exhausted:
   no copy, and [room] is never reached, so the window never slides. *)
let of_array toks =
  make toks ~limit:(Array.length toks) ~eof_seen:true (fun () -> [||])

(* A shared filler for vacated window slots, so reclaimed tokens become
   garbage immediately instead of lingering behind the frontier until the
   slot is overwritten. *)
let filler = Token.eof_token ~index:(-1)

let of_pull ?(window = default_window) pull =
  make (Array.make (max 1 window) filler) ~limit:0 ~eof_seen:false pull

(* Tokens seen so far: the total count once the source is exhausted (at
   once, for [of_array]). *)
let size t = t.base + t.limit

let index t = t.base + t.p

let touch t i = if i > t.hw then t.hw <- i

(* Release frontier: everything below [min (oldest live mark) (cursor) - 1]
   can never be examined again.  Marks bound speculation rewinds; the
   cursor bounds committed consumption; the extra retained token keeps
   [prev] valid. *)
let frontier_target t =
  let floor = List.fold_left min (t.base + t.p) t.marks - 1 in
  max floor t.base

(* Drop released tokens from the front of the window.  All relative
   coordinates (cursor, high-water, fill limit) shift down together, so
   absolute positions are preserved; vacated slots are cleared so the GC
   can reclaim the tokens. *)
let slide t =
  let drop = frontier_target t - t.base in
  if drop > 0 then begin
    let kept = t.limit - drop in
    Array.blit t.toks drop t.toks 0 kept;
    Array.fill t.toks kept drop filler;
    t.base <- t.base + drop;
    t.p <- t.p - drop;
    t.hw <- t.hw - drop;
    t.limit <- kept;
    t.on_release t.base
  end

(* Make room for [n] more tokens: slide first, grow (amortized doubling)
   only if the live span still does not fit.  The window only outgrows its
   configured size when speculation genuinely needs a longer reach. *)
let room t n =
  if t.limit + n > Array.length t.toks then begin
    slide t;
    if t.limit + n > Array.length t.toks then begin
      let cap = max (2 * Array.length t.toks) (t.limit + n) in
      let toks = Array.make cap filler in
      Array.blit t.toks 0 toks 0 t.limit;
      t.toks <- toks
    end
  end

(* Pull one chunk from the source into the window. *)
let fill_once t =
  if not t.eof_seen then begin
    let chunk = t.src () in
    let n = Array.length chunk in
    if n = 0 then t.eof_seen <- true
    else begin
      room t n;
      Array.blit chunk 0 t.toks t.limit n;
      t.limit <- t.limit + n;
      if t.limit > t.peak then t.peak <- t.limit
    end
  end

(* Fill until the window covers relative index [i] (or the source ends).
   Sliding inside [fill_once] may shift [i]; re-deriving it from the
   absolute target keeps the loop correct. *)
let fill_to t i =
  let abs = t.base + i in
  while t.base + t.limit <= abs && not t.eof_seen do
    fill_once t
  done

(* Token at lookahead offset [k] (k >= 1); EOF beyond the end.  The fast
   path is a bounds check against the filled prefix; [lt_slow] pulls from
   the source, or synthesizes EOF once it is exhausted. *)
let lt_slow t k =
  fill_to t (t.p + k - 1);
  let i = t.p + k - 1 in
  touch t i;
  if i < t.limit then t.toks.(i) else Token.eof_token ~index:(t.base + i)

let lt t k =
  let i = t.p + k - 1 in
  if i < t.limit then begin
    touch t i;
    t.toks.(i)
  end
  else lt_slow t k

(* Token type at lookahead offset [k]. *)
let la t k = (lt t k).Token.ttype

(* Out-of-line continuation of the lookahead that generated parsers inline:
   same contract as [la], reached only when [p + k - 1 >= limit]. *)
let la_far t k = la t k

let consume t =
  let tok = lt t 1 in
  if not (Token.is_eof tok) then t.p <- t.p + 1;
  tok

(* One rule for every stream: a negative target clamps to 0, a target
   behind the frontier raises {!Released}, and a forward target clamps to
   the filled prefix ([size] being the legal post-EOF cursor).  Marks
   always come from [mark]/[index] and are in range, but seek is also
   reachable from memoized stop positions and recovery logic, and an
   out-of-range cursor silently accepted here surfaced later as [prev]
   reading outside the array or lookahead running from a negative index.
   A below-frontier target cannot clamp -- the tokens are gone, and a
   clamped rewind would silently corrupt the speculation it was meant to
   restore.  [of_array] never slides, so its frontier stays 0. *)
let seek t i =
  let i = max 0 i in
  if i < t.base then raise (Released { frontier = t.base; requested = i });
  t.p <- min (i - t.base) t.limit

(* Marks pin the window: tokens at or above [oldest mark - 1] survive
   sliding.  Callers must pair every [mark] with [release]; the debug
   retention check ([live_marks]) catches forgotten ones. *)
let mark t =
  let m = t.base + t.p in
  t.marks <- m :: t.marks;
  m

let release t m =
  match t.marks with
  | hd :: tl when hd = m -> t.marks <- tl
  | marks ->
      (* out-of-order release: drop the first matching mark *)
      let rec drop = function
        | [] -> []
        | hd :: tl -> if hd = m then tl else hd :: drop tl
      in
      t.marks <- drop marks

let live_marks t = t.marks

let high_water t = t.base + t.hw

let set_high_water t v = t.hw <- v - t.base

let at_eof t =
  if t.p < t.limit then false
  else begin
    fill_to t t.p;
    t.p >= t.limit
  end

(* Most recently consumed token, if any.  The slide keeps one token behind
   the cursor resident, so [p = 0] implies absolute position 0. *)
let prev t = if t.p > 0 then Some t.toks.(t.p - 1) else None

let set_release_hook t f = t.on_release <- f

let peak_live t = t.peak
