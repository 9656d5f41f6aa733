(* The speculation memo (paper section 6.2), shared by {!Interp} and
   {!Generated}: rule results are memoized only while speculating, keyed by
   (rule, precedence, position), and mapped to the stop index of a
   successful invocation or to [failed].

   Most lookups miss (0-21% hit on the bench grammars' corpora, none on a
   PEG-mode StreamScale parse), and every miss is followed by an add, so
   the structure is built for that pair:

   - a ring of position slots, indexed by the position's low bits.  A
     slot is one word: a 32-bit filter with a bit per rule, and the log
     index of the newest entry at its position, whose key says which
     position that is.  A lookup whose rule bit is clear is absent after
     one read;
   - an append-only log of entries (the key, and the value packed with
     the next older entry at the same position).  Only a lookup that
     passes the filter reads the log, and walks its position's chain.

   So a miss and its add are a few array reads and writes: no hashing, no
   probe sequence, and a slot whose entry is gone or belongs elsewhere is
   reused by overwriting it, never by clearing.  Ring and log live in
   blocks of at most 256 words, which the minor heap takes: growth
   allocates blocks rather than one large array, so a short parse's memo
   dies young even after it grew.

   One lifetime rule bounds the memo: the stream only rewinds to the mark
   of a running speculation, so once an outermost speculation starts at
   position q, no lookup below q can come again ({!forget_before}).  The
   start becomes the floor; a slot tagged below it is free, and the log
   drops the entries below it when it fills.  When every entry is dead
   the log empties in O(1).  Every entry at or above the floor is kept,
   so hits and misses are those of a table that never drops a live
   entry, and backtracking stays linear (Ford's packrat bound). *)

(* Position in bits 0..29, precedence bound in bits 30..44, rule id in
   bits 45..61.  The bounds are far beyond anything a real grammar
   produces (2^30 tokens, prec < 2^15, 2^17 rules).  Every key is
   non-negative. *)
let key ~(rule : int) ~(prec : int) ~(pos : int) : int =
  (((rule lsl 15) lor prec) lsl 30) lor pos

let pos_of_key (key : int) : int = key land 0x3FFFFFFF

(* [find]'s answers besides a stop index (which is >= 0). *)
let failed = -1
let absent = -2

(* The filter bit of (rule, prec) at a position whose ring lap (the
   position over the ring size) is [lap].  Rules that share a bit only
   cost a chain walk.  Mixing in the lap moves a rule's bit from one lap
   to the next, so a slot last used a lap earlier, by the same rules at
   the same offset in a repeated construct, mostly answers absent
   without a look at the log. *)
let[@inline] bit ~rule ~prec ~lap =
  1 lsl ((rule + (prec lsl 2) + (7 * lap)) land 31)

(* A slot word: the log index of the newest entry at the slot's position,
   plus one, above the 32-bit filter.  The slot belongs to the position
   of that entry; an index past the log, or an entry of a position with
   another slot, means the slot is free.  An unused slot is 0. *)
let[@inline] head w = (w lsr 32) - 1
let[@inline] slot_word e filter = ((e + 1) lsl 32) lor filter

(* An entry's second word: its value (a stop index or [failed]) in bits
   0..30 and the log index of the next older entry at its position (or
   -1) in bits 31..61, each plus one. *)
let[@inline] pack v next = ((next + 1) lsl 31) lor (v + 1)
let[@inline] value_of x = (x land 0x7FFFFFFF) - 1
let[@inline] next_of x = (x lsr 31) - 1

(* Ring and log are arrays of blocks of at most 256 words: 256 slots of
   one word, or 128 entries of two; a ring or log smaller than a block is
   one short block. *)
let ring_bits = 8
let log_bits = 7
let[@inline] slot_off i = i land ((1 lsl ring_bits) - 1)
let[@inline] entry_off e = (e land ((1 lsl log_bits) - 1)) lsl 1

(* [n] zeroed slots or entries of [words] words each. *)
let blocks ~bits ~words n =
  let per = 1 lsl bits in
  if n <= per then [| Array.make (words * n) 0 |]
  else Array.init (n / per) (fun _ -> Array.make (words * per) 0)

let ring_blocks n = blocks ~bits:ring_bits ~words:1 n
let log_blocks n = blocks ~bits:log_bits ~words:2 n

(* Initial sizes: 32 positions and 32 entries, 96 words in all, enough
   for one StreamScale statement's speculation. *)
let ring0_bits = 5
let ring0 = 1 lsl ring0_bits
let log0 = 32

type t = {
  mutable ring : int array array; (* per slot: newest entry and filter *)
  mutable rbits : int; (* log2 of the slot count *)
  mutable rmask : int; (* slots - 1 *)
  mutable log : int array array; (* per entry: key, value and next *)
  mutable cap : int; (* entries the log holds *)
  mutable n : int; (* entries in the log *)
  mutable hi : int; (* largest position added since the log was empty *)
  mutable floor : int; (* entries keyed below it are dead *)
}

let create () : t =
  {
    ring = ring_blocks ring0;
    rbits = ring0_bits;
    rmask = ring0 - 1;
    log = log_blocks log0;
    cap = log0;
    n = 0;
    hi = -1;
    floor = 0;
  }

(* Entries held, dead ones included until the log drops them. *)
let length t = t.n

let[@inline] key_at log e = log.(e lsr log_bits).(entry_off e)

(* The position whose chain slot [i] holds, or -1 if it is free. *)
let owner t i w =
  let e = head w in
  if e < 0 || e >= t.n then -1
  else
    let p = pos_of_key (key_at t.log e) in
    if p land t.rmask = i then p else -1

(* The log index of [key] on the chain from entry [e], or -1. *)
let rec entry log key e =
  if e < 0 then -1
  else
    let b = log.(e lsr log_bits) and o = entry_off e in
    if b.(o) = key then e else entry log key (next_of b.(o + 1))

let find t ~(rule : int) ~(prec : int) ~(pos : int) : int =
  let i = pos land t.rmask in
  let w = t.ring.(i lsr ring_bits).(slot_off i) in
  if w land bit ~rule ~prec ~lap:(pos lsr t.rbits) = 0 || owner t i w <> pos
  then absent
  else
    let e = entry t.log (key ~rule ~prec ~pos) (head w) in
    if e < 0 then absent
    else value_of t.log.(e lsr log_bits).(entry_off e + 1)

(* Write entry [e], keyed [k] with value [v] and filter bit [b], at the
   head of its position's chain in slot [i], whose word is [w]; [owned]
   says whether the slot holds that position's chain, else it is claimed. *)
let write t e k v b i w ~owned =
  let l = t.log.(e lsr log_bits) and eo = entry_off e in
  l.(eo) <- k;
  l.(eo + 1) <- pack v (if owned then head w else -1);
  t.ring.(i lsr ring_bits).(slot_off i) <-
    slot_word e ((if owned then w land 0xFFFFFFFF else 0) lor b)

(* [write] entry [e] into the slot of its key's position. *)
let link t e k v =
  let p = pos_of_key k in
  let i = p land t.rmask in
  let w = t.ring.(i lsr ring_bits).(slot_off i) in
  let b =
    bit ~rule:(k lsr 45) ~prec:((k lsr 30) land 0x7FFF) ~lap:(p lsr t.rbits)
  in
  write t e k v b i w ~owned:(owner t i w = p)

(* Keep the live entries, in order, and chain each into its position's
   slot.  No slot may hold a live position's chain yet. *)
let relink t =
  let j = ref 0 and n = t.n in
  (* [owner] sees only the entries already kept *)
  for e = 0 to n - 1 do
    let b = t.log.(e lsr log_bits) and o = entry_off e in
    let k = b.(o) and v = value_of b.(o + 1) in
    if pos_of_key k >= t.floor then begin
      t.n <- !j;
      link t !j k v;
      incr j
    end
  done;
  t.n <- !j

(* The log is full: drop its dead entries, and double it if more than
   3/4 of it is live. *)
let make_room t =
  for e = 0 to t.n - 1 do
    let i = pos_of_key (key_at t.log e) land t.rmask in
    t.ring.(i lsr ring_bits).(slot_off i) <- 0
  done;
  relink t;
  if 4 * t.n > 3 * t.cap then begin
    if t.cap < 1 lsl log_bits then begin
      let b = Array.make (4 * t.cap) 0 in
      Array.blit t.log.(0) 0 b 0 (2 * t.n);
      t.log <- [| b |]
    end
    else t.log <- Array.append t.log (log_blocks t.cap);
    t.cap <- 2 * t.cap
  end

(* Two live positions share a slot: double the ring until the live span
   [floor, hi] fits, and rebuild it from the log. *)
let widen t =
  let n = ref (2 * (t.rmask + 1)) in
  while !n <= t.hi - t.floor do
    n := 2 * !n
  done;
  t.ring <- ring_blocks !n;
  t.rmask <- !n - 1;
  while 1 lsl t.rbits < !n do
    t.rbits <- t.rbits + 1
  done;
  relink t

(* Bind (rule, prec, pos) to [v], a stop index or [failed], replacing any
   binding.  [pos] is at or above the latest {!forget_before} start. *)
let rec add t ~(rule : int) ~(prec : int) ~(pos : int) (v : int) : unit =
  if pos > t.hi then t.hi <- pos;
  let i = pos land t.rmask in
  let w = t.ring.(i lsr ring_bits).(slot_off i) in
  let p = owner t i w in
  if p <> pos && p >= t.floor then begin
    widen t;
    add t ~rule ~prec ~pos v
  end
  else begin
    let k = key ~rule ~prec ~pos
    and b = bit ~rule ~prec ~lap:(pos lsr t.rbits) in
    let e = if p = pos && w land b <> 0 then entry t.log k (head w) else -1 in
    if e >= 0 then begin
      let l = t.log.(e lsr log_bits) and o = entry_off e + 1 in
      l.(o) <- pack v (next_of l.(o))
    end
    else if t.n = t.cap then begin
      make_room t;
      link t t.n k v;
      t.n <- t.n + 1
    end
    else begin
      write t t.n k v b i w ~owned:(p = pos);
      t.n <- t.n + 1
    end
  end

(* An outermost speculation starts at [start]; starts never decrease.
   Every entry keyed below [start] is dead.  When that is every entry,
   the log empties; a ring or log that grew past 8 times its initial size
   is replaced by an initial-size one, so a long parse holds no more than
   its current speculation needs. *)
let forget_before t (start : int) : unit =
  t.floor <- start;
  if t.hi < start then begin
    t.n <- 0;
    t.hi <- -1;
    if t.rmask + 1 > 8 * ring0 then begin
      t.ring <- ring_blocks ring0;
      t.rbits <- ring0_bits;
      t.rmask <- ring0 - 1
    end;
    if t.cap > 8 * log0 then begin
      t.log <- log_blocks log0;
      t.cap <- log0
    end
  end
