(* The speculation memo (paper section 6.2), shared by {!Interp} and
   {!Generated}: rule results are memoized only while speculating, keyed by
   (rule, precedence, position), and mapped to the stop index of a
   successful invocation or to [failed].

   The table is an int -> int open-addressing table with linear probing.
   Its slots live in fixed 64-slot chunks of 128 words (key, value), so no
   block ever takes the large-allocation path and a growing table never
   copies one big array.  Most parses never speculate, so the backends
   make a table on their first speculative lookup, and most lookups miss
   (0-19% hit on the bench grammars' corpora): a probe is a multiply, a
   shift and a short scan within one chunk, and neither a lookup nor an
   update allocates.

   One lifetime rule bounds the table: the stream only rewinds to the
   mark of a running speculation, so once an outermost speculation starts
   at position q, no lookup below q can come again ({!forget_before}).
   The dead entries go at once when every entry is dead, and otherwise in
   place when the table would grow. *)

(* Position in bits 0..29, precedence bound in bits 30..44, rule id in
   bits 45..61.  The bounds are far beyond anything a real grammar
   produces (2^30 tokens, prec < 2^15, 2^17 rules); with the position in
   the low bits, eviction is a mask and a compare per entry.  Every key
   is non-negative. *)
let key ~(rule : int) ~(prec : int) ~(pos : int) : int =
  (((rule lsl 15) lor prec) lsl 30) lor pos

let pos_of_key (key : int) : int = key land 0x3FFFFFFF

(* [find]'s answers besides a stop index (which is >= 0). *)
let failed = -1
let absent = -2

let chunk_bits = 6 (* 64 slots per chunk *)
let chunk_slots = 1 lsl chunk_bits
let free = -1 (* the key of an unused slot *)

type t = {
  mutable chunks : int array array; (* see [offset] *)
  mutable mask : int; (* slots - 1; the slot count is a power of two *)
  mutable shift : int; (* 63 - log2 slots: [home] keeps the top bits *)
  mutable size : int;
  mutable hi : int; (* largest position keyed since the table was empty *)
  mutable lo : int; (* no entry is keyed below it *)
  mutable floor : int; (* entries keyed below it are dead *)
}

let new_chunks n = Array.init n (fun _ -> Array.make (2 * chunk_slots) free)

(* Slot [i]'s key is at [offset i] in chunk [i lsr chunk_bits], its value
   right after. *)
let offset i = (i land (chunk_slots - 1)) lsl 1

let create () : t =
  {
    chunks = new_chunks 1;
    mask = chunk_slots - 1;
    shift = 63 - chunk_bits;
    size = 0;
    hi = -1;
    lo = max_int;
    floor = 0;
  }

let length t = t.size

(* Fibonacci hashing: keys at one position differ only in their high
   bits, and consecutive positions only in their low ones; the multiply
   spreads both over the top bits of the product. *)
let home t key = (key * 0x278DDE6E5FD29F05) lsr t.shift

(* The slot holding [key], or else the free slot that ends its probe run.
   Load stays at most 7/8, so a free slot always exists. *)
let rec probe chunks mask key i =
  let k = chunks.(i lsr chunk_bits).(offset i) in
  if k = key || k = free then i else probe chunks mask key ((i + 1) land mask)

let slot t key = probe t.chunks t.mask key (home t key)

let find t key : int =
  let i = slot t key in
  let c = t.chunks.(i lsr chunk_bits) and o = offset i in
  if c.(o) = key then c.(o + 1) else absent

let set t i key v =
  let c = t.chunks.(i lsr chunk_bits) and o = offset i in
  c.(o) <- key;
  c.(o + 1) <- v

let grow t =
  let old = t.chunks in
  t.chunks <- new_chunks (2 * Array.length old);
  t.mask <- (2 * t.mask) + 1;
  t.shift <- t.shift - 1;
  Array.iter
    (fun c ->
      for s = 0 to chunk_slots - 1 do
        let k = c.(2 * s) in
        if k <> free then set t (slot t k) k c.((2 * s) + 1)
      done)
    old

(* Drop every entry keyed at a position before [frontier], in place.
   The scan starts just after a free slot, so no probe run wraps past its
   start: each run is met from its first slot.  An entry behind the
   frontier is cleared; an entry kept after a cleared slot of its run is
   taken out and put back at the first free slot from its home, which is
   at or before where it was, so every entry stays reachable from its
   home without crossing a free slot. *)
let evict_before t (frontier : int) : unit =
  if t.size > 0 then begin
    let start = ref 0 in
    while t.chunks.(!start lsr chunk_bits).(offset !start) <> free do
      incr start
    done;
    let holes = ref false in
    for n = 1 to t.mask + 1 do
      let i = (!start + n) land t.mask in
      let c = t.chunks.(i lsr chunk_bits) and o = offset i in
      let k = c.(o) in
      if k = free then holes := false
      else if pos_of_key k < frontier then begin
        c.(o) <- free;
        t.size <- t.size - 1;
        holes := true
      end
      else if !holes then begin
        let v = c.(o + 1) in
        c.(o) <- free;
        set t (slot t k) k v
      end
    done
  end

(* Bind [key] to [v], a stop index or [failed], replacing any binding.
   Past 7/8 load the dead entries go first, if there are any; the table
   grows only if that freed less than half its slots. *)
let add t key (v : int) : unit =
  let i = slot t key in
  let c = t.chunks.(i lsr chunk_bits) and o = offset i in
  if c.(o) <> key then begin
    c.(o) <- key;
    t.size <- t.size + 1;
    let pos = pos_of_key key in
    if pos > t.hi then t.hi <- pos;
    if pos < t.lo then t.lo <- pos
  end;
  c.(o + 1) <- v;
  if 8 * t.size > 7 * (t.mask + 1) then begin
    let before = t.size in
    if t.lo < t.floor then begin
      evict_before t t.floor;
      t.lo <- t.floor
    end;
    if 2 * (before - t.size) < t.mask + 1 then grow t
  end

(* An outermost speculation starts at [start]; starts never decrease.
   Every entry keyed below [start] is dead.  When that is every entry,
   the table empties at the cost of at most one chunk's fill: a table
   that grew is replaced by a one-chunk one.  Otherwise [start] becomes
   the floor that {!add} evicts below. *)
let forget_before t (start : int) : unit =
  t.floor <- start;
  if t.hi < start then begin
    if Array.length t.chunks > 1 then begin
      t.chunks <- new_chunks 1;
      t.mask <- chunk_slots - 1;
      t.shift <- 63 - chunk_bits
    end
    else if t.size > 0 then Array.fill t.chunks.(0) 0 (2 * chunk_slots) free;
    t.size <- 0;
    t.hi <- -1;
    t.lo <- max_int
  end
