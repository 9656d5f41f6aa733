(* Configurable lexer engine: the scanner substrate used by every benchmark
   grammar (ANTLR generates lexers from lexer grammars; our engine covers
   the same token shapes -- keywords, operators, identifiers, numbers,
   strings, characters, comments -- from a declarative configuration plus
   the literal tokens already present in the parser grammar's vocabulary).

   The scanner is incremental: it reads from a pull-based byte [reader]
   through a sliding window and produces tokens in chunks, so unbounded
   inputs lex in O(window) memory.  [tokenize] scans a whole string in
   place: its window is the string itself, already at end of input.

   Speed comes from three things.  The per-(vocabulary, config) [tables]
   -- byte classes, keyword table, operators bucketed by first byte,
   resolved token ids -- are built once and shared.  The token loop is
   top-level functions over the stream, so no closure is allocated per
   token.  Runs of identifier, digit and blank bytes are scanned by one
   class-mask loop over the resident window. *)

type config = {
  ident_token : string option; (* token type for identifiers, e.g. "ID" *)
  int_token : string option;
  float_token : string option;
  string_token : string option;
  string_quote : char; (* '"' for C-family, '\'' for SQL *)
  char_token : string option; (* single-quoted *)
  at_ident_token : string option;
    (* token type for '@'-prefixed identifiers (T-SQL variables) *)
  newline_token : string option;
    (* emit a token per newline run (VB-style line-oriented syntax) *)
  line_comments : string list; (* e.g. ["//"; "--"] *)
  block_comments : (string * string) list; (* e.g. [("/*", "*/")] *)
  case_insensitive_keywords : bool; (* SQL/VB style *)
  extra_ident_start : string; (* additional identifier start characters *)
  extra_ident_cont : string;
}

let default_config =
  {
    ident_token = Some "ID";
    int_token = Some "INT";
    float_token = None;
    string_token = None;
    char_token = None;
    string_quote = '"';
    at_ident_token = None;
    newline_token = None;
    line_comments = [ "//" ];
    block_comments = [ ("/*", "*/") ];
    case_insensitive_keywords = false;
    extra_ident_start = "_";
    extra_ident_cont = "_";
  }

type error = { msg : string; line : int; col : int }

let pp_error ppf e = Fmt.pf ppf "%d:%d: %s" e.line e.col e.msg

exception Lex_error of error

let () =
  Printexc.register_printer (function
    | Lex_error e -> Some (Fmt.str "Lexer_engine.Lex_error (%a)" pp_error e)
    | _ -> None)

(* Split the grammar's literal tokens into keywords (identifier-shaped) and
   operators (everything else), the latter sorted longest-first for
   maximal-munch matching. *)
let split_literals config (sym : Grammar.Sym.t) =
  let is_word s =
    s <> ""
    &&
    let c = s.[0] in
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let keywords = Hashtbl.create 64 in
  let ops = ref [] in
  List.iter
    (fun (text, id) ->
      if is_word text then
        let key =
          if config.case_insensitive_keywords then String.lowercase_ascii text
          else text
        in
        Hashtbl.replace keywords key id
      else ops := (text, id) :: !ops)
    (Grammar.Sym.literals sym);
  let ops =
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      !ops
  in
  (keywords, ops)

(* Every word with a token type of its own, in one open-addressing table
   that a scanned word is looked up in where it lies in the input buffer:
   the keywords, and the named token types a word can spell (an
   uppercase initial, e.g. [A] in [s : A B | C ;]).  A keyword of a
   case-insensitive config is stored lowercased and matches any case; a
   named type matches only its exact spelling, and one a keyword already
   matches is left out, so at most one entry matches a word.  [""] marks
   a free slot; load stays at most 1/2. *)
type words = {
  keys : string array;
  ids : int array;
  fold : bool array; (* compare ASCII-case-folded *)
  mask : int;
}

let[@inline] fold_byte c = if c >= 65 && c <= 90 then c + 32 else c

(* Hash of the [len] bytes at [off] in [buf], case-folded if [fold]: the
   same function hashes a stored key and a scanned word. *)
let word_hash (buf : Bytes.t) off len fold =
  let h = ref len in
  for i = off to off + len - 1 do
    let c = Char.code (Bytes.unsafe_get buf i) in
    h := (!h * 31) + if fold then fold_byte c else c
  done;
  !h lxor (!h lsr 17)

let build_words config sym keywords : words =
  let ci = config.case_insensitive_keywords in
  let named =
    List.filter_map
      (fun id ->
        let name = Grammar.Sym.term_name sym id in
        let key = if ci then String.lowercase_ascii name else name in
        if
          name <> ""
          && name.[0] >= 'A'
          && name.[0] <= 'Z'
          && (not (Grammar.Sym.is_literal sym id))
          && not (Hashtbl.mem keywords key)
        then Some (name, id, false)
        else None)
      (List.init (Grammar.Sym.num_terms sym) Fun.id)
  in
  let entries =
    Hashtbl.fold (fun k id acc -> (k, id, ci) :: acc) keywords [] @ named
  in
  let size = ref 16 in
  while !size < 2 * List.length entries do
    size := 2 * !size
  done;
  let w =
    {
      keys = Array.make !size "";
      ids = Array.make !size (-1);
      fold = Array.make !size false;
      mask = !size - 1;
    }
  in
  List.iter
    (fun (k, id, fold) ->
      let h = word_hash (Bytes.unsafe_of_string k) 0 (String.length k) ci in
      let i = ref (h land w.mask) in
      while w.keys.(!i) <> "" do
        i := (!i + 1) land w.mask
      done;
      w.keys.(!i) <- k;
      w.ids.(!i) <- id;
      w.fold.(!i) <- fold)
    entries;
  w

(* ------------------------------------------------------------------ *)
(* Scanner tables: everything the token loop needs that depends only on
   the vocabulary and the config.  Read-only once built, so domains may
   share them. *)

(* Byte-class bits. *)
let c_ident_start = 1
let c_ident_cont = 2
let c_digit = 4
let c_blank = 8 (* ' ' '\t' '\r' *)
let c_newline = 16 (* '\n' *)
let c_comment = 32 (* first byte of a line- or block-comment opener *)

(* A configured token class, resolved against the vocabulary once. *)
type term =
  | Absent (* the config names no token for this class *)
  | Missing of string (* it names one the vocabulary lacks *)
  | Term of int

(* Without flambda, [<>] on a variant is a polymorphic-compare call. *)
let[@inline] present = function Absent -> false | Missing _ | Term _ -> true

type op = { lit : string; id : int; lit_nl : bool (* contains '\n' *) }

type tables = {
  sym : Grammar.Sym.t;
  config : config;
  classes : string; (* 256 class bytes, indexed by byte *)
  words : words; (* keywords and named token types *)
  ops : op array array; (* by first byte, longest first *)
  ident : term;
  int_ : term;
  float_ : term;
  string_ : term;
  char_ : term;
  at_ident : term;
  newline : term;
}

let build_tables config sym =
  let keywords, ops = split_literals config sym in
  let is_ident_start c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || String.contains config.extra_ident_start c
  in
  let openers =
    config.line_comments @ List.map fst config.block_comments
  in
  let opens_comment c =
    List.exists (fun o -> o = "" || o.[0] = c) openers
  in
  let classes =
    Bytes.init 256 (fun i ->
        let c = Char.chr i in
        let bit cond b = if cond then b else 0 in
        Char.chr
          (bit (is_ident_start c) c_ident_start
          lor bit
                (is_ident_start c
                || (c >= '0' && c <= '9')
                || String.contains config.extra_ident_cont c)
                c_ident_cont
          lor bit (c >= '0' && c <= '9') c_digit
          lor bit (c = ' ' || c = '\t' || c = '\r') c_blank
          lor bit (c = '\n') c_newline
          lor bit (opens_comment c) c_comment))
  in
  (* The empty literal matches anywhere, so it ends every bucket. *)
  let buckets = Array.make 256 [] in
  List.iter
    (fun (lit, id) ->
      let op = { lit; id; lit_nl = String.contains lit '\n' } in
      if lit = "" then Array.iteri (fun i b -> buckets.(i) <- op :: b) buckets
      else
        let i = Char.code lit.[0] in
        buckets.(i) <- op :: buckets.(i))
    ops;
  let resolve = function
    | None -> Absent
    | Some name -> (
        match Grammar.Sym.find_term sym name with
        | Some id -> Term id
        | None -> Missing name)
  in
  {
    sym;
    config;
    classes = Bytes.unsafe_to_string classes;
    words = build_words config sym keywords;
    ops = Array.map (fun b -> Array.of_list (List.rev b)) buckets;
    ident = resolve config.ident_token;
    int_ = resolve config.int_token;
    float_ = resolve config.float_token;
    string_ = resolve config.string_token;
    char_ = resolve config.char_token;
    at_ident = resolve config.at_ident_token;
    newline = resolve config.newline_token;
  }

(* Tables of the most recently built frozen vocabularies, newest first.  A
   frozen vocabulary never changes, so its tables never go stale; an
   unfrozen one may still gain literals and gets fresh tables per
   stream.  The list is immutable and swapped atomically, so concurrent
   lookups need no lock; two domains missing at once may both build, and
   the loser adopts the winner's entry. *)
let cache_bound = 16
let cache : tables list Atomic.t = Atomic.make []

let rec cached sym config = function
  | [] -> None
  | t :: rest ->
      if t.sym == sym && (t.config == config || t.config = config) then
        Some t
      else cached sym config rest

let rec insert_tables (t : tables) =
  let old = Atomic.get cache in
  match cached t.sym t.config old with
  | Some winner -> winner
  | None ->
      let keep = List.filteri (fun i _ -> i < cache_bound - 1) old in
      if Atomic.compare_and_set cache old (t :: keep) then t
      else insert_tables t

let tables_for config sym =
  if not (Grammar.Sym.is_frozen sym) then build_tables config sym
  else
    match cached sym config (Atomic.get cache) with
    | Some t -> t
    | None -> insert_tables (build_tables config sym)

(* ------------------------------------------------------------------ *)
(* Pull-based byte sources and the sliding character window. *)

type reader = Bytes.t -> int -> int -> int

let reader_of_string s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let reader_of_channel ic = fun buf off len -> input ic buf off len

(* The window retains bytes from [keep] (the current token's start) on;
   everything before it is dropped at the next refill.  Absolute byte
   offsets throughout.  The buffer starts small and doubles, up to [cap],
   each time a read fills it, so a short input never holds more than it
   needs; past [cap] it grows only when a single token outlives a full
   window. *)
type cursor = {
  read : reader;
  mutable buf : Bytes.t;
  mutable len : int; (* filled bytes *)
  mutable off : int; (* absolute offset of buf.[0] *)
  mutable keep : int; (* compaction retains bytes at or above this offset *)
  mutable eof : bool;
  cap : int; (* size a read-filled buffer doubles up to *)
}

let refill (cur : cursor) : unit =
  if not cur.eof then begin
    let size = Bytes.length cur.buf in
    let drop = cur.keep - cur.off in
    let kept = cur.len - drop in
    let target =
      if kept = size then 2 * size (* one token fills the window *)
      else if cur.len = size then min cur.cap (2 * size) (* a read filled it *)
      else size
    in
    let buf = if target > size then Bytes.create target else cur.buf in
    if drop > 0 || buf != cur.buf then Bytes.blit cur.buf drop buf 0 kept;
    cur.buf <- buf;
    cur.off <- cur.keep;
    cur.len <- kept;
    let n = cur.read buf kept (Bytes.length buf - kept) in
    if n = 0 then cur.eof <- true else cur.len <- kept + n
  end

(* Byte (as a character code) at absolute offset [pos]; -1 past the end. *)
let rec byte_at_slow (cur : cursor) (pos : int) : int =
  if pos < cur.off + cur.len then
    Char.code (Bytes.unsafe_get cur.buf (pos - cur.off))
  else if cur.eof then -1
  else begin
    refill cur;
    byte_at_slow cur pos
  end

let[@inline] byte_at (cur : cursor) (pos : int) : int =
  if pos < cur.off + cur.len then
    Char.code (Bytes.unsafe_get cur.buf (pos - cur.off))
  else byte_at_slow cur pos

(* Does the input continue with [prefix] at [pos]?  False near EOF when
   fewer than [length prefix] bytes remain, as with the string scanner's
   bounds check. *)
let rec matches_at (cur : cursor) (pos : int) (prefix : string) : bool =
  let pl = String.length prefix in
  if pos + pl <= cur.off + cur.len then begin
    let i = ref 0 in
    let base = pos - cur.off in
    while !i < pl && Bytes.unsafe_get cur.buf (base + !i) = prefix.[!i] do
      incr i
    done;
    !i = pl
  end
  else if cur.eof then false
  else begin
    refill cur;
    matches_at cur pos prefix
  end

(* Text of the byte range [start, stop): only ever the current token, so
   [start >= keep] and the range is resident. *)
let extract (cur : cursor) (start : int) (stop : int) : string =
  Bytes.sub_string cur.buf (start - cur.off) (stop - start)

(* ------------------------------------------------------------------ *)
(* The incremental scanner: one [stream] per input, one token per
   [scan_one] step, state (position, line/col, token count) carried across
   chunks. *)

type state = Running | Failed of error | Done

type stream = {
  t : tables;
  tracer : Obs.Trace.t;
  cur : cursor;
  mutable pos : int; (* absolute byte offset of the scan point *)
  mutable line : int;
  mutable col : int;
  mutable count : int; (* tokens produced so far *)
  mutable state : state;
}

let make tracer config sym cur =
  {
    t = tables_for config sym;
    tracer;
    cur;
    pos = 0;
    line = 1;
    col = 1;
    count = 0;
    state = Running;
  }

(* 1 KiB fits the minor heap's largest block (256 words), so a short
   input's buffer never goes straight to the major heap. *)
let initial_buf = 1024

let stream ?(tracer = Obs.Trace.null) ?(buf_chars = 4096) (config : config)
    (sym : Grammar.Sym.t) (read : reader) : stream =
  let cap = max 64 buf_chars in
  make tracer config sym
    {
      read;
      buf = Bytes.create (min initial_buf cap);
      len = 0;
      off = 0;
      keep = 0;
      eof = false;
      cap;
    }

(* Whole-string scanning makes no copy: the window is [src] itself, filled
   and already at end of input.  [refill] does nothing once [eof] is set,
   so nothing ever writes to the buffer and [src] stays immutable. *)
let of_string tracer config sym (src : string) : stream =
  make tracer config sym
    {
      read = (fun _ _ _ -> 0);
      buf = Bytes.unsafe_of_string src;
      len = String.length src;
      off = 0;
      keep = 0;
      eof = true;
      cap = String.length src;
    }

let produced s = s.count

let[@inline] class_of (t : tables) (b : int) : int =
  Char.code (String.unsafe_get t.classes b)

(* Step over the resident byte [b] at the scan point. *)
let[@inline] step (s : stream) (b : int) : unit =
  if b = Char.code '\n' then begin
    s.line <- s.line + 1;
    s.col <- 1
  end
  else s.col <- s.col + 1;
  s.pos <- s.pos + 1

(* Step over [text], which the input holds at the scan point. *)
let step_over (s : stream) (text : string) (has_nl : bool) : unit =
  if has_nl then String.iter (fun c -> step s (Char.code c)) text
  else begin
    s.col <- s.col + String.length text;
    s.pos <- s.pos + String.length text
  end

(* Scan the longest run of bytes whose class meets [mask], refilling only
   at the window edge.  With no newline in the class, [col] moves by the
   run length.  Without [retain] (whitespace) the run is dropped from the
   window at each refill. *)
let rec skip_class ?(retain = true) (s : stream) (mask : int) : unit =
  let cur = s.cur and t = s.t in
  let stop = cur.off + cur.len in
  if class_of t (Char.code '\n') land mask = 0 then begin
    let p = ref s.pos in
    while
      !p < stop
      && class_of t (Char.code (Bytes.unsafe_get cur.buf (!p - cur.off)))
         land mask
         <> 0
    do
      incr p
    done;
    s.col <- s.col + (!p - s.pos);
    s.pos <- !p
  end
  else begin
    let more = ref true in
    while !more && s.pos < stop do
      let b = Char.code (Bytes.unsafe_get cur.buf (s.pos - cur.off)) in
      if class_of t b land mask <> 0 then step s b else more := false
    done
  end;
  if s.pos = stop && not cur.eof then begin
    if not retain then cur.keep <- s.pos;
    refill cur;
    skip_class ~retain s mask
  end

(* Skip to the end of the line, leaving the newline. *)
let rec skip_line (s : stream) : unit =
  let cur = s.cur in
  let stop = cur.off + cur.len in
  let p = ref s.pos in
  while !p < stop && Bytes.unsafe_get cur.buf (!p - cur.off) <> '\n' do
    incr p
  done;
  s.col <- s.col + (!p - s.pos);
  s.pos <- !p;
  if !p = stop && not cur.eof then begin
    cur.keep <- s.pos;
    refill cur;
    skip_line s
  end

(* Skip a block comment's body and closer [cl]; false at end of input
   before the closer.  The body is not retained. *)
let rec skip_block (s : stream) (cl : string) : bool =
  let cur = s.cur in
  cur.keep <- s.pos;
  if cl = "" then byte_at cur s.pos >= 0
  else begin
    let first = cl.[0] and stop = cur.off + cur.len in
    while
      s.pos < stop && Bytes.unsafe_get cur.buf (s.pos - cur.off) <> first
    do
      step s (Char.code (Bytes.unsafe_get cur.buf (s.pos - cur.off)))
    done;
    cur.keep <- s.pos;
    if s.pos < stop then
      if matches_at cur s.pos cl then begin
        step_over s cl (String.contains cl '\n');
        true
      end
      else begin
        step s (Char.code first);
        skip_block s cl
      end
    else if cur.eof then false
    else begin
      refill cur;
      skip_block s cl
    end
  end

(* Scan a quoted body up to and including the closing [quote]; a backslash
   escapes the byte after it.  True when closed.  The token start stays
   retained, since the text is the raw bytes between the quotes. *)
let rec scan_quoted (s : stream) (quote : int) : bool =
  let cur = s.cur in
  let stop = cur.off + cur.len in
  let closed = ref false and more = ref true in
  while !more && s.pos < stop do
    let b = Char.code (Bytes.unsafe_get cur.buf (s.pos - cur.off)) in
    if b = Char.code '\\' then
      if s.pos + 1 < stop then begin
        step s b;
        step s (Char.code (Bytes.unsafe_get cur.buf (s.pos - cur.off)))
      end
      else more := false
    else if b = quote then begin
      step s b;
      closed := true;
      more := false
    end
    else step s b
  done;
  if !closed then true
  else if s.pos < stop then begin
    (* a backslash is the last resident byte: at end of input it escapes
       nothing, so it is a body byte -- or the closer, if it is [quote] *)
    if cur.eof then begin
      step s (Char.code '\\');
      quote = Char.code '\\'
    end
    else begin
      refill cur;
      scan_quoted s quote
    end
  end
  else if cur.eof then false
  else begin
    refill cur;
    scan_quoted s quote
  end

let mode_enter (s : stream) mode =
  if Obs.Trace.on s.tracer then
    Obs.Trace.emit s.tracer
      (Obs.Trace.Lexer_mode_enter { mode; line = s.line; col = s.col })

let mode_exit (s : stream) mode =
  if Obs.Trace.on s.tracer then
    Obs.Trace.emit s.tracer
      (Obs.Trace.Lexer_mode_exit { mode; line = s.line; col = s.col })

(* [scan_one]'s "no token" result: end of input or failure (check
   [s.state]).  Compared physically, so the loop allocates no option. *)
let no_token = Token.make ~index:(-1) Grammar.Sym.eof ""

let emit (s : stream) ttype text l0 c0 : Token.t =
  let tok = Token.{ ttype; text; line = l0; col = c0; index = s.count } in
  s.count <- s.count + 1;
  tok

let fail (s : stream) msg : Token.t =
  s.state <- Failed { msg; line = s.line; col = s.col };
  no_token

let rec first_prefix cur pos = function
  | [] -> None
  | ((o, _) as pair) :: rest ->
      if matches_at cur pos o then Some pair else first_prefix cur pos rest

let rec any_prefix cur pos = function
  | [] -> false
  | o :: rest -> matches_at cur pos o || any_prefix cur pos rest

(* Skip the comment opening at the scan point, if any: true when one was
   skipped, or when an unterminated block comment failed the stream. *)
let skip_comment (s : stream) : bool =
  let config = s.t.config in
  if any_prefix s.cur s.pos config.line_comments then begin
    skip_line s;
    true
  end
  else
    match first_prefix s.cur s.pos config.block_comments with
    | None -> false
    | Some (o, cl) ->
        mode_enter s "block_comment";
        step_over s o (String.contains o '\n');
        let closed = skip_block s cl in
        mode_exit s "block_comment";
        if not closed then ignore (fail s "unterminated block comment");
        true

(* The [words] slot of the [len] bytes at [off] in [buf], or -1. *)
let find_word (t : tables) (buf : Bytes.t) (off : int) (len : int) : int =
  let w = t.words and ci = t.config.case_insensitive_keywords in
  (* a word is never empty, so a key of its length is not a free slot *)
  let rec probe i =
    let k = w.keys.(i) in
    if
      String.length k = len
      &&
      let fold = w.fold.(i) and j = ref 0 in
      while
        !j < len
        &&
        let c = Char.code (Bytes.unsafe_get buf (off + !j)) in
        (if fold then fold_byte c else c) = Char.code (String.unsafe_get k !j)
      do
        incr j
      done;
      !j = len
    then i
    else if String.length k = 0 then -1
    else probe ((i + 1) land w.mask)
  in
  probe (word_hash buf off len ci land w.mask)

(* A word's token type: a keyword; else, for an uppercase initial, a named
   token type spelled the same (convenient for abstract vocabularies such
   as [s : A B | C ;] in tests and examples); else the identifier type.
   One lookup, in place: the word's text is copied out only when it is an
   identifier or a keyword of another case, and an exact match shares its
   entry's string. *)
let scan_word (s : stream) : Token.t =
  let l0 = s.line and c0 = s.col and start = s.pos in
  skip_class s c_ident_cont;
  let t = s.t and cur = s.cur in
  let e = find_word t cur.buf (start - cur.off) (s.pos - start) in
  if e >= 0 then
    let w =
      if t.words.fold.(e) then extract cur start s.pos else t.words.keys.(e)
    in
    emit s t.words.ids.(e) w l0 c0
  else
    let w = extract cur start s.pos in
    match t.ident with
    | Term id -> emit s id w l0 c0
    | Absent | Missing _ -> fail s (Printf.sprintf "unknown word %S" w)

let scan_at_ident (s : stream) : Token.t =
  let l0 = s.line and c0 = s.col and start = s.pos in
  step s (Char.code '@');
  skip_class s c_ident_cont;
  let w = extract s.cur start s.pos in
  match s.t.at_ident with
  | Term id -> emit s id w l0 c0
  | _ -> fail s "grammar has no @-identifier token"

let scan_number (s : stream) : Token.t =
  let t = s.t in
  let l0 = s.line and c0 = s.col and start = s.pos in
  skip_class s c_digit;
  let is_float =
    present t.float_
    && byte_at s.cur s.pos = Char.code '.'
    &&
    let b1 = byte_at s.cur (s.pos + 1) in
    b1 >= 0 && class_of t b1 land c_digit <> 0
  in
  if is_float then begin
    step s (Char.code '.');
    skip_class s c_digit
  end;
  let w = extract s.cur start s.pos in
  match if is_float then t.float_ else t.int_ with
  | Term id -> emit s id w l0 c0
  | Missing name -> fail s (Printf.sprintf "grammar has no %s token" name)
  | Absent -> fail s "numeric literal not supported by this grammar"

let scan_literal (s : stream) (quote : int) mode (term : term) what : Token.t
    =
  let l0 = s.line and c0 = s.col and start = s.pos in
  mode_enter s mode;
  step s quote;
  let closed = scan_quoted s quote in
  mode_exit s mode;
  if not closed then fail s ("unterminated " ^ what ^ " literal")
  else
    match term with
    | Term id -> emit s id (extract s.cur (start + 1) (s.pos - 1)) l0 c0
    | _ -> fail s ("grammar has no " ^ mode ^ " token")

(* Operators and punctuation: maximal munch over the literals that start
   with [b]. *)
let rec scan_operator (s : stream) (b : int) (i : int) : Token.t =
  let bucket = Array.unsafe_get s.t.ops b in
  if i = Array.length bucket then
    fail s (Printf.sprintf "unexpected character %C" (Char.chr b))
  else
    let op = Array.unsafe_get bucket i in
    if matches_at s.cur s.pos op.lit then begin
      let l0 = s.line and c0 = s.col in
      step_over s op.lit op.lit_nl;
      emit s op.id op.lit l0 c0
    end
    else scan_operator s b (i + 1)

(* Collapse a run of newlines (and surrounding blank space) into one
   token. *)
let scan_newlines (s : stream) : Token.t =
  let l0 = s.line and c0 = s.col in
  skip_class ~retain:false s (c_blank lor c_newline);
  match s.t.newline with
  | Term id -> emit s id "\n" l0 c0
  | _ -> fail s "grammar has no newline token"

(* Scan the next token, or [no_token] at end of input or failure (check
   [s.state]).  Whitespace and comments are skipped by tail-recursing, so
   a megabyte of blanks costs no stack.  The branch order is the
   contract: it decides [--] against [-], ['] comments against character
   literals, and [@] against identifier start. *)
let rec scan_one (s : stream) : Token.t =
  match s.state with
  | Failed _ | Done -> no_token
  | Running ->
      (* nothing before the current token is ever re-examined *)
      s.cur.keep <- s.pos;
      let b = byte_at s.cur s.pos in
      if b < 0 then begin
        s.state <- Done;
        no_token
      end
      else
        let t = s.t in
        let cls = class_of t b in
        if b = Char.code '\n' && present t.newline then scan_newlines s
        else if cls land (c_blank lor c_newline) <> 0 then begin
          skip_class ~retain:false s
            (if present t.newline then c_blank else c_blank lor c_newline);
          scan_one s
        end
        else if cls land c_comment <> 0 && skip_comment s then scan_one s
        else if b = Char.code '@' && present t.at_ident then scan_at_ident s
        else if cls land c_ident_start <> 0 then scan_word s
        else if cls land c_digit <> 0 then scan_number s
        else if b = Char.code t.config.string_quote && present t.string_ then
          scan_literal s b "string" t.string_ "string"
        else if b = Char.code '\'' && present t.char_ then
          scan_literal s b "char" t.char_ "character"
        else scan_operator s b 0

(* ------------------------------------------------------------------ *)
(* Chunked driving. *)

(* Scan up to [max_tokens] tokens into an array first sized [capacity]
   and doubled as needed.  Tokens scanned before a failure are
   withheld. *)
let collect (s : stream) ~max_tokens ~capacity : (Token.t array, error) result
    =
  let arr = ref (Array.make (max 1 capacity) no_token) in
  let n = ref 0 in
  let more = ref true in
  while !more && !n < max_tokens do
    let tok = scan_one s in
    if tok == no_token then more := false
    else begin
      if !n = Array.length !arr then begin
        let bigger = Array.make (2 * !n) no_token in
        Array.blit !arr 0 bigger 0 !n;
        arr := bigger
      end;
      Array.unsafe_set !arr !n tok;
      incr n
    end
  done;
  match s.state with
  | Failed e -> Error e
  | Running | Done ->
      Ok (if !n = Array.length !arr then !arr else Array.sub !arr 0 !n)

let next_chunk ?(max_tokens = 256) (s : stream) :
    (Token.t array, error) result =
  match s.state with
  | Failed e -> Error e
  | Done -> Ok [||]
  | Running -> collect s ~max_tokens ~capacity:(min max_tokens 256)

(* A {!Token_stream.of_pull}-compatible chunk source; lex failures surface
   as {!Lex_error} at the lookahead call that pulled them. *)
let pull ?chunk_tokens (s : stream) () : Token.t array =
  match next_chunk ?max_tokens:chunk_tokens s with
  | Ok toks -> toks
  | Error e -> raise (Lex_error e)

(* Scan the rest of the input without retaining tokens: the count of
   remaining tokens, or the first lex error.  Streaming drivers use this
   after an early parse verdict so their reported verdict and token total
   match the materialized path, which always lexes everything first. *)
let drain (s : stream) : (int, error) result =
  let start = s.count in
  while scan_one s != no_token do
    ()
  done;
  match s.state with
  | Failed e -> Error e
  | Running | Done -> Ok (s.count - start)

(* A token is at least one byte and usually more than two, so half the
   input length rarely needs a doubling. *)
let tokenize ?(tracer = Obs.Trace.null) (config : config) (sym : Grammar.Sym.t)
    (src : string) : (Token.t array, error) result =
  collect
    (of_string tracer config sym src)
    ~max_tokens:max_int
    ~capacity:((String.length src / 2) + 16)

let tokenize_exn ?tracer config sym src =
  match tokenize ?tracer config sym src with
  | Ok toks -> toks
  | Error e -> failwith (Fmt.str "lex error: %a" pp_error e)
