(* Structured prediction tracing.

   The paper's whole evaluation (section 6, Tables 1-4) is built on seeing
   *inside* prediction: how deep each decision looked, when it fell back to
   speculation, which DFA edges it walked.  This module is the event
   substrate: every engine (interpreter, lexer, the compilation cache, the
   packrat baseline) emits typed events through a
   [t], and pluggable sinks turn them into test fixtures (ring buffer),
   JSON-lines logs, or Chrome trace-event timelines loadable in Perfetto.

   Overhead policy: a disabled tracer must cost one load and one branch per
   *site*, never an allocation.  Event payloads are records, so call sites
   MUST guard construction:

     if Trace.on tr then Trace.emit tr (Decision_enter { ... })

   [emit] re-checks the flag, so a race with [set_on] can at worst drop an
   event, never deliver to a disabled sink.  The [null] tracer is shared
   and permanently off; never flip its flag.

   Serializer discipline: [label], [phase] and [args] below must stay
   exhaustive matches with NO wildcard case, so adding an event variant
   without its serialization is a compile error.  CI greps this whole file
   for wildcard arms to keep it that way, so no match here may use one. *)

type event =
  | Decision_enter of { decision : int; rule : string; pos : int }
      (* a prediction started at token index [pos] *)
  | Decision_exit of { decision : int; alt : int; k : int; pos : int }
      (* prediction chose [alt] after [k] tokens of DFA lookahead; [alt = 0]
         means the decision failed (no viable alternative) *)
  | Dfa_edge of { decision : int; state : int; term : int; target : int }
      (* the lookahead DFA walked one materialized transition *)
  | Lazy_sprout of { decision : int; state : int; term : int; target : int }
      (* no longer emitted (lazy DFAs are gone); e2ebench matches it *)
  | Dfa_rebuild of { decision : int }
      (* no longer emitted (lazy DFAs are gone); e2ebench matches it *)
  | Cache_load of { key : string; hit : bool }
      (* persistent compilation cache probe *)
  | Synpred_enter of { rule : string; pos : int }
      (* speculation: a syntactic predicate began evaluating *)
  | Synpred_exit of { rule : string; ok : bool; reach : int; pos : int }
      (* speculation ended; [reach] tokens examined past the start *)
  | Backtrack of { decision : int; depth : int }
      (* a decision resorted to speculation [depth] tokens in *)
  | Memo_hit of { rule : string; pos : int }
  | Memo_miss of { rule : string; pos : int }
      (* speculation memoization (interpreter) or packrat memo table *)
  | Error_sync of { rule : string; skipped : int; pos : int }
      (* panic-mode recovery consumed [skipped] tokens to resynchronize *)
  | Lexer_mode_enter of { mode : string; line : int; col : int }
  | Lexer_mode_exit of { mode : string; line : int; col : int }
      (* the lexer entered/left a sub-scanner (block comment, string, ...) *)
  | Serve_request of {
      req_id : string; (* client-supplied or daemon-generated correlation id *)
      op : string;
      grammar : string; (* "" when the op has no grammar *)
      backend : string; (* "interp" | "generated" | "" *)
      ok : bool;
      tokens : int;
      wall_us : int;
      queue_us : int; (* time spent waiting for a pool worker *)
    }
      (* the serve daemon answered one request *)

(* Chrome trace-event phase of each variant: [`B]egin/[`E]nd bracket a span,
   [`I]nstant stands alone. *)
type span_phase = [ `B | `E | `I ]

let phase : event -> span_phase = function
  | Decision_enter _ -> `B
  | Decision_exit _ -> `E
  | Dfa_edge _ -> `I
  | Lazy_sprout _ -> `I
  | Dfa_rebuild _ -> `I
  | Cache_load _ -> `I
  | Synpred_enter _ -> `B
  | Synpred_exit _ -> `E
  | Backtrack _ -> `I
  | Memo_hit _ -> `I
  | Memo_miss _ -> `I
  | Error_sync _ -> `I
  | Lexer_mode_enter _ -> `B
  | Lexer_mode_exit _ -> `E
  | Serve_request _ -> `I

(* Machine-readable event tag (JSONL [ev] field). *)
let label : event -> string = function
  | Decision_enter _ -> "decision_enter"
  | Decision_exit _ -> "decision_exit"
  | Dfa_edge _ -> "dfa_edge"
  | Lazy_sprout _ -> "lazy_sprout"
  | Dfa_rebuild _ -> "dfa_rebuild"
  | Cache_load _ -> "cache_load"
  | Synpred_enter _ -> "synpred_enter"
  | Synpred_exit _ -> "synpred_exit"
  | Backtrack _ -> "backtrack"
  | Memo_hit _ -> "memo_hit"
  | Memo_miss _ -> "memo_miss"
  | Error_sync _ -> "error_sync"
  | Lexer_mode_enter _ -> "lexer_mode_enter"
  | Lexer_mode_exit _ -> "lexer_mode_exit"
  | Serve_request _ -> "serve_request"

(* Span name shown on a Chrome/Perfetto track: begin and end of the same
   logical span must agree, so exits reuse the enter name. *)
let span_name : event -> string = function
  | Decision_enter { decision; _ } | Decision_exit { decision; _ } ->
      Printf.sprintf "decision %d" decision
  | Synpred_enter { rule; _ } | Synpred_exit { rule; _ } ->
      Printf.sprintf "synpred %s" rule
  | Lexer_mode_enter { mode; _ } | Lexer_mode_exit { mode; _ } ->
      Printf.sprintf "lex %s" mode
  | Dfa_edge _ -> "dfa edge"
  | Lazy_sprout _ -> "lazy sprout"
  | Dfa_rebuild _ -> "dfa rebuild"
  | Cache_load _ -> "cache load"
  | Backtrack _ -> "backtrack"
  | Memo_hit _ -> "memo hit"
  | Memo_miss _ -> "memo miss"
  | Error_sync _ -> "error sync"
  | Serve_request { op; _ } -> Printf.sprintf "serve %s" op

let args : event -> (string * Json.t) list = function
  | Decision_enter { decision; rule; pos } ->
      [
        ("decision", Json.int decision);
        ("rule", Json.str rule);
        ("pos", Json.int pos);
      ]
  | Decision_exit { decision; alt; k; pos } ->
      [
        ("decision", Json.int decision);
        ("alt", Json.int alt);
        ("k", Json.int k);
        ("pos", Json.int pos);
      ]
  | Dfa_edge { decision; state; term; target } ->
      [
        ("decision", Json.int decision);
        ("state", Json.int state);
        ("term", Json.int term);
        ("target", Json.int target);
      ]
  | Lazy_sprout { decision; state; term; target } ->
      [
        ("decision", Json.int decision);
        ("state", Json.int state);
        ("term", Json.int term);
        ("target", Json.int target);
      ]
  | Dfa_rebuild { decision } -> [ ("decision", Json.int decision) ]
  | Cache_load { key; hit } ->
      [ ("key", Json.str key); ("hit", Json.bool hit) ]
  | Synpred_enter { rule; pos } ->
      [ ("rule", Json.str rule); ("pos", Json.int pos) ]
  | Synpred_exit { rule; ok; reach; pos } ->
      [
        ("rule", Json.str rule);
        ("ok", Json.bool ok);
        ("reach", Json.int reach);
        ("pos", Json.int pos);
      ]
  | Backtrack { decision; depth } ->
      [ ("decision", Json.int decision); ("depth", Json.int depth) ]
  | Memo_hit { rule; pos } ->
      [ ("rule", Json.str rule); ("pos", Json.int pos) ]
  | Memo_miss { rule; pos } ->
      [ ("rule", Json.str rule); ("pos", Json.int pos) ]
  | Error_sync { rule; skipped; pos } ->
      [
        ("rule", Json.str rule);
        ("skipped", Json.int skipped);
        ("pos", Json.int pos);
      ]
  | Lexer_mode_enter { mode; line; col } ->
      [
        ("mode", Json.str mode);
        ("line", Json.int line);
        ("col", Json.int col);
      ]
  | Lexer_mode_exit { mode; line; col } ->
      [
        ("mode", Json.str mode);
        ("line", Json.int line);
        ("col", Json.int col);
      ]
  | Serve_request { req_id; op; grammar; backend; ok; tokens; wall_us; queue_us }
    ->
      [
        ("req_id", Json.str req_id);
        ("op", Json.str op);
        ("grammar", Json.str grammar);
        ("backend", Json.str backend);
        ("ok", Json.bool ok);
        ("tokens", Json.int tokens);
        ("wall_us", Json.int wall_us);
        ("queue_us", Json.int queue_us);
      ]

(* ------------------------------------------------------------------ *)
(* Monotonic clock.

   [Unix.gettimeofday] is wall-clock: NTP slews and steps can make it jump
   backwards, which breaks span nesting in Chrome traces and makes
   latency-by-subtraction occasionally negative.  The stdlib has no
   monotonic clock we can use on every supported compiler without a new
   dependency, so we emulate one: timestamps are seconds since a
   process-start origin, clamped to be non-decreasing across all callers
   with an atomic max.  A backwards wall-clock step therefore freezes the
   clock until real time catches back up instead of going negative; a
   forward step inflates one interval.  Both are strictly better for
   telemetry than a negative duration.

   This is the default tracer clock and the Chrome sink's time base; the
   serve layer also uses it directly for queue/parse/total latency. *)

let mono_origin = Unix.gettimeofday ()
let mono_last = Atomic.make 0.0

let monotonic_now () : float =
  let raw = Unix.gettimeofday () -. mono_origin in
  let rec clamp () =
    let prev = Atomic.get mono_last in
    if raw <= prev then prev
    else if Atomic.compare_and_set mono_last prev raw then raw
    else clamp ()
  in
  clamp ()

(* ------------------------------------------------------------------ *)
(* Tracer *)

type t = {
  mutable enabled : bool;
  sink : float -> event -> unit; (* receives (timestamp seconds, event) *)
  clock : unit -> float;
}

let on t = t.enabled
let set_on t b = t.enabled <- b

let emit t ev = if t.enabled then t.sink (t.clock ()) ev

let make ?(clock = monotonic_now) (sink : float -> event -> unit) : t =
  { enabled = true; sink; clock }

(* The shared disabled tracer: default for every engine.  Its flag is never
   flipped, so a site guarded by [on] costs a load and a branch. *)
let null : t = { enabled = false; sink = (fun _ _ -> ()); clock = (fun () -> 0.0) }

(* ------------------------------------------------------------------ *)
(* Ring-buffer sink: bounded in-memory capture for tests and diagnostics. *)

module Ring = struct
  type entry = { ts : float; ev : event }

  type buf = {
    data : entry array;
    mutable next : int; (* write cursor *)
    mutable total : int; (* events ever written (drops = total - kept) *)
  }

  let sentinel =
    { ts = 0.0; ev = Dfa_rebuild { decision = -1 } (* never exposed *) }

  let create (capacity : int) : buf =
    { data = Array.make (max 1 capacity) sentinel; next = 0; total = 0 }

  let push (b : buf) (ts : float) (ev : event) : unit =
    b.data.(b.next) <- { ts; ev };
    b.next <- (b.next + 1) mod Array.length b.data;
    b.total <- b.total + 1

  let total (b : buf) = b.total
  let capacity (b : buf) = Array.length b.data

  (* Retained entries, oldest first. *)
  let to_list (b : buf) : entry list =
    let cap = Array.length b.data in
    let kept = min b.total cap in
    let first = (b.next - kept + cap) mod cap in
    List.init kept (fun i -> b.data.((first + i) mod cap))

  let events (b : buf) : event list = List.map (fun e -> e.ev) (to_list b)
  let clear (b : buf) =
    b.next <- 0;
    b.total <- 0
end

let ring (buf : Ring.buf) : t = make (fun ts ev -> Ring.push buf ts ev)

(* ------------------------------------------------------------------ *)
(* JSON-lines sink: one event object per line, timestamps in seconds. *)

let jsonl (oc : out_channel) : t =
  make (fun ts ev ->
      let doc =
        Json.obj
          (("ts", Json.float ts)
          :: ("ev", Json.str (label ev))
          :: args ev)
      in
      output_string oc (Json.to_string doc);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Chrome trace-event sink (the JSON Array Format): load the file in
   Perfetto (ui.perfetto.dev) or chrome://tracing to see a parse as a
   timeline -- decisions and speculation as nested duration slices,
   everything else as instant events.

   [close] finishes the array; call it before reading the file.  Timestamps
   are microseconds relative to sink creation, measured on [monotonic_now]
   so they can never run backwards under NTP adjustment. *)

type chrome = {
  c_oc : out_channel;
  c_t0 : float;
  mutable c_first : bool;
  mutable c_closed : bool;
}

let chrome_event (c : chrome) (ts : float) (ev : event) : unit =
  if not c.c_closed then begin
    let ph =
      match phase ev with `B -> "B" | `E -> "E" | `I -> "i"
    in
    let base =
      [
        ("name", Json.str (span_name ev));
        ("cat", Json.str (label ev));
        ("ph", Json.str ph);
        ("ts", Json.float (max 0.0 ((ts -. c.c_t0) *. 1e6)));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
      ]
    in
    let fields =
      (* instant events need a scope; args carry the payload *)
      (if ph = "i" then base @ [ ("s", Json.str "t") ] else base)
      @ [ ("args", Json.obj (args ev)) ]
    in
    if c.c_first then c.c_first <- false else output_char c.c_oc ',';
    output_char c.c_oc '\n';
    output_string c.c_oc (Json.to_string (Json.obj fields))
  end

let chrome_sink (oc : out_channel) : t * (unit -> unit) =
  let c =
    { c_oc = oc; c_t0 = monotonic_now (); c_first = true; c_closed = false }
  in
  output_string oc "[";
  let tracer = make (fun ts ev -> chrome_event c ts ev) in
  let close () =
    if not c.c_closed then begin
      c.c_closed <- true;
      output_string oc "\n]\n";
      flush oc
    end
  in
  (tracer, close)

(* ------------------------------------------------------------------ *)
(* Well-formedness check over a captured event sequence: every span enter
   has a matching, properly nested exit.  Used by tests and available to
   sinks that buffer. *)

let spans_balanced (evs : event list) : bool =
  let key ev =
    match phase ev with `B | `E -> Some (span_name ev) | `I -> None
  in
  let rec go stack = function
    | [] -> stack = []
    | ev :: rest -> (
        match (phase ev, key ev) with
        | `B, Some k -> go (k :: stack) rest
        | `E, Some k -> (
            match stack with
            | top :: stack' -> if top = k then go stack' rest else false
            | [] -> false)
        | (`B | `E), None | `I, (Some _ | None) -> go stack rest)
  in
  go [] evs
