(* Streaming parse pipeline vs the materialized path.

   Two legs, both end to end (bytes in, verdict out):

   - "stream.<grammar>": every corpus program is parsed both ways --
     materialized ([Lexer_engine.tokenize] into a pinned array, then the
     interpreter) and streaming (chunked scan feeding a sliding
     [Token_stream.of_pull] window) -- and the verdicts must be
     identical: same accept/reject, same error kind and token index,
     same consumed count, same lex-error position.  Tokens/s for both
     paths and their ratio are recorded; CI gates verdict identity
     against BENCH_stream.json.

   - "stream.scale": a repeated-prefix adversarial grammar (array-indexed
     lvalue vs expression statement: both alternatives match an
     arbitrarily long [ID ('[' expr ']')*] prefix, so the PEG-mode
     decision must speculate to the '='/';' that tells them apart) at two
     input scales 100x apart.  Peak resident tokens
     ([Token_stream.peak_live]) and the sampled live-heap delta during
     the parse (Gc.stat against a pre-parse floor) must stay flat:
     bounded by the window and the speculation reach, not the input. *)

module Workload = Bench_grammars.Workload
module Rt = Runtime.Generated
module Le = Runtime.Lexer_engine
module Ts = Runtime.Token_stream

let grammar_window = 256
let scale_window = 512
let scale_factor = 100

(* The gate's floor on stream/materialized throughput, documented here,
   enforced by bench/gate.exe against BENCH_stream.json.  Only rows that
   set [ratio_gated] gate the ratio: the scale leg's MB-size input gives
   a stable measurement, while the per-grammar corpora time in the
   few-ms range where the ratio swings +-30% on scheduler and allocator
   noise alone -- those rows gate verdict identity and record the
   ratio, same spirit as the serve family's never-gated latency. *)
let ratio_floor = 0.8

(* Median of [reps] full passes, in seconds; same rationale as the sets
   and codegen benches (gate rows must not move on one scheduler hiccup).
   Each rep starts from a compacted heap: a full-corpus pass allocates
   faster than the incremental major GC reclaims, so without the
   compaction rep N measures the allocator state rep N-1 left behind --
   the gated stream/materialized ratio swung 2x on that alone. *)
let median_s ?(reps = 5) (f : unit -> unit) : float =
  let ts =
    Array.init reps (fun _ ->
        Gc.compact ();
        snd (Common.time f))
  in
  Array.sort compare ts;
  ts.(reps / 2)

(* Inner repetitions so one timed pass covers at least [floor_tokens]:
   CI's smoke corpora are ~1200 tokens, and a ratio of two ~2ms passes
   gates on scheduler noise.  Full-size corpora repeat once. *)
let inner_iters ~(tokens : int) : int =
  let floor_tokens = 20_000 in
  max 1 ((floor_tokens + tokens - 1) / tokens)

(* A parse verdict normalized across the two paths.  Lex errors carry
   their position so a streaming scan that fails elsewhere counts as a
   divergence. *)
type verdict = Lex of int * int | Parsed of Rt.outcome

let verdict_agree a b =
  match (a, b) with
  | Lex (l1, c1), Lex (l2, c2) -> l1 = l2 && c1 = c2
  | Parsed a, Parsed b -> Rt.agree a b
  | Lex _, Parsed _ | Parsed _, Lex _ -> false

let verdict_describe = function
  | Lex (l, c) -> Printf.sprintf "lex-error@%d:%d" l c
  | Parsed o -> Rt.describe o

let materialized ~env (c : Llstar.Compiled.t) config text : verdict * int =
  match Le.tokenize config (Llstar.Compiled.sym c) text with
  | Error e -> (Lex (e.Le.line, e.Le.col), 0)
  | Ok toks -> (Parsed (Rt.interp_outcome ~env c toks), Array.length toks)

(* One streaming parse: chunked scan, sliding window, drain after the
   verdict so a lex error anywhere wins (the materialized path lexes
   everything first).  [wrap_pull] lets the scale leg sample the heap
   mid-parse without touching the hot path here. *)
let streaming ?(wrap_pull = fun p -> p) ~env ~window (c : Llstar.Compiled.t)
    config text : verdict * int * int =
  let ls = Le.stream config (Llstar.Compiled.sym c) (Le.reader_of_string text) in
  let ts = Ts.of_pull ~window (wrap_pull (Le.pull ls)) in
  let v =
    match Rt.interp_outcome_stream ~env c ts with
    | exception Le.Lex_error e -> Lex (e.Le.line, e.Le.col)
    | o -> (
        match Le.drain ls with
        | Error e -> Lex (e.Le.line, e.Le.col)
        | Ok _ -> Parsed o)
  in
  (v, Le.produced ls, Ts.peak_live ts)

(* ------------------------------------------------------------------ *)
(* Leg 1: the six bench grammars over their corpora *)

let grammar_leg (spec : Workload.spec) =
  let cw = Common.compiled spec in
  let corpus = Common.corpus spec in
  let env = Workload.env_of_spec spec in
  let config = spec.Workload.lexer_config in
  let texts = corpus.Workload.texts in
  let mismatches = ref 0 and total = ref 0 and peak = ref 0 in
  List.iter
    (fun text ->
      let mv, _ = materialized ~env cw.Workload.c config text in
      let sv, n, pk =
        streaming ~env ~window:grammar_window cw.Workload.c config text
      in
      total := !total + n;
      if pk > !peak then peak := pk;
      if not (verdict_agree mv sv) then begin
        incr mismatches;
        if !mismatches <= 3 then
          Fmt.epr "stream %s: streamed=%s materialized=%s@." spec.Workload.name
            (verdict_describe sv) (verdict_describe mv)
      end)
    texts;
  let verdict_match = !mismatches = 0 in
  let inner = inner_iters ~tokens:!total in
  let mat_s =
    median_s (fun () ->
        for _ = 1 to inner do
          List.iter
            (fun t -> ignore (materialized ~env cw.Workload.c config t))
            texts
        done)
  in
  let stream_s =
    median_s (fun () ->
        for _ = 1 to inner do
          List.iter
            (fun t ->
              ignore
                (streaming ~env ~window:grammar_window cw.Workload.c config t))
            texts
        done)
  in
  let per_s s =
    if s > 0.0 then float_of_int (!total * inner) /. s else 0.0
  in
  let mat_tps = per_s mat_s and stream_tps = per_s stream_s in
  let ratio = if mat_tps > 0.0 then stream_tps /. mat_tps else 0.0 in
  Fmt.pr "%-11s %8d %6d | %12.0f %12.0f %6.2fx | %7d %6d | %s@."
    spec.Workload.name !total (List.length texts) mat_tps stream_tps ratio
    !peak grammar_window
    (if verdict_match then "yes" else Printf.sprintf "NO (%d)" !mismatches);
  Common.Tel.add
    ("stream." ^ spec.Workload.name)
    (Obs.Json.obj
       [
         ("tokens", Obs.Json.int !total);
         ("inputs", Obs.Json.int (List.length texts));
         ("window", Obs.Json.int grammar_window);
         ("peak_live", Obs.Json.int !peak);
         ("materialized_tokens_per_s", Obs.Json.float mat_tps);
         ("stream_tokens_per_s", Obs.Json.float stream_tps);
         ("throughput_ratio", Obs.Json.float ratio);
         ("ratio_gated", Obs.Json.bool false);
         ("verdict_match", Obs.Json.bool verdict_match);
       ])

(* ------------------------------------------------------------------ *)
(* Leg 2: memory flatness at 100x scale on the adversarial grammar *)

(* Both stmt alternatives match an unbounded [ID ('[' expr ']')*] prefix;
   only the token after it ('=' vs ';') picks one, so every statement
   costs a full-prefix speculation -- the worst case for a sliding
   window, since the mark pins it for the whole statement. *)
let adversarial_grammar =
  {|
grammar StreamScale;
options { backtrack=true; memoize=true; }

prog : stmt* ;

stmt
  : lvalue '=' expr ';'
  | expr ';'
  ;

lvalue : ID ('[' expr ']')* ;

expr : term (('+' | '-') term)* ;

term : atom (('*' | '/') atom)* ;

atom
  : ID ('[' expr ']')*
  | INT
  | '(' expr ')'
  ;
|}

(* [n] statements alternating assignment and bare expression, both
   opening with the same indexed-lvalue prefix (~15 tokens each). *)
let adversarial_text (n : int) : string =
  let b = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    if i land 1 = 0 then
      Buffer.add_string b "x [ i + 1 ] [ j * 2 ] = y + 3 ;\n"
    else Buffer.add_string b "x [ i + 1 ] [ j * 2 ] ;\n"
  done;
  Buffer.contents b

(* Max live heap words sampled during one streaming parse, as a delta
   over a pre-parse full-major floor.  Sampling every 64 chunks keeps
   the full majors off the measured-throughput runs (which use the plain
   [streaming] driver). *)
let streaming_sampled ~env ~window c config text :
    verdict * int * int * int =
  Gc.full_major ();
  let floor = (Gc.stat ()).Gc.live_words in
  let sampled = ref floor and chunks = ref 0 in
  let wrap_pull pull () =
    incr chunks;
    if !chunks land 63 = 0 then begin
      Gc.full_major ();
      let lw = (Gc.stat ()).Gc.live_words in
      if lw > !sampled then sampled := lw
    end;
    pull ()
  in
  let v, n, pk = streaming ~wrap_pull ~env ~window c config text in
  Gc.full_major ();
  let lw = (Gc.stat ()).Gc.live_words in
  if lw > !sampled then sampled := lw;
  (v, n, pk, !sampled - floor)

let scale_leg () =
  let c =
    match Llstar.Compiled.of_source adversarial_grammar with
    | Ok c -> c
    | Error e -> failwith (Fmt.str "stream scale: %a" Llstar.Compiled.pp_error e)
  in
  let env = Runtime.Interp.default_env in
  let config = Le.default_config in
  let base_stmts = max 32 (Common.default_target_tokens / 15) in
  let small = adversarial_text base_stmts in
  let large = adversarial_text (base_stmts * scale_factor) in
  let vm_small, tok_small = materialized ~env c config small in
  let vm_large, tok_large = materialized ~env c config large in
  let vs_small, n_small, peak_small, live_small =
    streaming_sampled ~env ~window:scale_window c config small
  in
  let vs_large, n_large, peak_large, live_large =
    streaming_sampled ~env ~window:scale_window c config large
  in
  let verdict_match =
    verdict_agree vm_small vs_small
    && verdict_agree vm_large vs_large
    && tok_small = n_small && tok_large = n_large
  in
  if not verdict_match then
    Fmt.epr "stream scale: small streamed=%s materialized=%s, large \
             streamed=%s materialized=%s@."
      (verdict_describe vs_small) (verdict_describe vm_small)
      (verdict_describe vs_large) (verdict_describe vm_large);
  (* The two gated flatness bounds: resident tokens bounded by the
     window (not the input), and the sampled live-heap delta of the
     100x parse within 2x of the 1x parse plus a fixed slack (131072
     words = 1 MiB) for allocator noise.  A window that leaked O(input)
     tokens blows both. *)
  let peak_within_window = peak_large <= 2 * scale_window in
  let mem_flat = live_large <= (2 * live_small) + 131072 in
  let mat_s =
    median_s ~reps:3 (fun () -> ignore (materialized ~env c config large))
  in
  let stream_s =
    median_s ~reps:3 (fun () ->
        ignore (streaming ~env ~window:scale_window c config large))
  in
  let per_s s = if s > 0.0 then float_of_int tok_large /. s else 0.0 in
  let mat_tps = per_s mat_s and stream_tps = per_s stream_s in
  let ratio = if mat_tps > 0.0 then stream_tps /. mat_tps else 0.0 in
  Fmt.pr "%-11s %8d %6s | %12.0f %12.0f %6.2fx | %7d %6d | %s@." "scale-100x"
    tok_large "-" mat_tps stream_tps ratio peak_large scale_window
    (if verdict_match then "yes" else "NO");
  Fmt.pr
    "  1x: %d tokens, peak %d resident, +%d live words; 100x: %d tokens, \
     peak %d resident, +%d live words (flat: %b, within window: %b)@."
    tok_small peak_small live_small tok_large peak_large live_large mem_flat
    peak_within_window;
  Common.Tel.add "stream.scale"
    (Obs.Json.obj
       [
         ("window", Obs.Json.int scale_window);
         ("tokens_small", Obs.Json.int tok_small);
         ("tokens_large", Obs.Json.int tok_large);
         ("scale", Obs.Json.int scale_factor);
         ("peak_live_small", Obs.Json.int peak_small);
         ("peak_live_large", Obs.Json.int peak_large);
         ("live_words_small", Obs.Json.int live_small);
         ("live_words_large", Obs.Json.int live_large);
         ("materialized_tokens_per_s", Obs.Json.float mat_tps);
         ("stream_tokens_per_s", Obs.Json.float stream_tps);
         ("throughput_ratio", Obs.Json.float ratio);
         ("ratio_gated", Obs.Json.bool true);
         ("verdict_match", Obs.Json.bool verdict_match);
         ("peak_within_window", Obs.Json.bool peak_within_window);
         ("mem_flat", Obs.Json.bool mem_flat);
       ])

let run () =
  Common.section "Streaming pipeline: sliding token windows vs materialized";
  Fmt.pr "%-11s %8s %6s | %12s %12s %7s | %7s %6s | %s@." "grammar" "tokens"
    "inputs" "mat tok/s" "stream tok/s" "ratio" "peak" "window" "match";
  List.iter grammar_leg Bench_grammars.Specs.all;
  scale_leg ();
  Fmt.pr "(gate: verdict_match everywhere; scale leg also gates \
          throughput ratio >= %.1fx and peak/live flatness at 100x)@."
    ratio_floor;
  Common.hr ()
