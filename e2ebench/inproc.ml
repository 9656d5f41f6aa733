(* In-process paths from bytes to verdict, timed in passes.

   - interp: [Lexer_engine.tokenize] then [Interp] (the default
     [antlrkit parse] path);
   - gen: [Lexer_engine.tokenize] then the generated parser;
   - stream: [Lexer_engine.stream] -> [Token_stream.of_pull] -> [Interp]
     (the [parse --stream] path), draining the scanner after the verdict
     so a lex error anywhere wins, as on the materialized path.

   One pass parses every text of one target once.  Throughput is bytes
   over the median pass time, in CPU seconds scaled to the reference host
   (see [Calib]): the phase is single-threaded and nothing else runs. *)

module Le = Runtime.Lexer_engine
module Ts = Runtime.Token_stream
module Rt = Runtime.Generated
open Inputs

type path = Interp | Gen | Stream

let path_name = function Interp -> "interp" | Gen -> "gen" | Stream -> "stream"

(* A verdict normalized across paths: lex errors carry their position. *)
type verdict = Lex of int * int | Parsed of Rt.outcome

let agree a b =
  match (a, b) with
  | Lex (l1, c1), Lex (l2, c2) -> l1 = l2 && c1 = c2
  | Parsed a, Parsed b -> Rt.agree a b
  | Lex _, Parsed _ | Parsed _, Lex _ -> false

let accepted = function Parsed o -> o.Rt.ok | Lex _ -> false

(* Instrumentation for the traced run.  Span passes wrap every layer
   call in a span and count chunks, tokens and window peaks; event passes
   also hand the interpreter a profile and the span-stack tracer, which
   splits its time into prediction, speculation and matching. *)
type counters = {
  mutable chunks : int;
  mutable tokens : int;
  mutable peak_live : int;
}

let new_counters () = { chunks = 0; tokens = 0; peak_live = 0 }

let stream_window = ref 4096

let lex (t : target) i text =
  Spans.with_span "lex" i (fun () ->
      Le.tokenize t.config (Llstar.Compiled.sym t.c) text)

let run_one ?counters ?profile ?tracer (t : target) (path : path) (i : int)
    (text : string) : verdict =
  let count_tokens n =
    match counters with Some k -> k.tokens <- k.tokens + n | None -> ()
  in
  match path with
  | Interp | Gen -> (
      match lex t i text with
      | Error e -> Lex (e.Le.line, e.Le.col)
      | Ok toks -> (
          count_tokens (Array.length toks);
          match (path, t.gen) with
          | Gen, Some (module P) ->
              Parsed
                (Spans.with_span "gen" i (fun () ->
                     P.outcome ~env:t.env ?profile toks))
          | _ ->
              Parsed
                (Spans.with_span "interp" i (fun () ->
                     Rt.interp_outcome ~env:t.env ?profile ?tracer t.c toks))))
  | Stream ->
      Spans.with_span "interp.stream" i (fun () ->
          let ls =
            Le.stream t.config (Llstar.Compiled.sym t.c) (Le.reader_of_string text)
          in
          let pull =
            let inner = Le.pull ls in
            match counters with
            | None -> inner
            | Some k ->
                fun () ->
                  k.chunks <- k.chunks + 1;
                  Spans.with_span "lex" i inner
          in
          let ts = Ts.of_pull ~window:!stream_window pull in
          let v =
            match Rt.interp_outcome_stream ~env:t.env ?profile ?tracer t.c ts with
            | exception Le.Lex_error e -> Lex (e.Le.line, e.Le.col)
            | o -> (
                match Spans.with_span "lex" i (fun () -> Le.drain ls) with
                | Error e -> Lex (e.Le.line, e.Le.col)
                | Ok _ -> Parsed o)
          in
          (match counters with
          | Some k ->
              count_tokens (Le.produced ls);
              k.peak_live <- max k.peak_live (Ts.peak_live ts)
          | None -> ());
          v)

let paths_of (t : target) : path list =
  if Option.is_some t.gen then [ Interp; Gen; Stream ] else [ Interp; Stream ]

(* The check pass: every text through every path, before anything is
   timed.  The interpreter must match the input's expected acceptance,
   the generated parser must agree with the interpreter on the full
   outcome triple, and streaming must agree with materialized. *)
let check_target (tally : Util.tally) (t : target) : unit =
  Array.iteri
    (fun i text ->
      let reference = run_one t Interp i text in
      Util.check tally
        ~what:(Printf.sprintf "%s text %d: interp verdict" t.name i)
        (accepted reference = t.expect_ok.(i));
      List.iter
        (fun path ->
          if path <> Interp then
            Util.check tally
              ~what:
                (Printf.sprintf "%s text %d: %s disagrees with interp" t.name i
                   (path_name path))
              (agree (run_one t path i text) reference))
        (paths_of t))
    t.texts

let bytes_of (t : target) =
  Array.fold_left (fun a s -> a + String.length s) 0 t.texts

(* CPU and wall seconds of one pass (see [Util.cpu_time]). *)
let pass ?counters ?profile ?tracer (t : target) (path : path) : float * float =
  let (_, wall), cpu =
    Util.cpu_time (fun () ->
        Util.time (fun () ->
            Array.iteri
              (fun i text -> ignore (run_one ?counters ?profile ?tracer t path i text))
              t.texts))
  in
  (cpu, wall)

(* Timed passes for every (target, path) slot, round-robin until
   [budget_s] is spent and every slot has [min_passes].  Each round starts
   from a compacted heap so it does not inherit the previous round's
   allocator state.

   With [traced], each untraced pass is followed by a span pass and an
   event pass of the same slot, so all three run under the same
   conditions.  Span-pass contexts are "span:<grammar>/<path>", event-pass
   contexts "event:<grammar>/<path>".  Throughput uses the untraced CPU
   times, scaled by the calibration around each pass; the traced passes
   are compared with the untraced ones in wall time, the clock spans
   use. *)
type slot = {
  target : target;
  path : path;
  mutable times : float list; (* untraced, CPU, scaled (see [Calib]) *)
  mutable wall_times : float list; (* untraced, wall *)
  mutable span_times : float list;
  mutable event_times : float list;
  counters : counters;
  profile : Runtime.Profile.t;
  mutable minor_words : float;
  mutable major_collections : int;
}

let ctx_name kind (s : slot) = kind ^ ":" ^ s.target.name ^ "/" ^ path_name s.path

let traced_pass kind (s : slot) (f : unit -> float) : float =
  Spans.enabled := true;
  Spans.context := ctx_name kind s;
  let dt = f () in
  Spans.enabled := false;
  Spans.context := "";
  dt

let run_passes ~(traced : bool) ~(budget_s : float) ~(min_passes : int)
    (targets : target list) : slot list =
  let slots =
    List.concat_map
      (fun t ->
        List.map
          (fun path ->
            { target = t; path; times = []; wall_times = []; span_times = [];
              event_times = [];
              counters = new_counters (); profile = Runtime.Profile.create ();
              minor_words = 0.0; major_collections = 0 })
          (paths_of t))
      targets
  in
  let tracer = Spans.tracer () in
  let t0 = Util.now () in
  let round = ref 0 in
  while !round < min_passes || Util.now () -. t0 < budget_s do
    incr round;
    Gc.compact ();
    List.iter
      (fun s ->
        let (_, wall), cpu = Calib.scaled (fun () -> pass s.target s.path) in
        s.times <- cpu :: s.times;
        s.wall_times <- wall :: s.wall_times;
        if traced then begin
          let dt =
            traced_pass "span" s (fun () ->
                let g0 = Gc.quick_stat () in
                let _, dt = pass ~counters:s.counters s.target s.path in
                let g1 = Gc.quick_stat () in
                s.minor_words <-
                  s.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
                s.major_collections <-
                  s.major_collections
                  + (g1.Gc.major_collections - g0.Gc.major_collections);
                dt)
          in
          s.span_times <- dt :: s.span_times;
          let dt =
            traced_pass "event" s (fun () ->
                snd (pass ~profile:s.profile ~tracer s.target s.path))
          in
          s.event_times <- dt :: s.event_times
        end)
      slots
  done;
  slots

let mb_per_s (s : slot) : float =
  float_of_int (bytes_of s.target) /. 1e6 /. Util.median s.times

(* Geometric mean of per-target throughput on one path. *)
let path_mb_per_s (slots : slot list) (path : path) : float =
  Util.geomean
    (List.filter_map
       (fun s -> if s.path = path then Some (mb_per_s s) else None)
       slots)

(* Peak live-heap growth of one streaming parse, in KiB: a full major
   collection before the parse sets the floor, and the live heap is
   sampled at chunk pulls (every pull for small inputs, about 32 samples
   for large ones) and at the end, with the stream still reachable.
   Untimed. *)
let stream_live_kb (t : target) (text : string) : float =
  let sym = Llstar.Compiled.sym t.c in
  let n_tokens =
    match Le.tokenize t.config sym text with
    | Ok toks -> Array.length toks
    | Error _ -> 0
  in
  let every = max 1 (n_tokens / 256 / 32) in
  Gc.full_major ();
  let floor = (Gc.stat ()).Gc.live_words in
  let peak = ref floor and pulls = ref 0 in
  let sample () =
    Gc.full_major ();
    let lw = (Gc.stat ()).Gc.live_words in
    if lw > !peak then peak := lw
  in
  let ls = Le.stream t.config sym (Le.reader_of_string text) in
  let inner = Le.pull ls in
  let pull () =
    incr pulls;
    let chunk = inner () in
    if !pulls mod every = 0 then sample ();
    chunk
  in
  let ts = Ts.of_pull ~window:!stream_window pull in
  ignore (Rt.interp_outcome_stream ~env:t.env t.c ts);
  ignore (Le.drain ls);
  sample ();
  ignore (Sys.opaque_identity (ls, ts));
  float_of_int ((!peak - floor) * (Sys.word_size / 8)) /. 1024.0
