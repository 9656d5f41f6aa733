(* The workloads and the metrics they report.

   Both workloads report every end-to-end metric, each measured on the
   workload's own inputs through the named path: in-process throughput on
   the materialized, generated and streaming paths, and the serve daemon
   under a request mix built from the same inputs.

   - corpus: seeded corpora for the six bench grammars; set-up is their
     eager analysis.  Mostly LL(1) prediction, lexing and compile time.
     Its daemon boots from a compilation cache and serves parse and
     parse_stream on all six grammars and both backends, ~10%
     token-mutated inputs, client grammar loads and a periodic stats
     scrape.
   - backtrack-stream: one StreamScale program of 200k tokens in PEG mode
     (backtrack + memoize); every statement speculates over a long
     prefix, so speculation, memoization, the mark-pinned token window
     and the GC do the work, and analysis and lexing do little. *)

open Inputs
module Sl = Serve_load

type config = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool; (* small inputs and short phases, for the self-test *)
}

type result = {
  metrics : Util.metric list;
  tally : Util.tally;
  input_digest : string; (* changes with the seed, for the self-test *)
  host_factor : float; (* see [Calib] *)
}

let names = [ "corpus"; "backtrack-stream" ]

(* Open-loop rates (requests/s), at most about a third of the closed-loop
   capacity each workload's mix reached on a 2-core x86-64 virtual machine
   when the benchmark was defined.  Fixed, so every commit sees the same
   offered load. *)
let open_rate = function "corpus" -> 300.0 | _ -> 150.0

(* Share of the run spent in-process; the rest drives the daemon.  The
   end-to-end serve metric comes from closed-loop bursts; the open loop
   feeds the traced run's latency figures, so untraced runs keep it short
   (its responses are still checked). *)
let inproc_share = 0.6
let open_share ~traced = if traced then 0.6 else 0.2

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* Repeat [f] at least [reps] times and for at least [min_s]; the last
   result, the median CPU time scaled to the reference host (see
   [Calib]), and the repetition count. *)
let timed_reps ~(reps : int) ~(min_s : float) (f : unit -> 'a) : 'a * float * int =
  let rec go acc n last t_spent =
    if n >= reps && t_spent >= min_s then (Option.get last, Util.median acc, n)
    else
      let v, dt = Calib.scaled f in
      go (dt :: acc) (n + 1) (Some v) (t_spent +. dt)
  in
  go [] 0 None 0.0

(* Eager analysis of every grammar, [reps] times; the last repetition's
   compilations and the set-up time.  Each grammar's analysis is scaled
   on its own, so a set-up of several seconds follows the host's speed
   grammar by grammar; the set-up time is the sum of the per-grammar
   medians.  Only one repetition's compilations are live at a time and
   the heap is compacted before each, which keeps peak_rss_mb
   independent of GC timing. *)
let compile_reps ~(reps : int) (specs : Workload.spec list) :
    Llstar.Compiled.t list * float =
  let last = ref [] in
  let times =
    List.init reps (fun _ ->
        last := [];
        Gc.compact ();
        Array.of_list
          (List.map
             (fun (spec : Workload.spec) ->
               let c, dt =
                 Calib.scaled (fun () ->
                     Spans.with_span "compile" 0 (fun () ->
                         compile_exn spec.Workload.name spec.Workload.grammar_text))
               in
               last := c :: !last;
               dt)
             specs))
  in
  let per_grammar i = Util.median (List.map (fun a -> a.(i)) times) in
  (List.rev !last, Util.sum (List.init (List.length specs) per_grammar))

(* ------------------------------------------------------------------ *)
(* Inputs *)

let corpus_tokens cfg = if cfg.tiny then 1_500 else 20_000
let scale_tokens cfg = if cfg.tiny then 3_000 else 200_000

let all_ok texts = Array.map (fun _ -> true) texts

let digest_texts (targets : target list) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.concat_map (fun t -> Array.to_list t.texts) targets)))

(* ------------------------------------------------------------------ *)
(* Metric assembly *)

type measured = {
  setup_s : float;
  slots : Inproc.slot list;
  live_kb : float;
  samples_closed : Sl.sample list;
  rps : float; (* median closed-loop burst *)
  cpu_ms_per_req : float; (* median closed-loop burst *)
  rss_mb : float; (* peak through set-up and the in-process passes *)
  open_rate : float;
  samples_open : Sl.sample list;
  stats : Obs.Json.t option;
  compiled : Llstar.Compiled.t list; (* compiled at set-up *)
  compile_busy_s : float; (* per set-up, traced *)
  cache_load_s : float; (* per set-up, traced *)
  cache_hits : float; (* per set-up, traced *)
}

let latency_ms (s : Sl.sample) =
  match s.Sl.s_resp with
  | Some _ -> (s.Sl.s_recv -. s.Sl.s_due) *. 1e3
  | None -> infinity

let is_parse (s : Sl.sample) =
  match s.Sl.s_kind with Sl.Parse _ -> true | _ -> false

let is_load (s : Sl.sample) =
  match s.Sl.s_kind with Sl.Load _ -> true | _ -> false

let end_to_end (x : measured) : Util.metric list =
  let open Util in
  [
    m "setup_s" "s" x.setup_s;
    m "interp_mb_per_s" "MB/s" (Inproc.path_mb_per_s x.slots Inproc.Interp);
    m "gen_mb_per_s" "MB/s" (Inproc.path_mb_per_s x.slots Inproc.Gen);
    m "stream_mb_per_s" "MB/s" (Inproc.path_mb_per_s x.slots Inproc.Stream);
    m "stream_live_kb" "KiB" x.live_kb;
    m "peak_rss_mb" "MiB" x.rss_mb;
    m "serve_cpu_ms_per_req" "ms" x.cpu_ms_per_req;
  ]

(* Client-side serve figures in wall time: latency from when each request
   was due (an unanswered request counts as +inf), closed-loop capacity,
   and load latency. *)
let serve_wall (x : measured) : Util.metric list =
  let open Util in
  let parse_lat = List.map latency_ms (List.filter is_parse x.samples_open) in
  let load_lat =
    List.map
      (fun (s : Sl.sample) ->
        match s.Sl.s_resp with
        | Some _ -> (s.Sl.s_recv -. s.Sl.s_sent) *. 1e3
        | None -> infinity)
      (List.filter is_load (x.samples_closed @ x.samples_open))
  in
  [
    m "serve.p50_ms" "ms" (percentile parse_lat 50.0);
    m "serve.p99_ms" "ms" (percentile parse_lat 99.0);
    m "serve.rps" "req/s" x.rps;
    m "serve.load_p50_ms" "ms" (median load_lat);
    m "loadgen.rate_rps" "req/s" x.open_rate;
  ]

let grammar_names =
  List.map (fun (s : Workload.spec) -> s.Workload.name) specs @ [ "StreamScale" ]

let serve_backends : Sl.backend list = [ `Interp; `Generated ]

(* Per-layer metrics from the traced run.  Names are the same on every
   workload; a layer the workload does not reach reports 0. *)
let per_layer (x : measured) : Util.metric list =
  let open Util in
  let in_kind kind ctx =
    String.length ctx > String.length kind
    && String.sub ctx 0 (String.length kind + 1) = kind ^ ":"
  in
  let span_ctx = in_kind "span" and event_ctx = in_kind "event" in
  let self_span name = Spans.self ~keep:span_ctx name in
  let self_event name = Spans.self ~keep:event_ctx name in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 x.slots in
  let sumi f = List.fold_left (fun a s -> a + f s) 0 x.slots in
  let slots_on path = List.filter (fun s -> s.Inproc.path = path) x.slots in
  let prof_sum path f =
    List.fold_left (fun a s -> a + f s.Inproc.profile) 0 (slots_on path)
  in
  let prof_avg path f wf =
    let w = prof_sum path wf in
    if w = 0 then 0.0
    else
      List.fold_left
        (fun a s -> a +. (f s.Inproc.profile *. float_of_int (wf s.Inproc.profile)))
        0.0 (slots_on path)
      /. float_of_int w
  in
  let interp_paths = [ Inproc.Interp; Inproc.Stream ] in
  let iprof f = List.fold_left (fun a p -> a + prof_sum p f) 0 interp_paths in
  let iavg f wf =
    let w = iprof wf in
    if w = 0 then 0.0
    else
      List.fold_left
        (fun a p -> a +. (prof_avg p f wf *. float_of_int (prof_sum p wf)))
        0.0 interp_paths
      /. float_of_int w
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let lex_share ~parse ctx =
    let keep = ( = ) ("span:" ^ ctx) in
    let lex = Spans.self ~keep "lex" and parse = Spans.self ~keep parse in
    if lex +. parse = 0.0 then 0.0 else lex /. (lex +. parse)
  in
  let lex_share_path path =
    let keep ctx =
      span_ctx ctx && String.ends_with ~suffix:("/" ^ Inproc.path_name path) ctx
    in
    let lex = Spans.self ~keep "lex"
    and parse = Spans.self ~keep (if path = Inproc.Gen then "gen" else "interp") in
    if lex +. parse = 0.0 then 0.0 else lex /. (lex +. parse)
  in
  let untraced = sumf (fun s -> Util.sum s.Inproc.wall_times) in
  let traced = sumf (fun s -> Util.sum s.Inproc.span_times) in
  let evented = sumf (fun s -> Util.sum s.Inproc.event_times) in
  let self_sum = Spans.self_sum ~keep:span_ctx in
  let pct a b = if b = 0.0 then 0.0 else (a -. b) /. b *. 100.0 in
  let nz v = if Float.is_nan v then 0.0 else v in
  (* Interp's time split, from the event passes *)
  let interp_share name =
    let total =
      List.fold_left (fun a n -> a +. self_event n) 0.0
        [ "interp.predict"; "interp.speculate"; "interp"; "interp.stream" ]
    in
    if total = 0.0 then 0.0 else self_event name /. total
  in
  (* serve, from the stats document and the samples *)
  let stats_d name keep =
    match x.stats with
    | Some st -> Sl.merged_duration st ~name ~keep
    | None -> Obs.Duration.create ()
  in
  let is_parse_op l =
    match List.assoc_opt "op" l with
    | Some ("parse" | "parse_stream") -> true
    | _ -> false
  in
  let on_backend b l = List.assoc_opt "backend" l = Some (Sl.backend_name b) in
  let ms_of_us us = float_of_int us /. 1e3 in
  let req_d = stats_d "serve.request_us" is_parse_op in
  let queue_d = stats_d "serve.queue_us" (fun _ -> true) in
  let parse_d = stats_d "serve.parse_us" (fun _ -> true) in
  let load_d = stats_d "serve.request_us" (fun l -> List.assoc_opt "op" l = Some "load") in
  let all_samples = x.samples_closed @ x.samples_open in
  let transport (s : Sl.sample) =
    match Option.map Obs.Json.parse s.Sl.s_resp with
    | Some (Ok j) -> (
        match Obs.Json.member "wall_us" j with
        | Some (Obs.Json.Int us) ->
            Some (((s.Sl.s_recv -. s.Sl.s_sent) *. 1e3) -. ms_of_us us)
        | _ -> None)
    | _ -> None
  in
  let parse_samples b =
    List.filter
      (fun (s : Sl.sample) -> match s.Sl.s_kind with Sl.Parse b' -> b' = b | _ -> false)
      x.samples_open
  in
  let rtt (s : Sl.sample) = (s.Sl.s_recv -. s.Sl.s_sent) *. 1e3 in
  let decompose b =
    let ss = parse_samples b in
    let client = median (List.map rtt ss) in
    let tr = median (List.filter_map transport ss) in
    let q = ms_of_us (Obs.Duration.p50 (stats_d "serve.queue_us" (on_backend b))) in
    let p = ms_of_us (Obs.Duration.p50 (stats_d "serve.parse_us" (on_backend b))) in
    let client = nz client and tr = nz tr in
    let pre = "serve." ^ Sl.backend_name b ^ "." in
    [
      m (pre ^ "client_ms_p50") "ms" client;
      m (pre ^ "transport_ms_p50") "ms" tr;
      m (pre ^ "queue_ms_p50") "ms" q;
      m (pre ^ "parse_ms_p50") "ms" p;
      m (pre ^ "handler_ms_p50") "ms" (client -. tr -. q -. p);
    ]
  in
  let lines_of f = List.filter_map f all_samples in
  let req_lines =
    lines_of (fun s ->
        if is_parse s then Some (Sl.line_of ~id:s.Sl.s_id s.Sl.s_fields) else None)
  in
  let resp_docs =
    lines_of (fun s ->
        if is_parse s then Option.bind s.Sl.s_resp (fun r -> Result.to_option (Obs.Json.parse r))
        else None)
  in
  let per_item_us items f =
    match items with
    | [] -> 0.0
    | _ ->
        let items = List.filteri (fun i _ -> i < 2000) items in
        let n = List.length items in
        let reps = List.init 5 (fun _ -> snd (Util.time (fun () -> List.iter f items))) in
        median reps /. float_of_int n *. 1e6
  in
  let late =
    List.map (fun (s : Sl.sample) -> (s.Sl.s_sent -. s.Sl.s_due) *. 1e3) x.samples_open
  in
  [
    m "compile.busy_s" "s" x.compile_busy_s;
    m "compile.analysis_s" "s"
      (List.fold_left
         (fun a c -> a +. c.Llstar.Compiled.report.Llstar.Report.analysis_time)
         0.0 x.compiled);
    m "compile.dfa_states" "count"
      (float_of_int
         (List.fold_left
            (fun a c ->
              Array.fold_left
                (fun a d -> a + d.Llstar.Report.dfa_states)
                a c.Llstar.Compiled.report.Llstar.Report.decisions)
            0 x.compiled));
    m "cache.load_s" "s" x.cache_load_s;
    m "cache.hits" "count" x.cache_hits;
    m "lex.busy_s" "s" (self_span "lex");
    m "lex.tokens" "count" (float_of_int (sumi (fun s -> s.Inproc.counters.Inproc.tokens)));
    m "lex.chunks" "count" (float_of_int (sumi (fun s -> s.Inproc.counters.Inproc.chunks)));
    m "lex.share.interp" "ratio" (lex_share_path Inproc.Interp);
    m "lex.share.gen" "ratio" (lex_share_path Inproc.Gen);
  ]
  @ List.concat_map
      (fun g ->
        [
          m ("lex.share." ^ g ^ ".interp") "ratio"
            (lex_share ~parse:"interp" (g ^ "/interp"));
          m ("lex.share." ^ g ^ ".gen") "ratio"
            (lex_share ~parse:"gen" (g ^ "/gen"));
        ])
      grammar_names
  @ [
      m "interp.busy_s" "s"
        (self_span "interp" +. self_span "interp.stream");
      m "interp.predict_share" "ratio" (interp_share "interp.predict");
      m "interp.speculate_share" "ratio" (interp_share "interp.speculate");
      m "interp.decisions" "count" (float_of_int (iprof Runtime.Profile.events));
      m "interp.avg_k" "tokens" (iavg Runtime.Profile.avg_k Runtime.Profile.events);
      m "interp.backtracks" "count" (float_of_int (iprof Runtime.Profile.back_events));
      m "interp.back_k" "tokens" (iavg Runtime.Profile.back_k Runtime.Profile.back_events);
      m "interp.synpreds" "count" (float_of_int (Spans.count_of "interp.synpreds"));
      m "interp.synpred_ok_ratio" "ratio"
        (ratio (Spans.count_of "interp.synpreds_ok") (Spans.count_of "interp.synpreds"));
      m "interp.memo_lookups" "count"
        (float_of_int (Spans.count_of "interp.memo_hits" + Spans.count_of "interp.memo_misses"));
      m "interp.memo_hit_ratio" "ratio"
        (ratio (Spans.count_of "interp.memo_hits")
           (Spans.count_of "interp.memo_hits" + Spans.count_of "interp.memo_misses"));
      m "lazy_dfa.states" "count" (float_of_int (iprof Runtime.Profile.lazy_dfa_states));
      m "gen.busy_s" "s" (self_span "gen");
      m "gen.decisions" "count" (float_of_int (prof_sum Inproc.Gen Runtime.Profile.events));
      m "gen.backtracks" "count" (float_of_int (prof_sum Inproc.Gen Runtime.Profile.back_events));
      m "token_stream.peak_live" "tokens"
        (float_of_int
           (List.fold_left (fun a s -> max a s.Inproc.counters.Inproc.peak_live) 0 x.slots));
      m "token_stream.window" "tokens" (float_of_int !Inproc.stream_window);
      m "gc.minor_mb" "MB" (sumf (fun s -> s.Inproc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6);
      m "gc.major_collections" "count" (float_of_int (sumi (fun s -> s.Inproc.major_collections)));
      m "serve.request_ms_p50" "ms" (ms_of_us (Obs.Duration.p50 req_d));
      m "serve.request_ms_p99" "ms" (ms_of_us (Obs.Duration.p99 req_d));
      m "serve.queue_ms_p50" "ms" (ms_of_us (Obs.Duration.p50 queue_d));
      m "serve.queue_ms_p99" "ms" (ms_of_us (Obs.Duration.p99 queue_d));
      m "serve.parse_ms_p50" "ms" (ms_of_us (Obs.Duration.p50 parse_d));
      m "serve.transport_ms_p50" "ms"
        (nz (median (List.filter_map transport (List.filter is_parse x.samples_open))));
    ]
  @ serve_wall x
  @ List.concat_map decompose serve_backends
  @ [
      m "protocol.decode_us" "us"
        (per_item_us req_lines (fun l -> ignore (Serve.Protocol.parse_request l)));
      m "json.encode_us" "us" (per_item_us resp_docs (fun j -> ignore (Obs.Json.to_string j)));
      m "registry.load_ms_p50" "ms" (ms_of_us (Obs.Duration.p50 load_d));
      m "loadgen.late_ms_p99" "ms" (nz (percentile late 99.0));
      m "trace.untraced_s" "s" untraced;
      m "trace.traced_s" "s" traced;
      m "trace.self_sum_s" "s" self_sum;
      m "trace.overhead_pct" "%" (pct traced untraced);
      m "trace.unaccounted_pct" "%" (pct self_sum untraced);
      m "trace.event_overhead_pct" "%" (pct evented untraced);
      m "trace.spans" "count" (float_of_int !Spans.n_stored);
      m "host.calib_ms" "ms" (Calib.median_s () *. 1e3);
    ]

(* ------------------------------------------------------------------ *)
(* Running a workload *)

let pick ~(rng : Random.State.t) (n : int) (texts : string array) : string array =
  Array.init (min n (Array.length texts)) (fun _ ->
      texts.(Random.State.int rng (Array.length texts)))

(* The daemon phases: closed-loop bursts, then the open loop at the
   workload's fixed rate, then every response checked. *)
let serve_phase (cfg : config) ~tally ~(entries : Serve.Registry.entry list)
    ~(mix : Sl.mix) ~(serve_s : float) (d : Sl.daemon) =
  Gc.compact ();
  let choosers = Array.init 2 (fun client -> Sl.chooser ~seed:cfg.seed ~client) in
  Spans.enabled := cfg.traced;
  Spans.context := "serve";
  let closed_s = serve_s *. (1.0 -. open_share ~traced:cfg.traced) in
  (* capacity and CPU cost per request are medians over closed-loop
     bursts of one client; the CPU time is scaled (see [Calib]) *)
  let n_bursts = 10 in
  let bursts =
    List.init n_bursts (fun _ ->
        let (samples, _), cpu =
          Calib.scaled (fun () ->
              Sl.drive d mix ~choosers:[| choosers.(0) |]
                (Sl.Closed (closed_s /. float_of_int n_bursts)))
        in
        (samples, cpu))
  in
  let samples_open, _ =
    Sl.drive d mix ~choosers
      (Sl.Open { seconds = serve_s -. closed_s; rate = open_rate cfg.workload })
  in
  Spans.enabled := false;
  Spans.context := "";
  let stats = if cfg.traced then Sl.stats_doc d else None in
  Sl.shutdown d;
  let samples_closed = List.concat_map fst bursts in
  Sl.check tally entries (samples_closed @ samples_open);
  let answered ss = List.length (List.filter (fun s -> s.Sl.s_resp <> None) ss) in
  let rps (ss, _) =
    match ss with
    | [] -> 0.0
    | s0 :: _ ->
        float_of_int (answered ss)
        /. (List.fold_left (fun a s -> max a s.Sl.s_recv) 0.0 ss
           -. List.fold_left (fun a s -> min a s.Sl.s_sent) s0.Sl.s_sent ss)
  in
  let cpu_ms (ss, cpu) = cpu *. 1e3 /. float_of_int (max 1 (answered ss)) in
  let cpu_ms = Util.median (List.map cpu_ms bursts) in
  let rps = Util.median (List.map rps bursts) in
  (samples_closed, rps, cpu_ms, samples_open, stats)

let largest (t : target) : string =
  Array.fold_left
    (fun a s -> if String.length s > String.length a then s else a)
    "" t.texts

let run (cfg : config) : result =
  Spans.reset ();
  Calib.reset ();
  Inputs.reuse_compiled := cfg.tiny;
  let tally = Util.tally () in
  let rng = Random.State.make [| cfg.seed |] in
  let work = Lazy.force Util.work_dir in
  let sock = Filename.concat work "serve.sock" in
  let reps = if cfg.tiny then 1 else 3 in
  let inproc_s = cfg.seconds *. inproc_share in
  let serve_s = cfg.seconds -. inproc_s in
  let min_passes = if cfg.tiny then 1 else 5 in
  let clients = client_grammars ~rng in
  let traced_setup f =
    Spans.enabled := cfg.traced;
    Spans.context := "setup";
    let r = f () in
    Spans.enabled := false;
    Spans.context := "";
    r
  in
  let per_setup name n = Spans.self ~keep:(( = ) "setup") name /. float_of_int n in
  let finish ~targets ~setup_s ~compiled ~reps_run ~live_kb ~rss_mb ~slots ~serve
      ~cache_load_s ~cache_hits =
    let samples_closed, rps, cpu_ms_per_req, samples_open, stats = serve in
    let x =
      { setup_s; slots; live_kb; samples_closed; rps; cpu_ms_per_req; rss_mb;
        open_rate = open_rate cfg.workload;
        samples_open; stats;
        compiled; compile_busy_s = per_setup "compile" reps_run; cache_load_s;
        cache_hits }
    in
    {
      metrics = (if cfg.traced then per_layer x else end_to_end x);
      tally;
      input_digest = digest_texts targets;
      host_factor = Calib.median_s () /. Calib.reference_s;
    }
  in
  let inproc targets =
    Gc.compact ();
    List.iter (Inproc.check_target tally) targets;
    let slots =
      Inproc.run_passes ~traced:cfg.traced ~budget_s:inproc_s ~min_passes targets
    in
    let live_kb =
      Util.median (List.map (fun t -> Inproc.stream_live_kb t (largest t)) targets)
    in
    (slots, live_kb, Util.peak_rss_mb ())
  in
  match cfg.workload with
  | "corpus" ->
      let reps_run = reps in
      let compiled, setup_s = traced_setup (fun () -> compile_reps ~reps specs) in
      let targets =
        List.map2
          (fun spec c ->
            let texts = corpus ~seed:cfg.seed ~target_tokens:(corpus_tokens cfg) spec c in
            builtin_target ~texts ~expect_ok:(all_ok texts) spec c)
          specs compiled
      in
      let slots, live_kb, rss_mb = inproc targets in
      (* the daemon boots from a compilation cache, as a restarted
         [antlrkit serve --cache-dir] does *)
      let cache = Filename.concat work "cache" in
      Util.mkdir_p cache;
      List.iter (fun c -> ignore (Llstar.Compiled_cache.save ~dir:cache c)) compiled;
      let tracer = if cfg.traced then Spans.tracer () else Obs.Trace.null in
      let cached =
        traced_setup (fun () ->
            List.map
              (fun (spec : Workload.spec) ->
                Spans.with_span "cache.load" 0 (fun () ->
                    match
                      Llstar.Compiled_cache.of_source ~tracer ~dir:cache
                        spec.Workload.grammar_text
                    with
                    | Ok (c, hit) ->
                        Util.check tally
                          ~what:(spec.Workload.name ^ ": cache miss at boot")
                          (hit = Llstar.Compiled_cache.Hit);
                        c
                    | Error e -> failwith (Fmt.str "%a" Llstar.Compiled.pp_error e)))
              specs)
      in
      (* ~10% of the requests are token-mutated programs; they are also
         checked in-process, untimed, so the generated parser and the
         streaming path are held to the interpreter on rejections too *)
      let serve_targets =
        List.map2
          (fun (t : target) c ->
            let mutated =
              List.filter_map (mutate ~rng t)
                (Array.to_list (pick ~rng (max 1 (Array.length t.texts / 9)) t.texts))
              |> Array.of_list
            in
            Inproc.check_target tally
              { t with texts = mutated; expect_ok = Array.map (fun _ -> false) mutated };
            { t with c; texts = Array.append t.texts mutated })
          targets cached
      in
      let entries = List.map Sl.entry_of_target serve_targets in
      let mix =
        { Sl.templates =
            Sl.templates entries (List.map (fun t -> (t, t.texts)) serve_targets);
          clients; load_every = 50; stats_every = 100 }
      in
      let serve =
        serve_phase cfg ~tally ~entries ~mix ~serve_s (Sl.boot ~sock entries)
      in
      finish ~targets ~setup_s ~compiled ~reps_run ~live_kb ~rss_mb ~slots ~serve
        ~cache_load_s:(Spans.self ~keep:(( = ) "setup") "cache.load")
        ~cache_hits:(float_of_int (Spans.count_of "cache.hits"))
  | "backtrack-stream" ->
      Inproc.stream_window := 512;
      let c, setup_s, reps_run =
        traced_setup (fun () ->
            (* one analysis takes ~0.5 ms, so each repetition times a
               batch of them and reports the mean *)
            let batch = if cfg.tiny then 1 else 100 in
            timed_reps ~reps ~min_s:(if cfg.tiny then 0.0 else 0.5) (fun () ->
                List.init batch (fun _ ->
                    Spans.with_span "compile" 0 (fun () ->
                        compile_exn "StreamScale" Grammar_texts.stream_scale)))
            |> fun (cs, t, n) -> (List.hd cs, t /. float_of_int batch, n * batch))
      in
      let text = scale_text ~rng ~tokens:(scale_tokens cfg) in
      let target =
        { name = "StreamScale"; c; config = Runtime.Lexer_engine.default_config;
          env = Runtime.Interp.default_env;
          gen = Some (module Gen_stream_scale : Runtime.Generated.PARSER);
          texts = [| text |]; expect_ok = [| true |] }
      in
      let slots, live_kb, rss_mb = inproc [ target ] in
      let entries = [ Sl.entry_of_target target ] in
      let serve_texts =
        Array.init 24 (fun _ -> scale_text ~rng ~tokens:400)
      in
      let mix =
        { Sl.templates = Sl.templates entries [ (target, serve_texts) ];
          clients; load_every = 50; stats_every = 0 }
      in
      let serve =
        serve_phase cfg ~tally ~entries ~mix ~serve_s (Sl.boot ~sock entries)
      in
      finish ~targets:[ target ] ~setup_s ~compiled:[ c ] ~reps_run ~live_kb ~rss_mb ~slots
        ~serve ~cache_load_s:0.0 ~cache_hits:0.0
  | w -> invalid_arg ("unknown workload " ^ w)
