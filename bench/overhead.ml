(* Tracing-overhead bench: the observability layer's contract is that a
   disabled tracer costs one flag read per potential event and allocates
   nothing.  Three configurations parse the same corpus:

   - baseline   no tracer argument at all (the pre-tracing call shape;
                engines fall back to the shared [Obs.Trace.null])
   - disabled   an explicit tracer whose flag is off -- the exact code
                path of baseline, through a caller-supplied tracer
   - ring       an enabled ring-buffer tracer (the cost of actually
                materializing every event)

   The bench asserts the structural half of the contract (a disabled
   tracer materializes zero events) and that disabled-vs-baseline parity
   holds within the 2% acceptance bound; the ring cost is informational.

   Method.  A corpus pass at the smoke size lasts ~2 ms, far too short to
   time alone on a shared machine, so one rep runs a fixed number of
   passes lasting at least [min_rep_s] of process CPU time (wall time
   also counts the time other tenants hold the core).  Baseline (A) and
   variant (B) alternate in ABBA blocks, so drift in machine speed hits
   both sides alike, and each side's per-pass time is the median of its
   reps. *)

module Workload = Common.Workload

let min_rep_s = 0.05
let blocks = 10 (* ABBA blocks: 2 * blocks reps per side *)

(* Process CPU seconds of [n] runs of [f]. *)
let cpu_time n f =
  let t0 = Sys.time () in
  for _ = 1 to n do
    f ()
  done;
  Sys.time () -. t0

(* Passes of [f] per rep: the smallest power of two lasting [min_rep_s]. *)
let calibrate f =
  let rec go n = if cpu_time n f >= min_rep_s then n else go (2 * n) in
  go 1

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median per-pass seconds of baseline [a] and variant [b], sampled in
   ABBA order with the same pass count on both sides. *)
let abba (a : unit -> unit) (b : unit -> unit) : float * float =
  let n = calibrate a in
  let rep f = cpu_time n f /. float_of_int n in
  let sa = ref [] and sb = ref [] in
  for _ = 1 to blocks do
    sa := rep a :: !sa;
    sb := rep b :: !sb;
    sb := rep b :: !sb;
    sa := rep a :: !sa
  done;
  (median !sa, median !sb)

(* One recognize pass over [token_lists]. *)
let recognize_all cw env ?tracer token_lists () =
  List.iter
    (fun toks ->
      ignore (Runtime.Interp.recognize ~env ?tracer cw.Workload.c toks))
    token_lists

(* ------------------------------------------------------------------ *)
(* Serve hot path.  The telemetry/2 additions (latency summaries, the
   correlation id, monotonic timestamps, the tail-sampling branch) ride
   the request path of every parse; their disabled cost is gated like the
   null tracer's.  The baseline below replicates the pre-telemetry/2
   request pipeline over the same registry entry and pool -- JSON request
   decode, pooled lex+parse with a profile, counter + histogram recording
   under a mutex, response encode -- so the quotient isolates exactly the
   new per-request work.  Its lex+parse is the handler's call: one
   [Runtime.Drive.run] with the handler's default token budget. *)

let serve_grammar = "MiniJava"

let serve_request_line (text : string) : string =
  Obs.Json.to_string
    (Obs.Json.obj
       [
         ("op", Obs.Json.str "parse");
         ("grammar", Obs.Json.str serve_grammar);
         ("backend", Obs.Json.str "interp");
         ("text", Obs.Json.str text);
       ])

let baseline_handle ~(entry : Serve.Registry.entry) ~pool
    ~(metrics : Obs.Metrics.t) ~(m_lock : Mutex.t) (line : string) : string =
  match Serve.Protocol.parse_request line with
  | Error e -> failwith e
  | Ok req ->
      let text = Option.get req.Serve.Protocol.text in
      let work () =
        let profile = Runtime.Profile.create () in
        match
          Runtime.Drive.run
            ~max_tokens:Serve.Handler.default_limits.max_tokens
            ~env:entry.Serve.Registry.env ~profile
            entry.Serve.Registry.lexer_config Runtime.Drive.Interp
            entry.Serve.Registry.c
            (Runtime.Lexer_engine.reader_of_string text)
        with
        | Runtime.Drive.Parsed p -> (p, profile)
        | Runtime.Drive.Lex_error _ | Runtime.Drive.Token_budget _ ->
            failwith "bench corpus must lex within the budget"
      in
      let t0 = Unix.gettimeofday () in
      let p, profile = Exec.Pool.await (Exec.Pool.submit pool work) in
      let wall_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      Mutex.lock m_lock;
      Obs.Metrics.incr
        (Obs.Metrics.counter metrics
           ~labels:
             [
               ("op", "parse");
               ("grammar", serve_grammar);
               ("backend", "interp");
               ("ok", string_of_bool p.Runtime.Drive.ok);
             ]
           "serve.requests");
      Obs.Metrics.observe
        (Obs.Metrics.histogram metrics
           ~labels:[ ("grammar", serve_grammar) ]
           "serve.wall_us")
        wall_us;
      Obs.Metrics.observe
        (Obs.Metrics.histogram metrics
           ~labels:[ ("grammar", serve_grammar) ]
           "serve.tokens")
        p.Runtime.Drive.produced;
      Obs.Metrics.merge ~into:metrics (Runtime.Profile.registry profile);
      Mutex.unlock m_lock;
      Obs.Json.to_string
        (Serve.Protocol.ok_response ~id:req.Serve.Protocol.id ~op:"parse"
           [
             ("grammar", Obs.Json.str serve_grammar);
             ("backend", Obs.Json.str "interp");
             ("tokens", Obs.Json.int p.Runtime.Drive.produced);
             ("wall_us", Obs.Json.int wall_us);
             ("consumed", Obs.Json.int p.Runtime.Drive.consumed);
           ])

let serve_hot_path () =
  Common.section
    "Serve hot path: disabled telemetry must not tax request throughput";
  let spec = Bench_grammars.Mini_java.spec in
  let corpus = Common.corpus spec in
  let lines = List.map serve_request_line corpus.Workload.texts in
  let n = List.length lines in
  Exec.Pool.with_pool ~jobs:1 (fun pool ->
      let registry = Serve.Registry.create () in
      (match Serve.Registry.load_builtin registry ~pool serve_grammar with
      | Ok _ -> ()
      | Error e -> failwith e);
      let entry = Option.get (Serve.Registry.find registry serve_grammar) in
      let baseline_metrics = Obs.Metrics.create () in
      let m_lock = Mutex.create () in
      let run_baseline () =
        List.iter
          (fun l ->
            ignore
              (baseline_handle ~entry ~pool ~metrics:baseline_metrics ~m_lock
                 l))
          lines
      in
      let run_handler h () =
        List.iter
          (fun l ->
            let resp, _ = Serve.Handler.handle h l in
            assert (String.length resp > 0))
          lines
      in
      let h_off = Serve.Handler.create ~registry ~pool () in
      let slow_path = Filename.temp_file "antlrkit-overhead-slow" ".jsonl" in
      let sl = Serve.Slow_log.create ~threshold_us:max_int slow_path in
      let h_armed = Serve.Handler.create ~registry ~pool ~slow_log:sl () in
      (* warm every lazy path (DFA states, registry caches) before timing *)
      run_baseline ();
      run_handler h_off ();
      run_handler h_armed ();
      let t_base, t_off = abba run_baseline (run_handler h_off) in
      let _, t_armed = abba run_baseline (run_handler h_armed) in
      let off_pct = 100.0 *. ((t_off /. t_base) -. 1.0) in
      let armed_pct = 100.0 *. ((t_armed /. t_base) -. 1.0) in
      Fmt.pr "%-10s %12s %12s %12s %10s %10s@." "grammar" "baseline"
        "disabled" "armed" "off ovh" "armed ovh";
      Fmt.pr "%-10s %10.2fms %10.2fms %10.2fms %9.1f%% %9.1f%%@."
        serve_grammar (t_base *. 1e3) (t_off *. 1e3) (t_armed *. 1e3) off_pct
        armed_pct;
      (* structural: a threshold no request can reach retains nothing *)
      assert (Serve.Slow_log.written sl = 0);
      Serve.Slow_log.close sl;
      Sys.remove slow_path;
      (* and a zero threshold retains every request, correlation id and
         all -- the tail-sampling policy, exercised end to end *)
      let slow_path0 = Filename.temp_file "antlrkit-overhead-slow0" ".jsonl" in
      let sl0 = Serve.Slow_log.create ~threshold_us:0 slow_path0 in
      let h0 = Serve.Handler.create ~registry ~pool ~slow_log:sl0 () in
      run_handler h0 ();
      assert (Serve.Slow_log.written sl0 = n);
      let ic = open_in slow_path0 in
      (try
         while true do
           let l = input_line ic in
           match Obs.Json.parse l with
           | Ok j ->
               assert (Obs.Json.member "req_id" j <> None);
               assert (Obs.Json.member "events" j <> None)
           | Error e -> failwith ("slow-log record unparsable: " ^ e)
         done
       with End_of_file -> close_in ic);
      Serve.Slow_log.close sl0;
      Sys.remove slow_path0;
      Common.Tel.add "obs.serve_hot_path"
        (Obs.Json.obj
           [
             ("grammar", Obs.Json.str serve_grammar);
             ("requests", Obs.Json.int n);
             ("baseline_s", Obs.Json.float t_base);
             ("disabled_s", Obs.Json.float t_off);
             ("armed_s", Obs.Json.float t_armed);
             ("disabled_overhead_pct", Obs.Json.float off_pct);
             ("armed_overhead_pct", Obs.Json.float armed_pct);
             ("slow_records_at_threshold0", Obs.Json.int n);
           ]);
      Fmt.pr
        "@.serve hot-path check (%s): disabled telemetry %+.2f%% vs \
         pre-telemetry baseline (bound: +2%%); armed capture %+.2f%% \
         (informational)@."
        serve_grammar off_pct armed_pct;
      if off_pct > 2.0 then begin
        Fmt.pr "  !! disabled serve telemetry exceeded the 2%% bound@.";
        exit 1
      end)

let run () =
  Common.section
    "Tracing overhead: null sink must be free, ring sink pays per event";
  Fmt.pr "%-10s %12s %12s %12s %10s %10s@." "grammar" "baseline" "disabled"
    "ring" "null ovh" "events";
  List.iter
    (fun (spec : Workload.spec) ->
      let cw = Common.compiled spec in
      let corpus = Common.corpus spec in
      let token_lists = List.map (Workload.lex_exn cw) corpus.Workload.texts in
      let env = Workload.env_of_spec spec in
      (* warm every lazy path once before timing *)
      List.iter
        (fun toks ->
          ignore (Runtime.Interp.recognize ~env cw.Workload.c toks))
        token_lists;
      let materialized = ref 0 in
      let off = Obs.Trace.make (fun _ _ -> incr materialized) in
      Obs.Trace.set_on off false;
      let t_base, t_off =
        abba
          (recognize_all cw env token_lists)
          (recognize_all cw env ~tracer:off token_lists)
      in
      let buf = Obs.Trace.Ring.create 4096 in
      let ring = Obs.Trace.ring buf in
      let _, t_ring =
        abba
          (recognize_all cw env token_lists)
          (recognize_all cw env ~tracer:ring token_lists)
      in
      let ovh_pct = 100.0 *. ((t_off /. t_base) -. 1.0) in
      (* the structural contract: flag off => not a single event reaches
         the sink, however hot the parse *)
      assert (!materialized = 0);
      Fmt.pr "%-10s %10.2fms %10.2fms %10.2fms %9.1f%% %10d@."
        spec.Workload.name (t_base *. 1e3) (t_off *. 1e3) (t_ring *. 1e3)
        ovh_pct
        (Obs.Trace.Ring.total buf);
      Common.Tel.add
        ("obs." ^ spec.Workload.name)
        (Obs.Json.obj
           [
             ("baseline_s", Obs.Json.float t_base);
             ("disabled_s", Obs.Json.float t_off);
             ("ring_s", Obs.Json.float t_ring);
             ("disabled_overhead_pct", Obs.Json.float ovh_pct);
             ("disabled_events", Obs.Json.int !materialized);
             ("ring_events", Obs.Json.int (Obs.Trace.Ring.total buf));
             ( "corpus_tokens",
               Obs.Json.int
                 (List.fold_left
                    (fun acc t -> acc + Array.length t)
                    0 token_lists) );
           ]))
    Bench_grammars.Specs.all;
  (* Acceptance bound on the null path, measured where the corpus is big
     enough for a stable quotient: the disabled-tracer configuration runs
     the byte-for-byte identical guard (`if Obs.Trace.on ...`) as the
     baseline, so anything beyond noise indicates an event being built
     outside its guard. *)
  let spec = Bench_grammars.Mini_java.spec in
  let cw = Common.compiled spec in
  let corpus = Common.corpus spec in
  let token_lists = List.map (Workload.lex_exn cw) corpus.Workload.texts in
  let env = Workload.env_of_spec spec in
  let off = Obs.Trace.make (fun _ _ -> ()) in
  Obs.Trace.set_on off false;
  let t_base, t_off =
    abba
      (recognize_all cw env token_lists)
      (recognize_all cw env ~tracer:off token_lists)
  in
  let pct = 100.0 *. ((t_off /. t_base) -. 1.0) in
  Fmt.pr "@.null-sink check (MiniJava): disabled tracer %+.2f%% vs baseline \
          (bound: +2%%)@."
    pct;
  if pct > 2.0 then begin
    Fmt.pr "  !! disabled-tracer overhead exceeded the 2%% bound@.";
    exit 1
  end;
  serve_hot_path ()
