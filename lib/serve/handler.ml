(* Request handler for the serve daemon: a pure [request line -> response
   line] function over a registry, a pool and shared metrics.  The server
   wraps it in socket plumbing; the tests call it directly.

   State-reset contract (see DESIGN.md, Serve layer): every parse request
   gets freshly created runtime state -- a new [Token_stream], a new
   interpreter (or generated-parser state, and with it an empty
   speculation memo table), and a new [Profile].  Nothing mutable
   outlives a request except the shared [Metrics] registry, which is
   only touched under [m_lock].  The registry's entries (grammar, ATN,
   DFAs, vocabulary) are read-only while the daemon is hot, matching the
   Exec.Pool sharing discipline. *)

type limits = {
  max_request_bytes : int; (* request line length, and text payload size *)
  max_tokens : int; (* lexed-token budget per parse request *)
  time_budget_s : float;
      (* post-hoc wall-clock guard, fuzz-oracle style: the parse is not
         interrupted, but a request that overran reports [time_budget]
         instead of its result, so a client-facing SLA violation is
         visible as a structured error rather than silent latency *)
}

let default_limits =
  { max_request_bytes = 8 * 1024 * 1024; max_tokens = 500_000;
    time_budget_s = 30.0 }

type t = {
  registry : Registry.t;
  pool : Exec.Pool.t;
  limits : limits;
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t; (* shared across requests; guard with m_lock *)
  m_lock : Mutex.t;
  started : float;
  slow_log : Slow_log.t option;
      (* tail-sampled flight recorder; [None] disables per-request trace
         capture entirely (the hot-path default) *)
  req_seq : int Atomic.t; (* generated correlation ids: r-1, r-2, ... *)
}

let create ?(limits = default_limits) ?(tracer = Obs.Trace.null) ?slow_log
    ~(registry : Registry.t) ~(pool : Exec.Pool.t) () : t =
  {
    registry;
    pool;
    limits;
    tracer;
    metrics = Obs.Metrics.create ();
    m_lock = Mutex.create ();
    started = Unix.gettimeofday ();
    slow_log;
    req_seq = Atomic.make 0;
  }

let metrics t = t.metrics
let slow_log t = t.slow_log

(* Correlation id: the client's "id" when it is a usable string/int,
   otherwise a daemon-unique sequence id.  Computed once per request and
   threaded into trace events and the slow-request log. *)
let req_id_of h (req : Protocol.request) : string =
  match Protocol.client_req_id req with
  | Some id -> id
  | None -> Printf.sprintf "r-%d" (Atomic.fetch_and_add h.req_seq 1 + 1)

let mono_us () : int =
  int_of_float (Obs.Trace.monotonic_now () *. 1e6)

(* ------------------------------------------------------------------ *)
(* Parse *)

type parse_result = {
  ok : bool;
  errors : Runtime.Parse_error.t list;
  consumed : int;
}

type parse_verdict =
  [ `Lex_error of Runtime.Lexer_engine.error
  | `Token_budget of int
  | `No_generated
  | `Done of parse_result * Runtime.Profile.t * int (* lexed tokens *) ]

(* What the pool hands back: the verdict plus the parse-vs-total latency
   breakdown.  [queue_us] is measured from submit to the instant a worker
   entered the closure; [parse_us] is the closure's own wall time (lex +
   parse).  Request wall minus the two is protocol/dispatch overhead. *)
type parse_work = { verdict : parse_verdict; queue_us : int; parse_us : int }

let result_of_outcome (o : Runtime.Generated.outcome) : parse_result =
  {
    ok = o.Runtime.Generated.ok;
    errors = Option.to_list o.Runtime.Generated.error;
    consumed = o.Runtime.Generated.consumed;
  }

(* The closure submitted to the pool: the request text feeds the chunked
   scanner, the scanner feeds a bounded token window, and the parser pulls
   as it goes -- O(window) live tokens however large the payload.  Lexing
   and parsing both count against the request's budget and both run off
   the connection thread.  The token budget is enforced incrementally: the
   pull aborts the parse the moment production crosses [max_tokens].  The
   scanner is drained afterwards, so a lex error or a budget overrun
   anywhere in the input wins over the parse verdict, with the same total
   count, exactly as lexing everything up front would report it.

   [tracer] is the per-request capture ring (or [null]); it sees lexer
   mode events from the scanner and decision/speculation/memo events from
   the interpreter.  Generated parsers have no tracer hook, so their
   captures carry lexer events only. *)
let parse_work h (entry : Registry.entry) ~(backend : Protocol.backend)
    ~(start : string option) ~(recover : bool) ~(window : int)
    ~(tracer : Obs.Trace.t) ~(submitted_us : int) (text : string) () :
    parse_work =
  let t_start = mono_us () in
  let queue_us = max 0 (t_start - submitted_us) in
  let finish verdict = { verdict; queue_us; parse_us = mono_us () - t_start } in
  let sym = Llstar.Compiled.sym entry.c in
  let ls =
    Runtime.Lexer_engine.stream ~tracer entry.lexer_config sym
      (Runtime.Lexer_engine.reader_of_string text)
  in
  let exception Over_budget in
  let pull =
    let inner = Runtime.Lexer_engine.pull ls in
    fun () ->
      if Runtime.Lexer_engine.produced ls > h.limits.max_tokens then
        raise Over_budget;
      inner ()
  in
  (* A text never lexes to more tokens than it has bytes, so a window of
     that size already never slides; the cap keeps small requests from
     allocating (and the major GC from scanning) the whole default window
     each time. *)
  let window = min window (String.length text) in
  let ts = Runtime.Token_stream.of_pull ~window pull in
  let profile = Runtime.Profile.create () in
  let run =
    match backend with
    | Protocol.Interp when recover ->
        (* Recovery collects every error; the tree is discarded, only
           acceptance and the error list travel back. *)
        Some
          (fun () ->
            let tr =
              Runtime.Interp.create ~env:entry.env ~profile ~tracer
                ~recover:true entry.c ts
            in
            let errors =
              match Runtime.Interp.run tr ?start () with
              | Ok _ -> []
              | Error es -> es
            in
            (* recovery consumes to EOF by design: [consumed] becomes the
               total once the scanner is drained *)
            { ok = errors = []; errors; consumed = 0 })
    | Protocol.Interp ->
        Some
          (fun () ->
            result_of_outcome
              (Runtime.Generated.interp_outcome_stream ~env:entry.env
                 ~profile ~tracer ?start entry.c ts))
    | Protocol.Generated -> (
        match entry.generated with
        | None -> None
        | Some (module P) ->
            Some
              (fun () ->
                result_of_outcome
                  (P.outcome_stream ~env:entry.env ~profile ts)))
  in
  match run with
  | None -> finish `No_generated
  | Some run -> (
      match run () with
      | exception Runtime.Lexer_engine.Lex_error le -> finish (`Lex_error le)
      | exception Over_budget -> (
          match Runtime.Lexer_engine.drain ls with
          | Error le -> finish (`Lex_error le)
          | Ok _ -> finish (`Token_budget (Runtime.Lexer_engine.produced ls)))
      | r -> (
          match Runtime.Lexer_engine.drain ls with
          | Error le -> finish (`Lex_error le)
          | Ok _ ->
              let n = Runtime.Lexer_engine.produced ls in
              if n > h.limits.max_tokens then finish (`Token_budget n)
              else begin
                Runtime.Profile.observe_parse_us profile
                  (mono_us () - t_start);
                let r = if recover then { r with consumed = n } else r in
                finish (`Done (r, profile, n))
              end))

(* Record a finished parse request into the shared registry and tracer.
   [tokens = 0] for requests that died before lexing finished.

   Latency goes to three [Duration] summaries (log-linear buckets,
   quantile estimates -- the telemetry/2 fields and the Prometheus
   summary series):

   - [serve.request_us]{op,grammar,backend}: end-to-end request wall;
   - [serve.queue_us]{grammar,backend}: waiting for a pool worker;
   - [serve.parse_us]{grammar,backend}: inside the parse closure
     (lex + parse), so request - queue - parse = dispatch overhead. *)
let record h ~(req_id : string) ~(op : string) ~(grammar : string)
    ~(backend : Protocol.backend) ~(ok : bool) ~(tokens : int)
    ~(wall_us : int) ~(queue_us : int) ~(parse_us : int)
    ~(profile : Runtime.Profile.t option) : unit =
  let backend_l = ("backend", Protocol.backend_name backend) in
  let grammar_l = ("grammar", grammar) in
  Mutex.lock h.m_lock;
  Obs.Metrics.incr
    (Obs.Metrics.counter h.metrics
       ~labels:[ ("op", op); grammar_l; backend_l; ("ok", string_of_bool ok) ]
       "serve.requests");
  Obs.Duration.observe
    (Obs.Metrics.duration h.metrics
       ~labels:[ ("op", op); grammar_l; backend_l ]
       "serve.request_us")
    wall_us;
  Obs.Duration.observe
    (Obs.Metrics.duration h.metrics
       ~labels:[ grammar_l; backend_l ]
       "serve.queue_us")
    queue_us;
  Obs.Duration.observe
    (Obs.Metrics.duration h.metrics
       ~labels:[ grammar_l; backend_l ]
       "serve.parse_us")
    parse_us;
  Obs.Metrics.observe
    (Obs.Metrics.histogram h.metrics ~labels:[ grammar_l ] "serve.tokens")
    tokens;
  (match profile with
  | Some p -> Obs.Metrics.merge ~into:h.metrics (Runtime.Profile.registry p)
  | None -> ());
  Mutex.unlock h.m_lock;
  if Obs.Trace.on h.tracer then
    Obs.Trace.emit h.tracer
      (Obs.Trace.Serve_request
         {
           req_id;
           op;
           grammar;
           backend = Protocol.backend_name backend;
           ok;
           tokens;
           wall_us;
           queue_us;
         })

(* Request plumbing and response assembly for parse (and its wire alias
   parse_stream, which answers byte-identically modulo the echoed op
   name): validation is the caller's job. *)
let respond_parse h (req : Protocol.request) ~(entry : Registry.entry)
    ~(gname : string) ~(text : string) ~(window : int) : Obs.Json.t =
  let op = req.Protocol.op in
  let id = req.Protocol.id in
  let fail ?(extra = []) code message =
    Protocol.error_response ~id ~code ~message ~extra ()
  in
  let req_id = req_id_of h req in
  let backend = req.Protocol.backend in
  (* Per-request capture ring: only materialized when the slow
     log is armed, so the disabled path stays allocation-free. *)
  let cap =
    match h.slow_log with
    | Some sl -> Some (Obs.Trace.Ring.create (Slow_log.max_events sl))
    | None -> None
  in
  let rtr =
    match cap with
    | Some buf -> Obs.Trace.ring buf
    | None -> Obs.Trace.null
  in
  let t0 = Obs.Trace.monotonic_now () in
  let submitted_us = int_of_float (t0 *. 1e6) in
  let { verdict; queue_us; parse_us } =
    Exec.Pool.await
      (Exec.Pool.submit h.pool
         (parse_work h entry ~backend ~start:req.Protocol.start
            ~recover:req.Protocol.recover ~window ~tracer:rtr ~submitted_us
            text))
  in
  let finish ~(ok : bool) ~(tokens : int)
      ~(profile : Runtime.Profile.t option) : int * float
      (* wall_us, wall_s *) =
    let wall = Obs.Trace.monotonic_now () -. t0 in
    let wall_us = int_of_float (wall *. 1e6) in
    record h ~req_id ~op ~grammar:gname ~backend ~ok ~tokens ~wall_us
      ~queue_us ~parse_us ~profile;
    (match (h.slow_log, cap) with
    | Some sl, Some buf when Slow_log.should_retain sl ~wall_us ~ok ->
        Slow_log.record sl ~req_id ~op ~grammar:gname
          ~backend:(Protocol.backend_name backend)
          ~ok ~wall_us ~queue_us ~parse_us buf
    | _ -> ());
    (wall_us, wall)
  in
  match verdict with
            | `Lex_error le ->
                let _ = finish ~ok:false ~tokens:0 ~profile:None in
                fail "lex_error"
                  (Fmt.str "%a" Runtime.Lexer_engine.pp_error le)
                  ~extra:
                    [
                      ( "position",
                        Obs.Json.obj
                          [
                            ("line", Obs.Json.int le.Runtime.Lexer_engine.line);
                            ("col", Obs.Json.int le.Runtime.Lexer_engine.col);
                          ] );
                    ]
            | `Token_budget n ->
                let _ = finish ~ok:false ~tokens:n ~profile:None in
                fail "token_budget"
                  (Printf.sprintf "input lexed to %d tokens; limit is %d" n
                     h.limits.max_tokens)
            | `No_generated ->
                fail "no_generated_parser"
                  (Printf.sprintf "grammar %S has no generated parser; use \
                                   backend=interp" gname)
            | `Done (r, profile, tokens) ->
                let wall = Obs.Trace.monotonic_now () -. t0 in
                let over_budget = wall > h.limits.time_budget_s in
                let wall_us, _ =
                  finish ~ok:(r.ok && not over_budget) ~tokens
                    ~profile:(Some profile)
                in
                let base =
                  [
                    ("grammar", Obs.Json.str gname);
                    ( "backend",
                      Obs.Json.str (Protocol.backend_name req.Protocol.backend)
                    );
                    ("tokens", Obs.Json.int tokens);
                    ("wall_us", Obs.Json.int wall_us);
                  ]
                in
                if over_budget then
                  (* Post-hoc guard: the result is withheld, the overrun
                     is the answer (fuzz-oracle time_cap discipline). *)
                  fail "time_budget"
                    (Printf.sprintf
                       "request took %.3fs; budget is %.3fs" wall
                       h.limits.time_budget_s)
                    ~extra:base
                else if r.ok then
                  Protocol.ok_response ~id ~op
                    (base @ [ ("consumed", Obs.Json.int r.consumed) ])
                else
                  let sym = Llstar.Compiled.sym entry.Registry.c in
                  let message =
                    match r.errors with
                    | e :: _ -> Runtime.Parse_error.to_string sym e
                    | [] -> "parse failed"
                  in
                  fail "parse_error" message
                    ~extra:
                      (base
                      @ [
                          ("consumed", Obs.Json.int r.consumed);
                          ( "errors",
                            Obs.Json.list
                              (List.map
                                 (Runtime.Parse_error.to_json sym)
                                 r.errors) );
                        ])

(* Validation for parse and parse_stream: a loaded grammar, a bounded
   text payload, recovery only where it exists, and a client-supplied
   window no larger than the token budget -- a window beyond it is never
   needed, and an unbounded one would reach [Array.make] inside the pool
   job and take the connection thread down with it. *)
let do_parse h (req : Protocol.request) : Obs.Json.t =
  let id = req.Protocol.id in
  let fail code message = Protocol.error_response ~id ~code ~message () in
  match (req.Protocol.grammar, req.Protocol.text) with
  | None, _ -> fail "bad_request" (req.Protocol.op ^ " requires \"grammar\"")
  | _, None -> fail "bad_request" (req.Protocol.op ^ " requires \"text\"")
  | Some gname, Some text -> (
      match Registry.find h.registry gname with
      | None ->
          fail "unknown_grammar"
            (Printf.sprintf
               "grammar %S is not loaded (op=list shows what is; op=load \
                adds one)"
               gname)
      | Some entry -> (
          let max_tokens = h.limits.max_tokens in
          if String.length text > h.limits.max_request_bytes then
            fail "too_large"
              (Printf.sprintf "text is %d bytes; limit is %d"
                 (String.length text) h.limits.max_request_bytes)
          else if
            req.Protocol.backend = Protocol.Generated && req.Protocol.recover
          then
            fail "bad_request"
              "error recovery is only supported on the interp backend"
          else
            match req.Protocol.window with
            | Some w when w < 1 || w > max_tokens ->
                fail "bad_request"
                  (Printf.sprintf "\"window\" must be in [1, %d]" max_tokens)
            | window ->
                respond_parse h req ~entry ~gname ~text
                  ~window:
                    (Option.value window
                       ~default:Runtime.Token_stream.default_window)))

(* ------------------------------------------------------------------ *)
(* Registry ops *)

let entry_json (e : Registry.entry) : Obs.Json.t =
  Obs.Json.obj
    [
      ("name", Obs.Json.str e.Registry.name);
      ("digest", Obs.Json.str e.Registry.digest);
      ("generated", Obs.Json.bool (Option.is_some e.Registry.generated));
      ( "cache",
        match e.Registry.cache with
        | Some Llstar.Compiled_cache.Hit -> Obs.Json.str "hit"
        | Some Llstar.Compiled_cache.Miss -> Obs.Json.str "miss"
        | None -> Obs.Json.Null );
    ]

let do_load h (req : Protocol.request) : Obs.Json.t =
  let id = req.Protocol.id in
  match req.Protocol.grammar with
  | None ->
      Protocol.error_response ~id ~code:"bad_request"
        ~message:"load requires \"grammar\"" ()
  | Some name -> (
      let loaded =
        match req.Protocol.text with
        | Some src when String.length src > h.limits.max_request_bytes ->
            Error
              (Printf.sprintf "grammar text is %d bytes; limit is %d"
                 (String.length src) h.limits.max_request_bytes)
        | Some src ->
            Registry.load_source h.registry ~tracer:h.tracer ~pool:h.pool
              ~name src
        | None ->
            Registry.load_builtin h.registry ~tracer:h.tracer ~pool:h.pool
              name
      in
      match loaded with
      | Ok e ->
          Protocol.ok_response ~id ~op:"load" [ ("grammar", entry_json e) ]
      | Error msg ->
          Protocol.error_response ~id ~code:"compile_error" ~message:msg ())

(* ------------------------------------------------------------------ *)
(* Stats: the same antlrkit-telemetry/2 document shape the benches emit,
   so the same tooling (jq recipes) reads daemon stats and bench
   telemetry.  The serve metrics list now carries [Duration] summaries
   (p50/p90/p99/max fields) for request/queue/parse latency. *)

let stats_doc h : Obs.Json.t =
  let wall_s = Unix.gettimeofday () -. h.started in
  Mutex.lock h.m_lock;
  let metrics_json = Obs.Metrics.to_json h.metrics in
  Mutex.unlock h.m_lock;
  Obs.Telemetry.document ~tool:"antlrkit-serve" ~wall_s
    ~user_s:(Obs.Telemetry.user_time ())
    [
      ("serve", metrics_json);
      ( "registry",
        Obs.Json.list (List.map entry_json (Registry.list h.registry)) );
      ( "pool",
        Obs.Json.obj
          [
            ("backend", Obs.Json.str Exec.Pool.backend);
            ("jobs", Obs.Json.int (Exec.Pool.jobs h.pool));
            ("pending", Obs.Json.int (Exec.Pool.pending h.pool));
          ] );
      ( "slow_log",
        match h.slow_log with
        | None -> Obs.Json.Null
        | Some sl ->
            Obs.Json.obj
              [
                ("threshold_us", Obs.Json.int (Slow_log.threshold_us sl));
                ("written", Obs.Json.int (Slow_log.written sl));
                ("dropped", Obs.Json.int (Slow_log.dropped sl));
              ] );
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: the whole registry rendered as text-format
   v0.0.4 plus a few point-in-time gauges that live outside it.  Served
   by both the [metrics] protocol op and the [Metrics_http] listener. *)

let prometheus h : string =
  let uptime = Unix.gettimeofday () -. h.started in
  let extra =
    [
      ("antlrkit_up", "daemon liveness (always 1 while answering)", 1.0);
      ("antlrkit_uptime_seconds", "seconds since daemon start", uptime);
      ( "antlrkit_pool_pending_jobs",
        "parse jobs queued but not yet started",
        float_of_int (Exec.Pool.pending h.pool) );
      ( "antlrkit_grammars_loaded",
        "grammars resident in the registry",
        float_of_int (List.length (Registry.list h.registry)) );
    ]
    @
    match h.slow_log with
    | None -> []
    | Some sl ->
        [
          ( "antlrkit_slow_log_records",
            "slow-request records written",
            float_of_int (Slow_log.written sl) );
          ( "antlrkit_slow_log_dropped",
            "slow-request records dropped at the cap",
            float_of_int (Slow_log.dropped sl) );
        ]
  in
  Mutex.lock h.m_lock;
  let body = Obs.Prometheus.render ~extra h.metrics in
  Mutex.unlock h.m_lock;
  body

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let bump_op h (op : string) : unit =
  Mutex.lock h.m_lock;
  Obs.Metrics.incr
    (Obs.Metrics.counter h.metrics ~labels:[ ("op", op) ] "serve.ops");
  Mutex.unlock h.m_lock

(* Orchestration probes.  [health] is pure liveness: answering at all is
   the signal.  [ready] additionally reports what the daemon can serve
   (grammar count, pool backlog) -- a scheduler that wants "loaded and
   not drowning" reads those fields. *)
let health_doc h : (string * Obs.Json.t) list =
  [
    ("healthy", Obs.Json.bool true);
    ( "uptime_s",
      Obs.Json.float (Unix.gettimeofday () -. h.started) );
  ]

let ready_doc h : (string * Obs.Json.t) list =
  [
    ("ready", Obs.Json.bool true);
    ("grammars", Obs.Json.int (List.length (Registry.list h.registry)));
    ("pool_jobs", Obs.Json.int (Exec.Pool.jobs h.pool));
    ("pool_pending", Obs.Json.int (Exec.Pool.pending h.pool));
  ]

let dispatch h (req : Protocol.request) :
    Obs.Json.t * [ `Continue | `Shutdown ] =
  let id = req.Protocol.id in
  match req.Protocol.op with
  | "ping" ->
      (Protocol.ok_response ~id ~op:"ping" [ ("pong", Obs.Json.bool true) ],
       `Continue)
  | "parse" | "parse_stream" -> (do_parse h req, `Continue)
  | "load" -> (do_load h req, `Continue)
  | "evict" ->
      ( (match req.Protocol.grammar with
        | None ->
            Protocol.error_response ~id ~code:"bad_request"
              ~message:"evict requires \"grammar\"" ()
        | Some name ->
            Protocol.ok_response ~id ~op:"evict"
              [
                ("grammar", Obs.Json.str name);
                ("evicted", Obs.Json.bool (Registry.evict h.registry name));
              ]),
        `Continue )
  | "list" ->
      ( Protocol.ok_response ~id ~op:"list"
          [
            ( "grammars",
              Obs.Json.list
                (List.map entry_json (Registry.list h.registry)) );
          ],
        `Continue )
  | "stats" ->
      (Protocol.ok_response ~id ~op:"stats" [ ("stats", stats_doc h) ],
       `Continue)
  | "metrics" ->
      ( Protocol.ok_response ~id ~op:"metrics"
          [
            ( "content_type",
              Obs.Json.str "text/plain; version=0.0.4; charset=utf-8" );
            ("body", Obs.Json.str (prometheus h));
          ],
        `Continue )
  | "health" ->
      (Protocol.ok_response ~id ~op:"health" (health_doc h), `Continue)
  | "ready" -> (Protocol.ok_response ~id ~op:"ready" (ready_doc h), `Continue)
  | "shutdown" ->
      ( Protocol.ok_response ~id ~op:"shutdown"
          [ ("stopping", Obs.Json.bool true) ],
        `Shutdown )
  | op ->
      ( Protocol.error_response ~id ~code:"unknown_op"
          ~message:
            (Printf.sprintf
               "unknown op %S \
                (ping|parse|parse_stream|load|evict|list|stats|metrics|health|ready|shutdown)"
               op)
          (),
        `Continue )

(* Ops that may appear as an [op] label value.  Unknown ops are answered
   but never labeled: label values are interned forever (a counter plus a
   multi-KB duration histogram per distinct value), so client-controlled
   garbage must not mint metric series. *)
let known_ops =
  [
    "ping"; "parse"; "parse_stream"; "load"; "evict"; "list"; "stats";
    "metrics"; "health"; "ready"; "shutdown";
  ]

(* Every known op is counted and timed; parse additionally records its
   richer per-grammar/per-backend point inside [do_parse], so only
   non-parse ops land in the op-labeled latency summary here (otherwise
   parse requests would be double-observed). *)
let handle_request h (req : Protocol.request) :
    Obs.Json.t * [ `Continue | `Shutdown ] =
  let known = List.mem req.Protocol.op known_ops in
  if known then bump_op h req.Protocol.op;
  let t0 = mono_us () in
  let resp, action = dispatch h req in
  (if
     known && req.Protocol.op <> "parse" && req.Protocol.op <> "parse_stream"
   then begin
     let wall_us = max 0 (mono_us () - t0) in
     Mutex.lock h.m_lock;
     Obs.Duration.observe
       (Obs.Metrics.duration h.metrics
          ~labels:[ ("op", req.Protocol.op) ]
          "serve.request_us")
       wall_us;
     Mutex.unlock h.m_lock
   end);
  (resp, action)

(* Request line in, response line out (no trailing newline).  Malformed
   input never raises: the connection gets a structured error and stays
   usable. *)
let handle h (line : string) : string * [ `Continue | `Shutdown ] =
  if String.length line > h.limits.max_request_bytes then
    ( Obs.Json.to_string
        (Protocol.error_response ~id:Obs.Json.Null ~code:"too_large"
           ~message:
             (Printf.sprintf "request line exceeds %d bytes"
                h.limits.max_request_bytes)
           ()),
      `Continue )
  else
    match Protocol.parse_request line with
    | Error msg ->
        ( Obs.Json.to_string
            (Protocol.error_response ~id:Obs.Json.Null ~code:"bad_request"
               ~message:msg ()),
          `Continue )
    | Ok req ->
        let resp, action = handle_request h req in
        (Obs.Json.to_string resp, action)
