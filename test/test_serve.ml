(* Serve layer: protocol codec, handler round trips, budgets/limits, the
   cross-request state-reset contract (the reuse-twice regressions), and a
   full server lifecycle over a Unix socket with concurrent clients and a
   graceful drain.

   The memo-leak regression at the bottom is the distilled serve-layer
   bug: a [Runtime.Generated] memo table reused across requests lets one
   input's speculation outcomes decide another input's parse -- the
   naive-reuse step demonstrably flips the verdict, which is why every
   request gets fresh state. *)

open Helpers
module Json = Obs.Json

let tiny_src = "grammar tiny; s : A B | A C ;"

(* Pool + registry (ad-hoc "tiny" grammar and the MiniJava builtin with
   its generated backend) + handler, torn down with the pool. *)
let with_handler ?limits (f : Serve.Handler.t -> unit) : unit =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match Serve.Registry.load_builtin registry ~pool "MiniJava" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      f (Serve.Handler.create ?limits ~registry ~pool ()))

let req fields = Json.to_string (Json.obj fields)

let handle_ok h line : Json.t =
  let resp, action = Serve.Handler.handle h line in
  (match action with
  | `Continue -> ()
  | `Shutdown -> Alcotest.fail "unexpected shutdown action");
  match Json.parse resp with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad response JSON: %s" e

let get k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" k (Json.to_string j)

let get_ok j = match get "ok" j with Json.Bool b -> b | _ -> false

let error_code j =
  match Json.member "code" (get "error" j) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "no error code in %s" (Json.to_string j)

let parse_req ?(op = "parse") ?(backend = "interp") ?(grammar = "tiny")
    ?extra text =
  req
    ([
       ("op", Json.str op);
       ("grammar", Json.str grammar);
       ("backend", Json.str backend);
       ("text", Json.str text);
     ]
    @ Option.value extra ~default:[])

(* Responses are deterministic except for the measured wall clock. *)
let strip_wall = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "wall_us") fields)
  | j -> j

let protocol_tests =
  [
    test "request codec round trip" (fun () ->
        match
          Serve.Protocol.parse_request
            {|{"id":7,"op":"parse","grammar":"g","backend":"generated","text":"x","recover":true}|}
        with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check string "op" "parse" r.Serve.Protocol.op;
            check bool "backend" true
              (r.Serve.Protocol.backend = Serve.Protocol.Generated);
            check bool "recover" true r.Serve.Protocol.recover;
            check string "grammar" "g"
              (Option.get r.Serve.Protocol.grammar));
    test "malformed requests are rejected, not raised" (fun () ->
        let bad s =
          match Serve.Protocol.parse_request s with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %S" s
        in
        bad "not json";
        bad "[1,2]";
        bad {|{"grammar":"g"}|};
        bad {|{"op":"parse","backend":"llvm"}|});
    test "tcp address parsing" (fun () ->
        (match Serve.Protocol.tcp_of_string "127.0.0.1:4000" with
        | Ok (Serve.Protocol.Tcp ("127.0.0.1", 4000)) -> ()
        | _ -> Alcotest.fail "tcp parse");
        match Serve.Protocol.tcp_of_string "nocolon" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted bad tcp addr");
  ]

let handler_tests =
  [
    test "ping, list, unknown op" (fun () ->
        with_handler (fun h ->
            let pong = handle_ok h (req [ ("op", Json.str "ping") ]) in
            check bool "pong ok" true (get_ok pong);
            let listed = handle_ok h (req [ ("op", Json.str "list") ]) in
            (match get "grammars" listed with
            | Json.List gs -> check int "two grammars" 2 (List.length gs)
            | _ -> Alcotest.fail "grammars not a list");
            let unk = handle_ok h (req [ ("op", Json.str "frobnicate") ]) in
            check string "unknown op" "unknown_op" (error_code unk)));
    test "parse: accept, reject, both backends" (fun () ->
        with_handler (fun h ->
            let ok = handle_ok h (parse_req "A B") in
            check bool "accepts" true (get_ok ok);
            check bool "consumed" true (get "consumed" ok = Json.Int 2);
            let bad = handle_ok h (parse_req "A A") in
            check bool "rejects" false (get_ok bad);
            check string "code" "parse_error" (error_code bad);
            (match get "errors" bad with
            | Json.List [ e ] ->
                check bool "structured kind" true
                  (Json.member "kind" e <> None);
                check bool "token position" true
                  (Json.member "token" e <> None)
            | _ -> Alcotest.fail "expected one structured error");
            let gen =
              handle_ok h
                (parse_req ~grammar:"MiniJava" ~backend:"generated"
                   "class A { int x ; }")
            in
            check bool "generated accepts" true (get_ok gen);
            let nogen = handle_ok h (parse_req ~backend:"generated" "A B") in
            check string "no generated parser" "no_generated_parser"
              (error_code nogen)));
    test "parse: unknown grammar and lex error" (fun () ->
        with_handler (fun h ->
            let unk = handle_ok h (parse_req ~grammar:"nope" "A B") in
            check string "unknown grammar" "unknown_grammar" (error_code unk);
            let lex = handle_ok h (parse_req "A !") in
            check string "lex error" "lex_error" (error_code lex);
            check bool "position reported" true
              (Json.member "position" lex <> None)));
    test "budgets: token cap and oversized requests" (fun () ->
        let limits =
          { Serve.Handler.default_limits with Serve.Handler.max_tokens = 1 }
        in
        with_handler ~limits (fun h ->
            let capped = handle_ok h (parse_req "A B") in
            check string "token budget" "token_budget" (error_code capped));
        let limits =
          {
            Serve.Handler.default_limits with
            Serve.Handler.max_request_bytes = 64;
          }
        in
        with_handler ~limits (fun h ->
            let big = handle_ok h (parse_req (String.make 200 'A')) in
            check string "too large" "too_large" (error_code big)));
    test "recover collects errors; rejected on generated backend" (fun () ->
        with_handler (fun h ->
            let r =
              handle_ok h
                (parse_req ~extra:[ ("recover", Json.bool true) ] "A A")
            in
            check bool "still rejects" false (get_ok r);
            let gen =
              handle_ok h
                (parse_req ~backend:"generated" ~grammar:"MiniJava"
                   ~extra:[ ("recover", Json.bool true) ] "class")
            in
            check string "recover+generated refused" "bad_request"
              (error_code gen)));
    test "recover reports an offending token in FOLLOW once" (fun () ->
        with_handler (fun h ->
            let loaded =
              handle_ok h
                (req
                   [
                     ("op", Json.str "load");
                     ("grammar", Json.str "expr");
                     ( "text",
                       Json.str
                         "grammar expr; prog : e EOF ; e : e '+' e | INT ;" );
                   ])
            in
            check bool "load ok" true (get_ok loaded);
            let r =
              handle_ok h
                (parse_req ~grammar:"expr"
                   ~extra:[ ("recover", Json.bool true) ]
                   "1 + + 2")
            in
            check string "code" "parse_error" (error_code r);
            match get "errors" r with
            | Json.List errs -> check int "one error" 1 (List.length errs)
            | _ -> Alcotest.fail "errors not a list"));
    test "window outside [1, max_tokens] is a bad_request on both ops"
      (fun () ->
        let limits =
          { Serve.Handler.default_limits with Serve.Handler.max_tokens = 50 }
        in
        with_handler ~limits (fun h ->
            List.iter
              (fun op ->
                List.iter
                  (fun w ->
                    let r =
                      handle_ok h
                        (parse_req ~op ~extra:[ ("window", Json.int w) ] "A B")
                    in
                    check string
                      (Printf.sprintf "%s window %d" op w)
                      "bad_request" (error_code r))
                  [ 0; -1; 51; 1 lsl 40; max_int ];
                List.iter
                  (fun w ->
                    let r =
                      handle_ok h
                        (parse_req ~op ~extra:[ ("window", Json.int w) ] "A B")
                    in
                    check bool (Printf.sprintf "%s window %d parses" op w) true
                      (get_ok r))
                  [ 1; 50 ])
              [ "parse"; "parse_stream" ]));
    test "parse_stream is an alias: recover and window answer alike"
      (fun () ->
        with_handler (fun h ->
            let answer ?(window = [ ("window", Json.int 1) ]) op grammar
                text =
              let extra = ("recover", Json.bool true) :: window in
              match
                strip_wall (handle_ok h (parse_req ~op ~grammar ~extra text))
              with
              | Json.Obj fields ->
                  Json.to_string
                    (Json.Obj (List.filter (fun (k, _) -> k <> "op") fields))
              | j -> Json.to_string j
            in
            List.iter
              (fun (grammar, text) ->
                let at_1 = answer "parse" grammar text in
                check string
                  (Printf.sprintf "alias: %s %S" grammar text)
                  at_1
                  (answer "parse_stream" grammar text);
                check string
                  (Printf.sprintf "window 1 = default: %s %S" grammar text)
                  at_1
                  (answer ~window:[] "parse" grammar text))
              [
                ("tiny", "A B");
                ("tiny", "A A");
                ("tiny", "A A B C A");
                ("MiniJava", "class A { int x ; }");
                ("MiniJava", "class A { int x ; int ; } class");
              ];
            let r =
              handle_ok h
                (parse_req ~op:"parse_stream"
                   ~extra:[ ("recover", Json.bool true) ]
                   "A A")
            in
            check string "recover works on parse_stream" "parse_error"
              (error_code r);
            match get "errors" r with
            | Json.List (_ :: _) -> ()
            | _ -> Alcotest.fail "expected recovered errors"));
    test "load and evict round trip" (fun () ->
        with_handler (fun h ->
            let loaded =
              handle_ok h
                (req
                   [
                     ("op", Json.str "load");
                     ("grammar", Json.str "two");
                     ("text", Json.str "grammar two; s : X Y ;");
                   ])
            in
            check bool "load ok" true (get_ok loaded);
            let ok = handle_ok h (parse_req ~grammar:"two" "X Y") in
            check bool "parses via loaded grammar" true (get_ok ok);
            let ev =
              handle_ok h
                (req [ ("op", Json.str "evict"); ("grammar", Json.str "two") ])
            in
            check bool "evicted" true (get "evicted" ev = Json.Bool true);
            let gone = handle_ok h (parse_req ~grammar:"two" "X Y") in
            check string "gone after evict" "unknown_grammar"
              (error_code gone)));
    test "stats is an antlrkit-telemetry/2 document" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            let stats = get "stats" (handle_ok h (req [ ("op", Json.str "stats") ])) in
            check bool "schema" true
              (get "schema" stats = Json.String "antlrkit-telemetry/2");
            check bool "tool" true
              (get "tool" stats = Json.String "antlrkit-serve");
            match get "benches" stats with
            | Json.Obj benches ->
                check bool "serve metrics present" true
                  (List.mem_assoc "serve" benches)
            | _ -> Alcotest.fail "benches not an object"));
    test "shutdown op requests shutdown" (fun () ->
        with_handler (fun h ->
            let resp, action = Serve.Handler.handle h (req [ ("op", Json.str "shutdown") ]) in
            (match Json.parse resp with
            | Ok j -> check bool "ok" true (get_ok j)
            | Error e -> Alcotest.fail e);
            check bool "shutdown action" true (action = `Shutdown)));
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry surface: the metrics/health/ready ops, latency summaries in
   the stats doc, and the tail-sampled slow-request log. *)

(* A Prometheus text-format scrape: each family's declared type, and
   every series as "name{labels}" and its value.  The value follows the
   last space; no timestamps are rendered. *)
let prom_scrape (body : string) :
    (string * string) list * (string * float) list =
  List.fold_right
    (fun l (types, series) ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; fam; ty ] -> ((fam, ty) :: types, series)
      | "#" :: _ -> (types, series)
      | _ -> (
          let i = String.rindex l ' ' in
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          match float_of_string_opt v with
          | Some f -> (types, (String.sub l 0 i, f) :: series)
          | None -> Alcotest.failf "bad value in %S" l))
    (prom_lines body) ([], [])

(* The family a series name belongs to: itself if declared, else the
   name without its histogram/summary suffix. *)
let prom_family types name =
  List.find_opt
    (fun f -> List.mem_assoc f types)
    (name
    :: List.filter_map
         (fun suf ->
           if Filename.check_suffix name suf then
             Some (Filename.chop_suffix name suf)
           else None)
         [ "_bucket"; "_sum"; "_count" ])

(* The metric name of a series key: the text before its labels. *)
let prom_name key =
  match String.index_opt key '{' with
  | Some i -> String.sub key 0 i
  | None -> key

(* Series whose value never decreases while the daemon lives: counters,
   histogram buckets and counts, summary counts. *)
let prom_monotone types key =
  let name = prom_name key in
  let ends suf = Filename.check_suffix name suf in
  match Option.map (fun f -> List.assoc f types) (prom_family types name) with
  | Some "counter" -> true
  | Some "histogram" -> ends "_bucket" || ends "_count"
  | Some "summary" -> ends "_count"
  | _ -> false

let metrics_body h =
  match get "body" (handle_ok h (req [ ("op", Json.str "metrics") ])) with
  | Json.String body -> body
  | _ -> Alcotest.fail "metrics body not a string"

(* One served scrape's shape: one HELP and one TYPE per family, every
   series in a declared family, no duplicate series. *)
let check_scrape_shape label body =
  let types, series = prom_scrape body in
  check bool (label ^ ": has series") true (series <> []);
  List.iter
    (fun (fam, _) ->
      check int
        (Printf.sprintf "%s: %s HELP once" label fam)
        1
        (occurrences body (Printf.sprintf "# HELP %s " fam));
      check int
        (Printf.sprintf "%s: %s TYPE once" label fam)
        1
        (occurrences body (Printf.sprintf "# TYPE %s " fam)))
    types;
  List.iter
    (fun (key, _) ->
      if prom_family types (prom_name key) = None then
        Alcotest.failf "%s: series %s has no # TYPE" label key)
    series;
  let keys = List.map fst series in
  check int (label ^ ": no duplicate series") (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (types, series)

let telemetry_op_tests =
  [
    test "metrics op serves Prometheus text after a parse" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            ignore (handle_ok h (parse_req "A A"));
            let resp = handle_ok h (req [ ("op", Json.str "metrics") ]) in
            check bool "ok" true (get_ok resp);
            check bool "content type" true
              (get "content_type" resp
              = Json.String "text/plain; version=0.0.4; charset=utf-8");
            match get "body" resp with
            | Json.String body ->
                check bool "request counter exported" true
                  (contains body "antlrkit_serve_requests");
                check bool "latency summary exported" true
                  (contains body "antlrkit_serve_request_us");
                check bool "HELP lines present" true (contains body "# HELP ");
                check bool "up gauge" true (contains body "antlrkit_up 1");
                check bool "grammar label" true
                  (contains body "grammar=\"tiny\"")
            | _ -> Alcotest.fail "metrics body not a string"));
    test "health and ready answer" (fun () ->
        with_handler (fun h ->
            let hr = handle_ok h (req [ ("op", Json.str "health") ]) in
            check bool "healthy" true (get "healthy" hr = Json.Bool true);
            check bool "uptime present" true
              (Json.member "uptime_s" hr <> None);
            let rr = handle_ok h (req [ ("op", Json.str "ready") ]) in
            check bool "ready" true (get "ready" rr = Json.Bool true);
            check bool "grammar count" true (get "grammars" rr = Json.Int 2);
            check bool "pending gauge" true
              (match get "pool_pending" rr with Json.Int n -> n >= 0 | _ -> false)));
    test "stats carries latency summaries and pool backlog" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            let stats =
              get "stats" (handle_ok h (req [ ("op", Json.str "stats") ]))
            in
            let benches =
              match Json.member "benches" stats with
              | Some b -> b
              | None -> Alcotest.fail "no benches"
            in
            (match Json.member "pool" benches with
            | Some (Json.Obj fields) ->
                check bool "pending" true (List.mem_assoc "pending" fields)
            | _ -> Alcotest.fail "pool not an object");
            let serve_points =
              match Json.member "serve" benches with
              | Some (Json.List pts) -> pts
              | _ -> Alcotest.fail "serve metrics not a list"
            in
            let durations =
              List.filter
                (fun p ->
                  match Json.member "metric" p with
                  | Some v -> (
                      match Json.member "type" v with
                      | Some (Json.String "duration") -> true
                      | _ -> false)
                  | None -> false)
                serve_points
            in
            check bool "request/queue/parse summaries" true
              (List.length durations >= 3);
            List.iter
              (fun p ->
                let v = get "metric" p in
                check bool "p50 present" true (Json.member "p50_us" v <> None);
                check bool "p99 present" true (Json.member "p99_us" v <> None))
              durations));
    test "two metrics scrapes: well-formed, counters never decrease"
      (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            ignore
              (handle_ok h
                 (parse_req ~backend:"generated" ~grammar:"MiniJava"
                    "package p; class A { int x; }"));
            let types1, series1 =
              check_scrape_shape "scrape 1" (metrics_body h)
            in
            ignore (handle_ok h (parse_req "A C"));
            ignore (handle_ok h (parse_req "A A"));
            let _, series2 = check_scrape_shape "scrape 2" (metrics_body h) in
            let monotone =
              List.filter (fun (k, _) -> prom_monotone types1 k) series1
            in
            check bool "monotone series exist" true (monotone <> []);
            List.iter
              (fun (key, v1) ->
                match List.assoc_opt key series2 with
                | None -> Alcotest.failf "series %s vanished from scrape 2" key
                | Some v2 ->
                    if v2 < v1 then
                      Alcotest.failf "%s went backwards (%g -> %g)" key v1 v2)
              monotone));
  ]

(* Handler with an armed slow log writing to a temp file. *)
let with_slow_handler ?max_records ~threshold_us
    (f : Serve.Handler.t -> string -> unit) : unit =
  let path = Filename.temp_file "antlrkit-test-slow" ".jsonl" in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let sl = Serve.Slow_log.create ?max_records ~threshold_us path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Slow_log.close sl;
          Sys.remove path)
        (fun () ->
          f (Serve.Handler.create ~registry ~pool ~slow_log:sl ()) path))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let slow_line path i =
  match List.nth_opt (read_lines path) i with
  | Some l -> (
      match Json.parse l with
      | Ok j -> j
      | Error e -> Alcotest.failf "slow-log line unparsable: %s" e)
  | None -> Alcotest.failf "slow log has no line %d" i

let slow_log_tests =
  [
    test "threshold 0 retains every request with id and events" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            let rec_0 = slow_line path 0 in
            (match get "req_id" rec_0 with
            | Json.String s ->
                check bool "generated id" true
                  (String.length s > 2 && String.sub s 0 2 = "r-")
            | _ -> Alcotest.fail "req_id not a string");
            check bool "op" true (get "op" rec_0 = Json.String "parse");
            check bool "grammar" true (get "grammar" rec_0 = Json.String "tiny");
            check bool "ok" true (get "ok" rec_0 = Json.Bool true);
            (match get "events" rec_0 with
            | Json.List evs -> check bool "trace captured" true (evs <> [])
            | _ -> Alcotest.fail "events not a list");
            List.iter
              (fun k ->
                check bool k true
                  (match get k rec_0 with Json.Int n -> n >= 0 | _ -> false))
              [ "wall_us"; "queue_us"; "parse_us"; "events_dropped" ]));
    test "client-supplied id is the correlation id" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore
              (handle_ok h
                 (parse_req ~extra:[ ("id", Json.str "probe-42") ] "A B"));
            let r = slow_line path 0 in
            check bool "client id retained" true
              (get "req_id" r = Json.String "probe-42");
            check int "one record" 1 (Serve.Handler.slow_log h |> Option.get |> Serve.Slow_log.written)));
    test "huge threshold keeps only failing requests" (fun () ->
        with_slow_handler ~threshold_us:max_int (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            check int "fast success not retained" 0
              (List.length (read_lines path));
            ignore (handle_ok h (parse_req "A A"));
            let r = slow_line path 0 in
            check bool "failure retained" true (get "ok" r = Json.Bool false);
            check int "only the failure" 1 (List.length (read_lines path))));
    test "record cap converts writes into drops" (fun () ->
        with_slow_handler ~max_records:2 ~threshold_us:0 (fun h path ->
            for _ = 1 to 4 do
              ignore (handle_ok h (parse_req "A B"))
            done;
            let sl = Option.get (Serve.Handler.slow_log h) in
            check int "written capped" 2 (Serve.Slow_log.written sl);
            check int "rest dropped" 2 (Serve.Slow_log.dropped sl);
            check int "file matches" 2 (List.length (read_lines path))));
    test "timestamps within a record never decrease" (fun () ->
        with_slow_handler ~threshold_us:0 (fun h path ->
            ignore (handle_ok h (parse_req "A B"));
            match get "events" (slow_line path 0) with
            | Json.List evs ->
                let ts =
                  List.map
                    (fun e ->
                      match get "ts_us" e with
                      | Json.Int n -> n
                      | _ -> Alcotest.fail "ts_us not an int")
                    evs
                in
                let rec ordered = function
                  | a :: (b :: _ as rest) -> a <= b && ordered rest
                  | _ -> true
                in
                check bool "ordered" true (ordered ts);
                check bool "non-negative" true (List.for_all (fun t -> t >= 0) ts)
            | _ -> Alcotest.fail "events not a list"));
  ]

(* ------------------------------------------------------------------ *)
(* The HTTP metrics listener, end to end over a real socket. *)

let http_request ?(meth = "GET") ~(port : int) (path : string) : string =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let lines =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path
      in
      ignore (Unix.write fd (Bytes.of_string lines) 0 (String.length lines));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let metrics_http_tests =
  [
    test "GET /metrics, /health, /ready over a real socket" (fun () ->
        with_handler (fun h ->
            ignore (handle_ok h (parse_req "A B"));
            match Serve.Metrics_http.start ~port:0 h with
            | Error e -> Alcotest.fail e
            | Ok listener ->
                Fun.protect
                  ~finally:(fun () -> Serve.Metrics_http.stop listener)
                  (fun () ->
                    let port = Serve.Metrics_http.port listener in
                    check bool "kernel-assigned port" true (port > 0);
                    let m = http_request ~port "/metrics" in
                    check bool "200" true (contains m "HTTP/1.1 200 OK");
                    check bool "prometheus content type" true
                      (contains m "text/plain; version=0.0.4");
                    check bool "series served" true
                      (contains m "antlrkit_serve_requests");
                    let hl = http_request ~port "/health" in
                    check bool "health 200" true (contains hl "200 OK");
                    check bool "health body" true (contains hl "ok");
                    let rd = http_request ~port "/ready" in
                    check bool "ready 200" true (contains rd "200 OK");
                    check bool "query string ignored" true
                      (contains (http_request ~port "/metrics?x=1") "200 OK");
                    check bool "404 for unknown path" true
                      (contains (http_request ~port "/nope") "404 Not Found");
                    check bool "405 for POST" true
                      (contains
                         (http_request ~meth:"POST" ~port "/metrics")
                         "405 Method Not Allowed"))));
    test "stop joins the listener and is idempotent" (fun () ->
        with_handler (fun h ->
            match Serve.Metrics_http.start ~port:0 h with
            | Error e -> Alcotest.fail e
            | Ok listener ->
                let port = Serve.Metrics_http.port listener in
                check bool "live before stop" true
                  (contains (http_request ~port "/health") "200 OK");
                Serve.Metrics_http.stop listener;
                Serve.Metrics_http.stop listener;
                check bool "connection refused after stop" true
                  (match http_request ~port "/health" with
                  | _ -> false
                  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)));
  ]

(* The state-reset contract, observed through the public request path:
   repeating any request must give a byte-identical response (modulo the
   measured wall clock), regardless of what was parsed in between.  On a
   handler that leaked Token_stream positions or Generated memo entries
   across requests, the interleaved inputs would perturb the repeats. *)
let reuse_tests =
  [
    test "reuse-twice: identical responses across interleaved requests"
      (fun () ->
        with_handler (fun h ->
            let requests =
              [
                parse_req "A B";
                parse_req "A A";
                parse_req ~grammar:"MiniJava" ~backend:"generated"
                  "class A { int x ; }";
                parse_req ~grammar:"MiniJava" ~backend:"generated"
                  "class A { int ; }";
                parse_req ~grammar:"MiniJava" "class A { }";
              ]
            in
            let round () =
              List.map
                (fun r -> Json.to_string (strip_wall (handle_ok h r)))
                requests
            in
            let first = round () in
            (* interleave unrelated work, then repeat *)
            ignore (handle_ok h (parse_req "A C"));
            ignore
              (handle_ok h
                 (parse_req ~grammar:"MiniJava" ~backend:"generated"
                    "class B { boolean f ( ) { return x ; } }"));
            let second = round () in
            let third = round () in
            List.iteri
              (fun i (a, b) ->
                check string (Printf.sprintf "repeat %d stable" i) a b)
              (List.combine first second);
            List.iteri
              (fun i (a, b) ->
                check string (Printf.sprintf "third repeat %d stable" i) a b)
              (List.combine first third)));
  ]

(* ------------------------------------------------------------------ *)
(* The distilled cross-request bug: a generated-parser memo table reused
   across inputs.  Hand-built "generated-style" parser for

     s : (x)=> A B | C D ;     synpred x : A ;

   using the same Runtime.Generated primitives emitted code uses. *)

module Rt = Runtime.Generated
module Ts = Runtime.Token_stream

let tA = 3
let tB = 4
let tC = 5
let tD = 6

let mk_toks (types : int list) : Runtime.Token.t array =
  Array.of_list
    (List.mapi
       (fun i ttype ->
         { Runtime.Token.ttype; text = "t"; line = 1; col = i; index = i })
       types)

let expect (st : Rt.st) (ty : int) : unit =
  if Ts.la st.Rt.ts 1 = ty then ignore (Ts.consume st.Rt.ts)
  else Rt.mismatched st ~expected:ty ~rule:1

(* synpred body, memoized exactly like emitted synpred rules *)
let x_spec (st : Rt.st) : unit =
  Rt.memoized st ~rule:2 ~prec:0 (fun () -> expect st tA)

let s_entry (st : Rt.st) : unit =
  if Rt.syn_gate st (fun () -> x_spec st) then begin
    expect st tA;
    expect st tB
  end
  else begin
    expect st tC;
    expect st tD
  end

let generated_reset_tests =
  [
    test "memo leak: naive state reuse flips the verdict; fresh state fixes it"
      (fun () ->
        let fresh toks =
          Rt.run_st (Rt.make ~memoize:true (Ts.of_array toks)) ~start_rule:1
            s_entry
        in
        (* both inputs are in the language when parsed with fresh state *)
        check bool "fresh accepts A B" true (fresh (mk_toks [ tA; tB ])).Rt.ok;
        check bool "fresh accepts C D" true (fresh (mk_toks [ tC; tD ])).Rt.ok;
        let st = Rt.make ~memoize:true (Ts.of_array (mk_toks [ tA; tB ])) in
        check bool "first request accepts" true
          (Rt.run_st st ~start_rule:1 s_entry).Rt.ok;
        (* Naive reuse (the pre-fix serve bug): new tokens, same memo.  The
           stale Succeeded entry for (rule x, pos 0) makes the synpred
           "succeed" without looking at the input, steering the decision
           into alt 1, which then rejects C D. *)
        let stale =
          Rt.run_st
            { st with Rt.ts = Ts.of_array (mk_toks [ tC; tD ]) }
            ~start_rule:1 s_entry
        in
        check bool "stale memo flips accept to reject" false stale.Rt.ok);
  ]

(* ------------------------------------------------------------------ *)
(* Full server lifecycle: concurrent clients over a Unix socket, then a
   graceful shutdown that drains every in-flight request. *)

let with_server (f : string -> unit) : unit =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "antlrkit-test-serve-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "t.sock" in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let registry = Serve.Registry.create () in
      (match
         Serve.Registry.load_source registry ~pool ~name:"tiny" tiny_src
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let handler = Serve.Handler.create ~registry ~pool () in
      let server =
        Serve.Server.create ~handler
          ~addr:(Serve.Protocol.Unix_sock sock) ()
      in
      let th = Thread.create Serve.Server.run server in
      Fun.protect
        ~finally:(fun () ->
          Serve.Server.stop server;
          Thread.join th;
          if Sys.file_exists sock then Sys.remove sock;
          Sys.rmdir dir)
        (fun () -> f sock))

let server_tests =
  [
    test "concurrent clients, graceful drain, socket cleanup" (fun () ->
        let drained = ref false in
        with_server (fun sock ->
            let per_client = 25 in
            let ok_counts = Array.make 3 0 in
            let client ci =
              match
                Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock)
              with
              | Error e -> Alcotest.fail e
              | Ok c ->
                  for i = 1 to per_client do
                    let text = if i mod 3 = 0 then "A A" else "A B" in
                    let want_ok = i mod 3 <> 0 in
                    match
                      Serve.Client.request c
                        (Json.obj
                           [
                             ("id", Json.int ((ci * 1000) + i));
                             ("op", Json.str "parse");
                             ("grammar", Json.str "tiny");
                             ("text", Json.str text);
                           ])
                    with
                    | Error e -> Alcotest.fail e
                    | Ok resp ->
                        check bool "id echoed" true
                          (get "id" resp = Json.Int ((ci * 1000) + i));
                        if get_ok resp = want_ok then
                          ok_counts.(ci) <- ok_counts.(ci) + 1
                  done;
                  Serve.Client.close c
            in
            let threads = List.init 3 (fun ci -> Thread.create client ci) in
            List.iter Thread.join threads;
            Array.iteri
              (fun ci n ->
                check int (Printf.sprintf "client %d all verdicts" ci)
                  per_client n)
              ok_counts;
            (* graceful shutdown via the protocol *)
            (match
               Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock)
             with
            | Error e -> Alcotest.fail e
            | Ok c ->
                (match
                   Serve.Client.request c
                     (Json.obj [ ("op", Json.str "shutdown") ])
                 with
                | Ok resp -> check bool "shutdown acked" true (get_ok resp)
                | Error e -> Alcotest.fail e);
                Serve.Client.close c);
            drained := true);
        check bool "server thread joined" true !drained);
  ]

let suite =
  [
    ("serve_protocol", protocol_tests);
    ("serve_handler", handler_tests);
    ("serve_telemetry_ops", telemetry_op_tests);
    ("serve_slow_log", slow_log_tests);
    ("serve_metrics_http", metrics_http_tests);
    ("serve_reuse", reuse_tests);
    ("serve_generated_reset", generated_reset_tests);
    ("serve_server", server_tests);
  ]
