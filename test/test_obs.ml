(* Observability layer: the JSON codec, the metrics registry, the trace
   sinks, and the tracing contract of the interpreter (spans balance, the
   null sink materializes nothing, the Chrome sink emits valid JSON). *)

open Helpers
module J = Obs.Json
module M = Obs.Metrics
module T = Obs.Trace

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_tests =
  [
    test "round-trips a nested document" (fun () ->
        let doc =
          J.obj
            [
              ("a", J.int 3);
              ("b", J.list [ J.str "x\"y"; J.bool true; J.Null ]);
              ("c", J.obj [ ("nested", J.float 1.5) ]);
            ]
        in
        match J.parse (J.to_string doc) with
        | Ok (J.Obj fields) ->
            check int "fields" 3 (List.length fields);
            check bool "a" true (List.assoc "a" fields = J.Int 3)
        | Ok _ -> Alcotest.fail "expected an object"
        | Error e -> Alcotest.failf "parse failed: %s" e);
    test "escapes control characters" (fun () ->
        let s = J.to_string (J.str "a\nb\tc\"d\\e\x01f") in
        check bool "valid" true (J.is_valid s));
    test "non-finite floats stay valid JSON" (fun () ->
        check bool "nan" true (J.is_valid (J.to_string (J.float Float.nan)));
        check bool "inf" true
          (J.is_valid (J.to_string (J.float Float.infinity))));
    test "rejects trailing garbage" (fun () ->
        check bool "garbage" false (J.is_valid "{\"a\":1} x");
        check bool "bare" false (J.is_valid "nope"));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let metrics_tests =
  [
    test "counters intern by (name, labels)" (fun () ->
        let r = M.create () in
        let c1 = M.counter r "hits" ~labels:[ ("d", "1") ] in
        let c2 = M.counter r "hits" ~labels:[ ("d", "1") ] in
        let c3 = M.counter r "hits" ~labels:[ ("d", "2") ] in
        M.incr c1;
        M.add c2 4;
        M.incr c3;
        check int "same cell" 5 (M.value c1);
        check int "distinct labels" 1 (M.value c3));
    test "label order does not split a metric" (fun () ->
        let r = M.create () in
        let a = M.counter r "x" ~labels:[ ("p", "1"); ("q", "2") ] in
        let b = M.counter r "x" ~labels:[ ("q", "2"); ("p", "1") ] in
        M.incr a;
        check int "one cell" 1 (M.value b));
    test "histogram aggregates" (fun () ->
        let r = M.create () in
        let h = M.histogram r "k" in
        List.iter (M.observe h) [ 1; 2; 3; 10 ];
        check int "count" 4 (M.h_count h);
        check int "sum" 16 (M.h_sum h);
        check int "max" 10 (M.h_max h);
        check (Alcotest.float 1e-9) "avg" 4.0 (M.h_avg h));
    test "reset zeroes in place, cells stay live" (fun () ->
        let r = M.create () in
        let c = M.counter r "n" in
        let h = M.histogram r "k" in
        M.incr c;
        M.observe h 5;
        M.reset r;
        check int "counter" 0 (M.value c);
        check int "histogram" 0 (M.h_count h);
        (* the interned references survive a reset *)
        M.incr c;
        M.observe h 2;
        check int "counter live" 1 (M.value c);
        check int "histogram live" 1 (M.h_count h));
    test "snapshot is valid JSON in registration order" (fun () ->
        let r = M.create () in
        M.incr (M.counter r "first");
        M.observe (M.histogram r "second") 3;
        let s = J.to_string (M.to_json r) in
        match J.parse s with
        | Ok (J.List [ m1; m2 ]) ->
            check bool "first" true (J.member "name" m1 = Some (J.str "first"));
            check bool "second" true
              (J.member "name" m2 = Some (J.str "second"))
        | Ok _ -> Alcotest.fail "expected a two-point list"
        | Error e -> Alcotest.failf "snapshot unparsable: %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let ev_i i = T.Backtrack { decision = i; depth = 1 }

let ring_tests =
  [
    test "keeps the newest entries on overflow" (fun () ->
        let b = T.Ring.create 3 in
        for i = 1 to 5 do
          T.Ring.push b 0.0 (ev_i i)
        done;
        check int "total counts everything" 5 (T.Ring.total b);
        check int "capacity" 3 (T.Ring.capacity b);
        let ids =
          List.map
            (function T.Backtrack { decision; _ } -> decision | _ -> -1)
            (T.Ring.events b)
        in
        check bool "oldest-first window" true (ids = [ 3; 4; 5 ]));
    test "clear empties the window" (fun () ->
        let b = T.Ring.create 4 in
        T.Ring.push b 0.0 (ev_i 1);
        T.Ring.clear b;
        check int "total" 0 (T.Ring.total b);
        check bool "empty" true (T.Ring.events b = []));
  ]

(* ------------------------------------------------------------------ *)
(* Tracing a real parse *)

(* Rule t backtracks (m=1 cannot bound the '-'* vs expr overlap); while its
   synpred speculates over rule s's first alternative, prediction of t's own
   decision re-enters speculation, so synpred spans nest. *)
let backtracking_grammar =
  "grammar N; options { backtrack=true; m=1; } s : t ID | t INT ; t : ('-')* \
   ID | expr ; expr : INT | '-' expr ;"

let traced_events input =
  let c = compile backtracking_grammar in
  let buf = T.Ring.create 65536 in
  let tracer = T.ring buf in
  (match Runtime.Interp.parse ~tracer c (lex c input) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "parse failed");
  T.Ring.events buf

let count p evs = List.length (List.filter p evs)

let synpred_max_depth evs =
  let d = ref 0 and dmax = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | T.Synpred_enter _ ->
          incr d;
          if !d > !dmax then dmax := !d
      | T.Synpred_exit _ -> decr d
      | _ -> ())
    evs;
  !dmax

let trace_tests =
  [
    test "spans balance across nested synpreds" (fun () ->
        let evs = traced_events "- - x x" in
        check bool "events captured" true (evs <> []);
        check bool "balanced" true (T.spans_balanced evs);
        check bool "synpreds nest" true (synpred_max_depth evs >= 2);
        check int "enter/exit pair up"
          (count (function T.Decision_enter _ -> true | _ -> false) evs)
          (count (function T.Decision_exit _ -> true | _ -> false) evs));
    test "speculation leaves backtrack and memo events" (fun () ->
        let evs = traced_events "- - x 3" in
        check bool "backtrack observed" true
          (count (function T.Backtrack _ -> true | _ -> false) evs > 0);
        check bool "memo misses while speculating" true
          (count (function T.Memo_miss _ -> true | _ -> false) evs > 0));
    test "synpred exits report reach and verdict" (fun () ->
        let evs = traced_events "- - x x" in
        let exits =
          List.filter_map
            (function T.Synpred_exit { ok; reach; _ } -> Some (ok, reach) | _ -> None)
            evs
        in
        check bool "some synpred ran" true (exits <> []);
        check bool "every reach non-negative" true
          (List.for_all (fun (_, reach) -> reach >= 0) exits);
        check bool "a synpred succeeded" true
          (List.exists (fun (ok, _) -> ok) exits));
    test "null sink materializes nothing" (fun () ->
        let c = compile backtracking_grammar in
        let toks = lex c "- - x x" in
        let materialized = ref 0 in
        let off = T.make (fun _ _ -> incr materialized) in
        T.set_on off false;
        (match Runtime.Interp.parse ~tracer:off c toks with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse failed");
        check int "no events reach a disabled sink" 0 !materialized;
        (* and the shared null tracer is off by construction *)
        check bool "Trace.null is off" false (T.on T.null));
    test "unbalanced sequences are rejected" (fun () ->
        let enter = T.Decision_enter { decision = 0; rule = "s"; pos = 0 } in
        let exit_ = T.Decision_exit { decision = 0; alt = 1; k = 1; pos = 1 } in
        let sp = T.Synpred_enter { rule = "t"; pos = 0 } in
        check bool "dangling enter" false (T.spans_balanced [ enter ]);
        check bool "interleaved" false
          (T.spans_balanced [ enter; sp; exit_ ]);
        check bool "balanced pair" true (T.spans_balanced [ enter; exit_ ]));
    test "lexer mode spans balance" (fun () ->
        let c = compile "grammar L; s : ID ;" in
        let buf = T.Ring.create 1024 in
        let tracer = T.ring buf in
        (match
           Runtime.Lexer_engine.tokenize ~tracer
             Runtime.Lexer_engine.default_config
             (Llstar.Compiled.sym c)
             "/* one */ x /* two */ y"
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "tokenize failed");
        let evs = T.Ring.events buf in
        check bool "modes traced" true
          (count (function T.Lexer_mode_enter _ -> true | _ -> false) evs >= 2);
        check bool "balanced" true (T.spans_balanced evs));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome sink *)

let chrome_tests =
  [
    test "emits a valid Perfetto-loadable array" (fun () ->
        let path = Filename.temp_file "antlrkit-test-trace" ".json" in
        let oc = open_out path in
        let tracer, close = T.chrome_sink oc in
        let c = compile backtracking_grammar in
        (match Runtime.Interp.parse ~tracer c (lex c "- - x x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse failed");
        close ();
        close_out oc;
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        Sys.remove path;
        match J.parse s with
        | Error e -> Alcotest.failf "trace unparsable: %s" e
        | Ok (J.List events) ->
            check bool "non-empty" true (events <> []);
            List.iter
              (fun ev ->
                let has k = J.member k ev <> None in
                check bool "name" true (has "name");
                check bool "ph" true (has "ph");
                check bool "ts" true (has "ts");
                check bool "pid" true (has "pid");
                check bool "args" true (has "args");
                (* instant events carry a scope *)
                match J.member "ph" ev with
                | Some (J.String "i") -> check bool "scope" true (has "s")
                | _ -> ())
              events
        | Ok _ -> Alcotest.fail "expected a JSON array");
    test "close is idempotent and ends the array" (fun () ->
        let path = Filename.temp_file "antlrkit-test-trace" ".json" in
        let oc = open_out path in
        let tracer, close = T.chrome_sink oc in
        T.emit tracer (ev_i 1);
        close ();
        close ();
        (* events after close are dropped, not appended past the ']' *)
        T.emit tracer (ev_i 2);
        close_out oc;
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        match J.parse s with
        | Ok (J.List [ _ ]) -> ()
        | Ok _ -> Alcotest.fail "expected exactly one event"
        | Error e -> Alcotest.failf "unparsable after close: %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Duration histograms: unit coverage of the log-linear layout, then the
   qcheck laws -- quantile estimates stay within the exact value's bucket,
   merge is associative/commutative with a fresh histogram as identity,
   and [to_json] is a function of the observed multiset alone. *)

module D = Obs.Duration

let duration_of (vs : int list) : D.t =
  let d = D.create () in
  List.iter (D.observe d) vs;
  d

let duration_json vs = J.to_string (D.to_json (duration_of vs))

(* Exact nearest-rank quantile: the ceil(q*n)-th smallest observation. *)
let exact_quantile (vs : int list) (q : float) : int =
  let sorted = List.sort compare vs in
  let n = List.length sorted in
  let rank =
    let r = int_of_float (ceil (q *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  List.nth sorted (rank - 1)

let duration_tests =
  [
    test "values below 128us are recorded exactly" (fun () ->
        for v = 0 to 127 do
          check int (Printf.sprintf "index %d" v) v (D.index_of v)
        done;
        let lo, hi = D.bounds_of 100 in
        check bool "unit-wide" true (lo = 100 && hi = 100));
    test "bounds invert index and bound relative width" (fun () ->
        (* every bucket: bounds round-trip through index_of, and width
           stays within 1/half of the lower bound (the ~1.6% design) *)
        for i = 0 to D.num_buckets - 2 do
          let lo, hi = D.bounds_of i in
          check int "lo maps back" i (D.index_of lo);
          check int "hi maps back" i (D.index_of hi);
          if i >= D.n_sub then
            check bool
              (Printf.sprintf "bucket %d narrow enough" i)
              true
              ((hi - lo + 1) * D.half <= lo + D.half)
        done;
        (* adjacent buckets tile the range with no gap or overlap *)
        for i = 0 to D.num_buckets - 3 do
          let _, hi = D.bounds_of i in
          let lo', _ = D.bounds_of (i + 1) in
          check int "contiguous" (hi + 1) lo'
        done);
    test "observe updates count, sum, min, max, avg" (fun () ->
        let d = duration_of [ 5; 100_000; 7; 3_000_000 ] in
        check int "count" 4 (D.count d);
        check int "sum" 3_100_012 (D.sum_us d);
        check int "min" 5 (D.min_us d);
        check int "max" 3_000_000 (D.max_us d);
        check (Alcotest.float 1e-6) "avg" 775_003.0 (D.avg_us d);
        check int "negative clamps to zero" 0
          (let d = duration_of [ -3 ] in
           D.max_us d));
    test "single-valued distribution reports that value exactly" (fun () ->
        let d = duration_of [ 123_456; 123_456; 123_456 ] in
        check int "p50" 123_456 (D.p50 d);
        check int "p99" 123_456 (D.p99 d);
        check int "p100 is max" 123_456 (D.quantile d 1.0));
    test "overflow values land in the unbounded bucket" (fun () ->
        let huge = 1 lsl 45 in
        let d = duration_of [ 10; huge ] in
        check int "count" 2 (D.count d);
        check int "max" huge (D.max_us d);
        (* the p100 estimate is clamped to the observed max *)
        check int "p100" huge (D.quantile d 1.0));
    test "reset zeroes in place" (fun () ->
        let d = duration_of [ 9; 99; 999 ] in
        D.reset d;
        check int "count" 0 (D.count d);
        check int "quantile of empty" 0 (D.p50 d);
        D.observe d 42;
        check int "live after reset" 42 (D.p50 d));
    test "to_json is valid and carries the quantile fields" (fun () ->
        let s = duration_json [ 10; 20; 30_000 ] in
        check bool "valid JSON" true (J.is_valid s);
        match J.parse s with
        | Error e -> Alcotest.failf "unparsable: %s" e
        | Ok j ->
            List.iter
              (fun k ->
                check bool k true (J.member k j <> None))
              [ "count"; "sum_us"; "min_us"; "max_us"; "p50_us"; "p90_us";
                "p99_us"; "buckets" ]);
  ]

(* Microsecond values spanning the exact range, several octaves, and the
   region near bucket edges: [x lsl e] with small [x] lands on and around
   lower bounds. *)
let arb_us =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      list_size (int_range 1 200)
        (map (fun (e, x) -> x lsl e) (pair (int_bound 16) (int_bound 2047))))

let duration_prop_tests =
  [
    qtest "quantile estimate stays in the exact value's bucket"
      (QCheck.pair arb_us (QCheck.int_bound 100))
      (fun (vs, qi) ->
        let q = float_of_int qi /. 100.0 in
        let est = D.quantile (duration_of vs) q in
        let lo, hi = D.bounds_of (D.index_of (exact_quantile vs q)) in
        lo <= est && est <= hi);
    qtest "merge is commutative"
      (QCheck.pair arb_us arb_us)
      (fun (a, b) ->
        let ab = duration_of a and ba = duration_of b in
        D.merge ~into:ab (duration_of b);
        D.merge ~into:ba (duration_of a);
        J.to_string (D.to_json ab) = J.to_string (D.to_json ba));
    qtest "merge is associative"
      (QCheck.triple arb_us arb_us arb_us)
      (fun (a, b, c) ->
        let left = duration_of a in
        D.merge ~into:left (duration_of b);
        D.merge ~into:left (duration_of c);
        let bc = duration_of b in
        D.merge ~into:bc (duration_of c);
        let right = duration_of a in
        D.merge ~into:right bc;
        J.to_string (D.to_json left) = J.to_string (D.to_json right));
    qtest "fresh histogram is a merge identity" arb_us (fun vs ->
        let d = duration_of vs in
        D.merge ~into:d (D.create ());
        let pre = J.to_string (D.to_json d) in
        let id = D.create () in
        D.merge ~into:id (duration_of vs);
        pre = duration_json vs && J.to_string (D.to_json id) = pre);
    qtest "to_json is deterministic in the observed multiset" arb_us
      (fun vs ->
        duration_json vs = duration_json vs
        && duration_json vs = duration_json (List.rev vs));
  ]

(* ------------------------------------------------------------------ *)
(* Registry merge laws, with all three metric kinds in play.  Registry
   snapshots are in registration order, which legitimately differs across
   merge orders, so the laws compare canonicalized (sorted) point sets. *)

let apply_op (r : M.t) ((which, li, v) : int * int * int) : unit =
  let labels = match li mod 3 with 0 -> [] | 1 -> [ ("k", "1") ] | _ -> [ ("k", "2") ] in
  match which mod 3 with
  | 0 -> M.add (M.counter r "c" ~labels) v
  | 1 -> M.observe (M.histogram r "h" ~labels) v
  | _ -> D.observe (M.duration r "d" ~labels) v

let registry_of ops : M.t =
  let r = M.create () in
  List.iter (apply_op r) ops;
  r

let canon_registry (r : M.t) : string =
  match M.to_json r with
  | J.List points ->
      let key p =
        J.to_string
          (J.obj
             [
               ("n", Option.value (J.member "name" p) ~default:J.Null);
               ("l", Option.value (J.member "labels" p) ~default:J.Null);
             ])
      in
      String.concat "\n"
        (List.map J.to_string
           (List.sort (fun a b -> compare (key a) (key b)) points))
  | j -> J.to_string j

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) l))
    QCheck.Gen.(
      list_size (int_range 0 40)
        (triple (int_bound 2) (int_bound 2) (int_bound 10_000)))

let metrics_merge_prop_tests =
  [
    qtest "registry merge is commutative (canonicalized)"
      (QCheck.pair arb_ops arb_ops)
      (fun (a, b) ->
        let ab = M.create () and ba = M.create () in
        M.merge ~into:ab (registry_of a);
        M.merge ~into:ab (registry_of b);
        M.merge ~into:ba (registry_of b);
        M.merge ~into:ba (registry_of a);
        canon_registry ab = canon_registry ba);
    qtest "registry merge is associative"
      (QCheck.triple arb_ops arb_ops arb_ops)
      (fun (a, b, c) ->
        let left = registry_of a in
        M.merge ~into:left (registry_of b);
        M.merge ~into:left (registry_of c);
        let bc = registry_of b in
        M.merge ~into:bc (registry_of c);
        let right = registry_of a in
        M.merge ~into:right bc;
        canon_registry left = canon_registry right);
    qtest "empty registry is a merge identity" arb_ops (fun ops ->
        let r = registry_of ops in
        M.merge ~into:r (M.create ());
        let id = M.create () in
        M.merge ~into:id (registry_of ops);
        canon_registry r = canon_registry (registry_of ops)
        && canon_registry id = canon_registry (registry_of ops));
    qtest "registry to_json is deterministic" arb_ops (fun ops ->
        J.to_string (M.to_json (registry_of ops))
        = J.to_string (M.to_json (registry_of ops)));
  ]

(* ------------------------------------------------------------------ *)
(* Monotonic trace clock: never runs backwards, and every sink that uses
   it (the default tracer clock, the ring, the Chrome sink) yields
   non-decreasing timestamps in emission order. *)

let assert_non_decreasing name (ts : float list) =
  check bool (name ^ " non-negative") true (List.for_all (fun t -> t >= 0.0) ts);
  let rec ordered = function
    | a :: (b :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  check bool (name ^ " non-decreasing") true (ordered ts)

let mono_tests =
  [
    test "monotonic_now never decreases" (fun () ->
        let prev = ref (T.monotonic_now ()) in
        check bool "non-negative" true (!prev >= 0.0);
        for _ = 1 to 10_000 do
          let t = T.monotonic_now () in
          check bool "ordered" true (t >= !prev);
          prev := t
        done);
    test "ring timestamps of a traced parse are ordered" (fun () ->
        let c = compile backtracking_grammar in
        let buf = T.Ring.create 65536 in
        (match Runtime.Interp.parse ~tracer:(T.ring buf) c (lex c "- - x x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse failed");
        let entries = T.Ring.to_list buf in
        check bool "events captured" true (entries <> []);
        assert_non_decreasing "ring ts"
          (List.map (fun e -> e.T.Ring.ts) entries));
    test "chrome trace timestamps are ordered" (fun () ->
        let path = Filename.temp_file "antlrkit-test-trace" ".json" in
        let oc = open_out path in
        let tracer, close = T.chrome_sink oc in
        let c = compile backtracking_grammar in
        (match Runtime.Interp.parse ~tracer c (lex c "- - x x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse failed");
        close ();
        close_out oc;
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        match J.parse s with
        | Error e -> Alcotest.failf "trace unparsable: %s" e
        | Ok (J.List events) ->
            assert_non_decreasing "chrome ts"
              (List.filter_map
                 (fun ev ->
                   match J.member "ts" ev with
                   | Some (J.Float f) -> Some f
                   | Some (J.Int i) -> Some (float_of_int i)
                   | _ -> None)
                 events)
        | Ok _ -> Alcotest.fail "expected a JSON array");
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus renderer *)

(* A scrape fixture with all three metric kinds, multiple series per
   family, and a label value that needs escaping. *)
let prom_registry () =
  let r = M.create () in
  M.add (M.counter r "serve.requests" ~labels:[ ("op", "parse"); ("ok", "true") ]) 3;
  M.add (M.counter r "serve.requests" ~labels:[ ("op", "parse"); ("ok", "false") ]) 1;
  M.observe (M.histogram r "serve.tokens" ~labels:[ ("grammar", "g\"x\\y") ]) 5;
  M.observe (M.histogram r "serve.tokens" ~labels:[ ("grammar", "g\"x\\y") ]) 700;
  let d = M.duration r "serve.request_us" ~labels:[ ("grammar", "tiny") ] in
  List.iter (D.observe d) [ 100; 200; 400 ];
  r

let prometheus_tests =
  [
    test "one HELP/TYPE per family, families in registration order" (fun () ->
        let out = Obs.Prometheus.render (prom_registry ()) in
        List.iter
          (fun fam ->
            check int (fam ^ " HELP once") 1
              (occurrences out (Printf.sprintf "# HELP %s " fam));
            check int (fam ^ " TYPE once") 1
              (occurrences out (Printf.sprintf "# TYPE %s " fam)))
          [
            "antlrkit_serve_requests";
            "antlrkit_serve_tokens";
            "antlrkit_serve_request_us";
          ];
        check bool "counter typed" true
          (contains out "# TYPE antlrkit_serve_requests counter");
        check bool "histogram typed" true
          (contains out "# TYPE antlrkit_serve_tokens histogram");
        check bool "duration becomes a summary" true
          (contains out "# TYPE antlrkit_serve_request_us summary"));
    test "series are unique and values parse" (fun () ->
        let out = Obs.Prometheus.render (prom_registry ()) in
        let series =
          List.filter_map
            (fun l ->
              if String.length l > 0 && l.[0] = '#' then None
              else
                match String.rindex_opt l ' ' with
                | None -> Alcotest.failf "unsplittable series line %S" l
                | Some i ->
                    let v = String.sub l (i + 1) (String.length l - i - 1) in
                    (match float_of_string_opt v with
                    | Some _ -> ()
                    | None -> Alcotest.failf "bad value in %S" l);
                    Some (String.sub l 0 i))
            (prom_lines out)
        in
        check int "no duplicate series"
          (List.length series)
          (List.length (List.sort_uniq compare series)));
    test "histogram buckets are cumulative and end at +Inf = count" (fun () ->
        let out = Obs.Prometheus.render (prom_registry ()) in
        let bucket_vals =
          List.filter_map
            (fun l ->
              if contains l "antlrkit_serve_tokens_bucket" then
                String.rindex_opt l ' '
                |> Option.map (fun i ->
                       int_of_string
                         (String.sub l (i + 1) (String.length l - i - 1)))
              else None)
            (prom_lines out)
        in
        check bool "buckets present" true (bucket_vals <> []);
        let rec cumulative = function
          | a :: (b :: _ as rest) -> a <= b && cumulative rest
          | _ -> true
        in
        check bool "cumulative" true (cumulative bucket_vals);
        check bool "+Inf bucket labelled" true (contains out "le=\"+Inf\"");
        check int "+Inf equals count" 2
          (List.nth bucket_vals (List.length bucket_vals - 1));
        check bool "count series" true
          (contains out "antlrkit_serve_tokens_count"));
    test "summary carries quantile labels and sum/count" (fun () ->
        let out = Obs.Prometheus.render (prom_registry ()) in
        List.iter
          (fun q ->
            check bool ("quantile " ^ q) true
              (contains out (Printf.sprintf "quantile=%S" q)))
          [ "0.5"; "0.9"; "0.99" ];
        check bool "sum" true (contains out "antlrkit_serve_request_us_sum");
        check bool "count" true
          (contains out "antlrkit_serve_request_us_count"));
    test "label values are escaped" (fun () ->
        let out = Obs.Prometheus.render (prom_registry ()) in
        check bool "escaped quote and backslash" true
          (contains out "g\\\"x\\\\y"));
    test "extras render first as gauges" (fun () ->
        let out =
          Obs.Prometheus.render
            ~extra:
              [
                ("antlrkit_up", "daemon liveness", 1.0);
                ("antlrkit_uptime_seconds", "daemon uptime", 12.5);
              ]
            (prom_registry ())
        in
        check bool "starts with up" true
          (String.length out > 20
          && String.sub out 0 20 = "# HELP antlrkit_up d");
        check bool "up gauge" true (contains out "# TYPE antlrkit_up gauge");
        check bool "integral value printed without exponent" true
          (contains out "antlrkit_up 1\n");
        check bool "fractional value survives" true
          (contains out "antlrkit_uptime_seconds 12.5"));
    test "render is deterministic" (fun () ->
        let r = prom_registry () in
        let a = Obs.Prometheus.render r and b = Obs.Prometheus.render r in
        check string "same bytes" a b;
        check string "fresh registry, same bytes" a
          (Obs.Prometheus.render (prom_registry ())));
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry documents *)

let telemetry_tests =
  [
    test "document carries schema, env and benches" (fun () ->
        let doc =
          Obs.Telemetry.document ~tool:"test" ~wall_s:1.0 ~user_s:0.5
            [ ("b1", J.obj [ ("x", J.int 1) ]) ]
        in
        let s = J.to_string doc in
        match J.parse s with
        | Error e -> Alcotest.failf "unparsable: %s" e
        | Ok d ->
            check bool "schema" true
              (J.member "schema" d = Some (J.str "antlrkit-telemetry/2"));
            check bool "tool" true (J.member "tool" d = Some (J.str "test"));
            check bool "env present" true (J.member "env" d <> None);
            check bool "bench present" true
              (match J.member "benches" d with
              | Some (J.Obj fields) -> List.mem_assoc "b1" fields
              | _ -> false));
  ]

let suite =
  [
    ("obs_json", json_tests);
    ("obs_metrics", metrics_tests);
    ("obs_duration", duration_tests);
    ("obs_duration_props", duration_prop_tests);
    ("obs_metrics_merge_props", metrics_merge_prop_tests);
    ("obs_ring", ring_tests);
    ("obs_trace", trace_tests);
    ("obs_mono", mono_tests);
    ("obs_chrome", chrome_tests);
    ("obs_prometheus", prometheus_tests);
    ("obs_telemetry", telemetry_tests);
  ]
