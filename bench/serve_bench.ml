(* Load bench for the serve daemon: an in-process server on a Unix socket,
   hammered by concurrent client threads over every bench grammar and both
   backends.  Latency is measured client-side per round trip (the number a
   caller of the service actually experiences, including JSON codec and
   socket hops), throughput as completed requests over wall clock with all
   clients saturated.

   The committed BENCH_serve.json baseline gates only the correctness
   booleans (every request answered, every response ok) -- latency and
   throughput are properties of the runner's core count and scheduler, so
   they are recorded for trend-watching, never gated (the BENCH_parallel
   precedent). *)

module Workload = Bench_grammars.Workload

let n_clients = 4

let requests_per_backend =
  match Sys.getenv_opt "ANTLRKIT_SERVE_REQUESTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 160)
  | None -> 160

(* Latencies arrive unsorted; percentile by nearest-rank on the sorted
   copy. *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

type leg = {
  l_backend : string;
  l_sent : int;
  l_answered : int;
  l_ok : int;
  l_tokens : int;
  l_wall_s : float;
  l_p50_us : float;
  l_p99_us : float;
  mutable l_server_p50_us : int; (* daemon-side, from the stats op *)
  mutable l_server_p99_us : int;
}

let drive_leg ~(sock : string) ~(grammar : string) ~(backend : string)
    ~(texts : string array) : leg =
  let per_client = max 1 (requests_per_backend / n_clients) in
  let sent = n_clients * per_client in
  let lats = Array.make sent 0.0 in
  let answered = Array.make n_clients 0 in
  let oks = Array.make n_clients 0 in
  let tokens = Array.make n_clients 0 in
  let worker ci =
    match
      Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock)
    with
    | Error msg -> failwith msg
    | Ok c ->
        for i = 0 to per_client - 1 do
          let text = texts.((ci + (i * n_clients)) mod Array.length texts) in
          let req =
            Obs.Json.obj
              [
                ("op", Obs.Json.str "parse");
                ("grammar", Obs.Json.str grammar);
                ("backend", Obs.Json.str backend);
                ("text", Obs.Json.str text);
              ]
          in
          let t0 = Unix.gettimeofday () in
          match Serve.Client.request c req with
          | Error _ -> ()
          | Ok resp ->
              lats.((ci * per_client) + i) <-
                (Unix.gettimeofday () -. t0) *. 1e6;
              answered.(ci) <- answered.(ci) + 1;
              (match Obs.Json.member "ok" resp with
              | Some (Obs.Json.Bool true) -> oks.(ci) <- oks.(ci) + 1
              | _ -> ());
              (match Obs.Json.member "tokens" resp with
              | Some (Obs.Json.Int n) -> tokens.(ci) <- tokens.(ci) + n
              | _ -> ())
        done;
        Serve.Client.close c
  in
  let t_start = Unix.gettimeofday () in
  let threads = List.init n_clients (fun ci -> Thread.create worker ci) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t_start in
  let sum a = Array.fold_left ( + ) 0 a in
  let sorted = Array.of_list (List.filter (fun l -> l > 0.0) (Array.to_list lats)) in
  Array.sort compare sorted;
  {
    l_backend = backend;
    l_sent = sent;
    l_answered = sum answered;
    l_ok = sum oks;
    l_tokens = sum tokens;
    l_wall_s = wall_s;
    l_p50_us = percentile sorted 50.0;
    l_p99_us = percentile sorted 99.0;
    l_server_p50_us = 0;
    l_server_p99_us = 0;
  }

(* Daemon-side latency quantiles for one (grammar, backend) leg, read the
   way an operator would: the stats op's telemetry/2 document carries a
   [serve.request_us] duration summary per label set.  Client-side and
   server-side percentiles bracket the protocol/socket overhead. *)
let server_quantiles ~(sock : string) ~(grammar : string)
    ~(backend : string) : (int * int) option =
  let ( let* ) = Option.bind in
  match Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock) with
  | Error _ -> None
  | Ok c ->
      let resp =
        Serve.Client.request c (Obs.Json.obj [ ("op", Obs.Json.str "stats") ])
      in
      Serve.Client.close c;
      let* resp = Result.to_option resp in
      let* stats = Obs.Json.member "stats" resp in
      let* benches = Obs.Json.member "benches" stats in
      let* serve = Obs.Json.member "serve" benches in
      let* points =
        match serve with Obs.Json.List pts -> Some pts | _ -> None
      in
      let* point =
        List.find_opt
          (fun p ->
            Obs.Json.member "name" p = Some (Obs.Json.str "serve.request_us")
            && match Obs.Json.member "labels" p with
               | Some ls ->
                   Obs.Json.member "op" ls = Some (Obs.Json.str "parse")
                   && Obs.Json.member "grammar" ls
                      = Some (Obs.Json.str grammar)
                   && Obs.Json.member "backend" ls
                      = Some (Obs.Json.str backend)
               | None -> false)
          points
      in
      let* metric = Obs.Json.member "metric" point in
      let* p50 =
        match Obs.Json.member "p50_us" metric with
        | Some (Obs.Json.Int n) -> Some n
        | _ -> None
      in
      let* p99 =
        match Obs.Json.member "p99_us" metric with
        | Some (Obs.Json.Int n) -> Some n
        | _ -> None
      in
      Some (p50, p99)

let leg_json (l : leg) : Obs.Json.t =
  Obs.Json.obj
    [
      ("requests", Obs.Json.int l.l_sent);
      ("answered", Obs.Json.int l.l_answered);
      ("ok", Obs.Json.int l.l_ok);
      ("tokens", Obs.Json.int l.l_tokens);
      ("p50_us", Obs.Json.float l.l_p50_us);
      ("p99_us", Obs.Json.float l.l_p99_us);
      ("server_p50_us", Obs.Json.int l.l_server_p50_us);
      ("server_p99_us", Obs.Json.int l.l_server_p99_us);
      ( "requests_per_s",
        Obs.Json.float (float_of_int l.l_answered /. l.l_wall_s) );
      ( "tokens_per_s",
        Obs.Json.float (float_of_int l.l_tokens /. l.l_wall_s) );
    ]

let run () =
  Common.hr ();
  let jobs = Exec.Pool.resolve_jobs 0 in
  Fmt.pr
    "serve: daemon under load -- %d clients, %d requests/backend, %s pool \
     (%d jobs)@."
    n_clients requests_per_backend Exec.Pool.backend jobs;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "antlrkit-serve-bench.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat dir "bench.sock" in
  let pool = Exec.Pool.create ~jobs in
  let registry = Serve.Registry.create () in
  (match Serve.Registry.load_builtins registry ~pool () with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let handler = Serve.Handler.create ~registry ~pool () in
  let server =
    Serve.Server.create ~handler ~addr:(Serve.Protocol.Unix_sock sock) ()
  in
  let server_thread = Thread.create Serve.Server.run server in
  Fmt.pr "%-11s %-9s | %9s %9s | %17s | %10s | answered/ok@." "grammar"
    "backend" "p50" "p99" "server p50/p99" "req/s";
  List.iter
    (fun (spec : Workload.spec) ->
      let corpus = Common.corpus spec in
      let texts = Array.of_list corpus.Workload.texts in
      let legs =
        List.map
          (fun backend ->
            let l =
              drive_leg ~sock ~grammar:spec.Workload.name ~backend ~texts
            in
            (match
               server_quantiles ~sock ~grammar:spec.Workload.name ~backend
             with
            | Some (p50, p99) ->
                l.l_server_p50_us <- p50;
                l.l_server_p99_us <- p99
            | None ->
                Fmt.pr "  *** no server-side quantiles for %s/%s ***@."
                  spec.Workload.name backend);
            Fmt.pr
              "%-11s %-9s | %7.0fus %7.0fus | srv %6dus %6dus | %10.0f | \
               %d/%d of %d@."
              spec.Workload.name backend l.l_p50_us l.l_p99_us
              l.l_server_p50_us l.l_server_p99_us
              (float_of_int l.l_answered /. l.l_wall_s)
              l.l_answered l.l_ok l.l_sent;
            l)
          [ "interp"; "generated" ]
      in
      let all_answered =
        List.for_all (fun l -> l.l_answered = l.l_sent) legs
      in
      let all_ok = List.for_all (fun l -> l.l_ok = l.l_sent) legs in
      if not (all_answered && all_ok) then
        Fmt.pr "  *** SERVE FAILURES: dropped or failed requests above ***@.";
      Common.Tel.add
        (Printf.sprintf "serve.%s" spec.Workload.name)
        (Obs.Json.obj
           ([
              ("pool", Obs.Json.str Exec.Pool.backend);
              ("jobs", Obs.Json.int jobs);
              ("clients", Obs.Json.int n_clients);
              ("all_answered", Obs.Json.bool all_answered);
              ("all_ok", Obs.Json.bool all_ok);
            ]
           @ List.map (fun l -> (l.l_backend, leg_json l)) legs)))
    Bench_grammars.Specs.all;
  (* Graceful shutdown is part of the bench contract: the daemon must
     drain and the server thread must join, or the telemetry lies about
     "all answered". *)
  (match Serve.Client.connect_retry (Serve.Protocol.Unix_sock sock) with
  | Ok c ->
      ignore
        (Serve.Client.request c (Obs.Json.obj [ ("op", Obs.Json.str "shutdown") ]));
      Serve.Client.close c
  | Error msg -> failwith msg);
  Thread.join server_thread;
  Exec.Pool.shutdown pool;
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()
