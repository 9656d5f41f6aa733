(* The serve daemon under load: an in-process [Serve.Server] on a Unix
   socket, driven by at most two client threads, each with its own
   connection.

   Traffic is a seeded mix of request templates (parse and parse_stream,
   both backends), [load] requests of small client grammars under a few
   rotating names followed by parses against them, and optionally a
   periodic [stats] scrape.  Two phases:

   - closed loop: both clients send their next request as soon as the
     previous one is answered; completed requests per second stands in
     for capacity;
   - open loop: each client sends on a fixed schedule, and a request's
     latency is timed from when it was due, so a stall also counts
     against the requests queued behind it.

   Responses are kept as raw lines and checked after the run against the
   in-process [Serve.Handler.handle] answer for the same line, modulo
   [id] and [wall_us]. *)

module Json = Obs.Json
open Inputs

type backend = [ `Interp | `Generated ]

let backend_name = function `Interp -> "interp" | `Generated -> "generated"

type kind =
  | Parse of backend (* parse or parse_stream on a loaded grammar *)
  | Load of string * int (* name, client grammar index *)
  | Client_parse of string * int * int (* name, grammar, input *)
  | Stats

(* A request without its id: the JSON fields, pre-serialized. *)
type template = { kind : kind; fields : string; expected : string option }

let fields_of (j : Json.t) : string =
  let s = Json.to_string j in
  String.sub s 1 (String.length s - 2)

let line_of ~(id : int) (fields : string) : string =
  Printf.sprintf "{\"id\":%d,%s}" id fields

(* A response with the fields that legitimately differ between two
   answers to the same line removed. *)
let normalize (resp : string) : string option =
  match Json.parse resp with
  | Ok (Json.Obj fields) ->
      Some
        (Json.to_string
           (Json.Obj
              (List.filter (fun (k, _) -> k <> "id" && k <> "wall_us") fields)))
  | Ok _ | Error _ -> None

let parse_template ~op ~(grammar : string) ~(backend : backend) (text : string)
    : Json.t =
  Json.obj
    [
      ("op", Json.str op);
      ("grammar", Json.str grammar);
      ("backend", Json.str (backend_name backend));
      ("text", Json.str text);
    ]

(* ------------------------------------------------------------------ *)
(* Daemon *)

type daemon = {
  server : Serve.Server.t;
  thread : Thread.t;
  pool : Exec.Pool.t;
  addr : Serve.Protocol.addr;
}

(* One job: parse work runs on the connection threads through
   [Exec.Pool]'s inline path.  With two worker domains next to the main
   domain on a 2-vCPU shared virtual machine, CPU per request spread by a
   quarter of its median across seeds (one job: about an eighth), and the
   wall-clock serve figures by 25% to 3x. *)
let pool_jobs = 1

let entry_of_target (t : target) : Serve.Registry.entry =
  {
    Serve.Registry.name = t.name;
    c = t.c;
    digest = Llstar.Compiled_cache.payload_digest t.c;
    lexer_config = t.config;
    env = t.env;
    generated = t.gen;
    cache = None;
  }

let registry_of (entries : Serve.Registry.entry list) : Serve.Registry.t =
  let r = Serve.Registry.create () in
  List.iter (Serve.Registry.insert r) entries;
  r

(* Boot ends when the daemon has answered its first request. *)
let boot ~(sock : string) (entries : Serve.Registry.entry list) : daemon =
  let pool = Exec.Pool.create ~jobs:pool_jobs in
  let handler = Serve.Handler.create ~registry:(registry_of entries) ~pool () in
  let addr = Serve.Protocol.Unix_sock sock in
  let server = Serve.Server.create ~handler ~addr () in
  let thread = Thread.create Serve.Server.run server in
  (match Serve.Client.connect_retry ~delay_s:0.001 ~attempts:5000 addr with
  | Error msg -> failwith msg
  | Ok c ->
      (match Serve.Client.request_line c (line_of ~id:0 "\"op\":\"ping\"") with
      | Ok _ -> ()
      | Error msg -> failwith ("serve: " ^ msg));
      Serve.Client.close c);
  { server; thread; pool; addr }

let shutdown (d : daemon) : unit =
  (match Serve.Client.connect_retry d.addr with
  | Ok c ->
      ignore (Serve.Client.request_line c (line_of ~id:0 "\"op\":\"shutdown\""));
      Serve.Client.close c
  | Error _ -> Serve.Server.stop d.server);
  Thread.join d.thread;
  Exec.Pool.shutdown d.pool

let stats_doc (d : daemon) : Json.t option =
  match Serve.Client.connect_retry d.addr with
  | Error _ -> None
  | Ok c ->
      let r = Serve.Client.request c (Json.obj [ ("op", Json.str "stats") ]) in
      Serve.Client.close c;
      Option.bind (Result.to_option r) (Json.member "stats")

(* ------------------------------------------------------------------ *)
(* Traffic *)

type mix = {
  templates : template array; (* parse and parse_stream, expected precomputed *)
  clients : client_grammar array;
  load_every : int; (* one load per this many requests *)
  stats_every : int; (* 0: no stats scrapes *)
}

type sample = {
  s_kind : kind;
  s_id : int;
  s_fields : string; (* the request line is [line_of ~id:s_id s_fields] *)
  s_expected : string option;
  s_due : float;
  s_sent : float;
  s_recv : float;
  s_resp : string option;
}

(* Per-client request chooser: a load every [load_every] requests, two
   parses against the freshly loaded name after it, [stats] every
   [stats_every], templates otherwise.  Each client owns its names, so
   no request depends on another client's loads. *)
type chooser = {
  client : int;
  rng : Random.State.t;
  mutable n : int;
  mutable loads : int;
  mutable pending : (string * int) option * int;
}

let chooser ~(seed : int) ~(client : int) =
  { client; rng = Random.State.make [| seed; client; 7919 |]; n = 0; loads = 0;
    pending = (None, 0) }

let next (mix : mix) (ch : chooser) : kind * string * string option =
  ch.n <- ch.n + 1;
  match ch.pending with
  | Some (name, g), k when k > 0 ->
      ch.pending <- (Some (name, g), k - 1);
      let cg = mix.clients.(g) in
      let i = Random.State.int ch.rng (Array.length cg.inputs) in
      ( Client_parse (name, g, i),
        fields_of
          (parse_template ~op:"parse" ~grammar:name ~backend:`Interp cg.inputs.(i)),
        None )
  | _ ->
      if ch.n mod mix.load_every = 0 then begin
        let g = ch.loads mod Array.length mix.clients in
        let name = Printf.sprintf "c%d-%d" ch.client (ch.loads mod 2) in
        ch.loads <- ch.loads + 1;
        ch.pending <- (Some (name, g), 2);
        ( Load (name, g),
          fields_of
            (Json.obj
               [
                 ("op", Json.str "load");
                 ("grammar", Json.str name);
                 ("text", Json.str mix.clients.(g).source);
               ]),
          None )
      end
      else if mix.stats_every > 0 && ch.n mod mix.stats_every = 0 then
        (Stats, "\"op\":\"stats\"", None)
      else
        let t =
          mix.templates.(Random.State.int ch.rng (Array.length mix.templates))
        in
        (t.kind, t.fields, t.expected)

let stats_ok = "stats ok"

type phase = Closed of float | Open of { seconds : float; rate : float }

(* Run one phase with [clients] client threads; returns every sample in
   send order per client, and the process CPU seconds the phase used
   (clients, daemon threads and pool domains together). *)
let drive (d : daemon) (mix : mix) ~(choosers : chooser array) (phase : phase)
    : sample list * float =
  let clients = Array.length choosers in
  let out = Array.make clients [] in
  let ids = Atomic.make 1 in
  let t_start = Util.now () +. 0.01 in
  let worker ci =
    let ch = choosers.(ci) in
    match Serve.Client.connect_retry d.addr with
    | Error msg -> failwith msg
    | Ok c ->
        let acc = ref [] in
        let i = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let due =
            match phase with
            | Closed _ -> Util.now ()
            | Open { rate; _ } ->
                (* clients interleave: client ci sends at offsets ci/rate *)
                t_start
                +. (float_of_int ((!i * clients) + ci) /. rate)
          in
          let stop_at =
            match phase with
            | Closed s -> t_start +. s
            | Open { seconds; _ } -> t_start +. seconds
          in
          if due >= stop_at then continue_ := false
          else begin
            let wait = due -. Util.now () in
            if wait > 0.0 then Thread.delay wait;
            let kind, fields, expected = next mix ch in
            let id = Atomic.fetch_and_add ids 1 in
            let line = line_of ~id fields in
            let sent = Util.now () in
            let resp =
              match Serve.Client.request_line c line with
              | Ok r -> Some r
              | Error _ -> None
            in
            let recv = Util.now () in
            Spans.record_flat "serve.request" id ~start:sent ~stop:recv;
            (* a stats document is large and only its verdict is checked *)
            let resp =
              match (kind, resp) with
              | Stats, Some r ->
                  let ok = Printf.sprintf "{\"id\":%d,\"ok\":true,\"op\":\"stats\"" id in
                  Some
                    (if String.length r > String.length ok
                        && String.sub r 0 (String.length ok) = ok
                     then stats_ok
                     else r)
              | _ -> resp
            in
            acc :=
              { s_kind = kind; s_id = id; s_fields = fields; s_expected = expected;
                s_due = (match phase with Closed _ -> sent | Open _ -> due);
                s_sent = sent; s_recv = recv; s_resp = resp }
              :: !acc;
            incr i;
            if resp = None then continue_ := false
          end
        done;
        Serve.Client.close c;
        out.(ci) <- List.rev !acc
  in
  let cpu0 = Sys.time () in
  let threads = List.init clients (fun ci -> Thread.create worker ci) in
  List.iter Thread.join threads;
  (List.concat (Array.to_list out), Sys.time () -. cpu0)

(* ------------------------------------------------------------------ *)
(* Reference answers *)

let reference_handler (entries : Serve.Registry.entry list) : Serve.Handler.t =
  Serve.Handler.create ~registry:(registry_of entries)
    ~pool:(Exec.Pool.create ~jobs:1) ()

let reference_answer (h : Serve.Handler.t) (fields : string) : string option =
  normalize (fst (Serve.Handler.handle h (line_of ~id:0 fields)))

(* Check every sample.  Template answers were precomputed; loads and
   client-grammar parses are replayed per client in send order, since a
   client's parses depend on what it loaded. *)
let check (tally : Util.tally) (entries : Serve.Registry.entry list)
    (samples : sample list) : unit =
  let h = reference_handler entries in
  let memo : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let bound : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let fields = s.s_fields in
      let got = Option.bind s.s_resp normalize in
      let ok =
        match s.s_kind with
        | Stats -> s.s_resp = Some stats_ok
        | Parse _ -> got <> None && got = s.s_expected
        | Load (name, g) ->
            let expected =
              match Hashtbl.find_opt bound name with
              | Some g' when g' = g && Hashtbl.mem memo fields ->
                  Hashtbl.find memo fields
              | _ ->
                  let a = reference_answer h fields in
                  Hashtbl.replace memo fields a;
                  Hashtbl.replace bound name g;
                  a
            in
            got <> None && got = expected
        | Client_parse (name, g, _) ->
            let key = Printf.sprintf "%d|%s" g fields in
            let expected =
              match Hashtbl.find_opt memo key with
              | Some a -> a
              | None ->
                  let a =
                    if Hashtbl.find_opt bound name = Some g then
                      reference_answer h fields
                    else None
                  in
                  Hashtbl.replace memo key a;
                  a
            in
            got <> None && got = expected
      in
      Util.check tally
        ~what:
          (Printf.sprintf "serve response to request %d: %s" s.s_id
             (String.sub fields 0 (min 80 (String.length fields))))
        ok)
    samples;
  Exec.Pool.shutdown h.Serve.Handler.pool

(* Templates for a set of targets: every given text on both backends
   (where the target has a generated parser) and both parse ops, with the
   reference answer attached. *)
let templates (entries : Serve.Registry.entry list)
    (targets : (target * string array) list) : template array =
  let h = reference_handler entries in
  let out =
    List.concat_map
      (fun ((t : target), texts) ->
        let backends = if t.gen = None then [ `Interp ] else [ `Interp; `Generated ] in
        List.concat_map
          (fun text ->
            List.concat_map
              (fun backend ->
                List.map
                  (fun op ->
                    let fields =
                      fields_of (parse_template ~op ~grammar:t.name ~backend text)
                    in
                    { kind = Parse backend; fields;
                      expected = reference_answer h fields })
                  [ "parse"; "parse_stream" ])
              backends)
          (Array.to_list texts))
      targets
  in
  Exec.Pool.shutdown h.Serve.Handler.pool;
  Array.of_list out

(* ------------------------------------------------------------------ *)
(* Daemon-side quantiles from the stats document: [serve.*_us] duration
   points merged over the label sets that pass [keep]. *)

let merged_duration (stats : Json.t) ~(name : string)
    ~(keep : (string * string) list -> bool) : Obs.Duration.t =
  let d = Obs.Duration.create () in
  let points =
    match Option.bind (Json.member "benches" stats) (Json.member "serve") with
    | Some (Json.List pts) -> pts
    | _ -> []
  in
  List.iter
    (fun p ->
      let labels =
        match Json.member "labels" p with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None)
              kvs
        | _ -> []
      in
      if Json.member "name" p = Some (Json.str name) && keep labels then
        match Option.bind (Json.member "metric" p) (Json.member "buckets") with
        | Some (Json.List bs) ->
            List.iter
              (function
                | Json.List [ Json.Int lo; Json.Int n ] ->
                    for _ = 1 to n do
                      Obs.Duration.observe d lo
                    done
                | _ -> ())
              bs
        | _ -> ())
    points;
  d
