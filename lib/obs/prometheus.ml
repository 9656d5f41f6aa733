(* Prometheus text exposition format (v0.0.4) over a [Metrics] registry.

   The stats op speaks [antlrkit-telemetry/2], which nothing standard can
   scrape; this renderer is the bridge to the rest of the world.  Mapping:

   - [Counter]    -> prometheus counter;
   - [Histogram]  -> prometheus histogram: cumulative [le] buckets at the
     power-of-two bounds plus [+Inf], with [_sum]/[_count];
   - [Duration.t] -> prometheus summary: [quantile] labels 0.5/0.9/0.99
     (precomputed estimates, the conventional shape for client-side
     quantiles) with [_sum]/[_count] in microseconds.

   Names are prefixed [antlrkit_] and sanitized to [[a-zA-Z0-9_:]]
   (dots become underscores: [serve.requests] -> [antlrkit_serve_requests]);
   the original dotted name survives in the HELP line.  Label values are
   escaped per the spec (backslash, double-quote, newline).  Output is
   deterministic: families in first-registration order, series in
   registration order within a family, [# HELP]/[# TYPE] emitted once per
   family -- the shape test/test_serve.ml checks on two served scrapes. *)

let sanitize (name : string) : string =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  "antlrkit_" ^ Bytes.to_string b

let escape_label_value (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Render a label set as [{k="v",...}]; extra pairs (le, quantile) are
   appended after the registry labels. *)
let labels_str (labels : Metrics.labels) (extra : (string * string) list) :
    string =
  match labels @ extra with
  | [] -> ""
  | pairs ->
      let body =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             pairs)
      in
      "{" ^ body ^ "}"

type family = {
  f_name : string; (* sanitized, prefixed *)
  f_help : string;
  f_type : string; (* "counter" | "gauge" | "histogram" | "summary" *)
  mutable f_lines : string list; (* series lines, reverse order *)
}

let add_line (f : family) (line : string) = f.f_lines <- line :: f.f_lines

let family_lines (f : family) : string list =
  Printf.sprintf "# HELP %s %s" f.f_name f.f_help
  :: Printf.sprintf "# TYPE %s %s" f.f_name f.f_type
  :: List.rev f.f_lines

let counter_series (f : family) labels (c : Metrics.counter) =
  add_line f
    (Printf.sprintf "%s%s %d" f.f_name (labels_str labels []) (Metrics.value c))

let histogram_series (f : family) labels (h : Metrics.histogram) =
  (* Registry buckets are per-bucket counts at power-of-two bounds; the
     exposition format wants cumulative counts per upper bound. *)
  let cum = ref 0 in
  for i = 0 to Metrics.num_buckets - 1 do
    cum := !cum + h.Metrics.buckets.(i);
    let le =
      if i = Metrics.num_buckets - 1 then "+Inf" else Metrics.bucket_bound i
    in
    add_line f
      (Printf.sprintf "%s_bucket%s %d" f.f_name
         (labels_str labels [ ("le", le) ])
         !cum)
  done;
  add_line f
    (Printf.sprintf "%s_sum%s %d" f.f_name (labels_str labels [])
       (Metrics.h_sum h));
  add_line f
    (Printf.sprintf "%s_count%s %d" f.f_name (labels_str labels [])
       (Metrics.h_count h))

let duration_series (f : family) labels (d : Duration.t) =
  List.iter
    (fun (q, v) ->
      add_line f
        (Printf.sprintf "%s%s %d" f.f_name
           (labels_str labels [ ("quantile", q) ])
           v))
    [ ("0.5", Duration.p50 d); ("0.9", Duration.p90 d); ("0.99", Duration.p99 d) ];
  add_line f
    (Printf.sprintf "%s_sum%s %d" f.f_name (labels_str labels [])
       (Duration.sum_us d));
  add_line f
    (Printf.sprintf "%s_count%s %d" f.f_name (labels_str labels [])
       (Duration.count d))

(* [extra] lets the caller expose point-in-time gauges that live outside
   the registry (daemon uptime, pool queue depth, a constant [up]).  Names
   are taken as-is -- callers pass already-valid metric names. *)
let render ?(extra : (string * string * float) list = []) (m : Metrics.t) :
    string =
  let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let family name help ftype =
    match Hashtbl.find_opt families name with
    | Some f -> f
    | None ->
        let f = { f_name = name; f_help = help; f_type = ftype; f_lines = [] } in
        Hashtbl.add families name f;
        order := f :: !order;
        f
  in
  List.iter
    (fun (name, help, v) ->
      let f = family name help "gauge" in
      add_line f
        (Printf.sprintf "%s %s" name
           (if Float.is_integer v && Float.abs v < 1e15 then
              Printf.sprintf "%.0f" v
            else Printf.sprintf "%g" v)))
    extra;
  Metrics.fold
    (fun name labels metric () ->
      let help = Printf.sprintf "antlrkit metric %s" name in
      match metric with
      | Metrics.Counter c ->
          counter_series (family (sanitize name) help "counter") labels c
      | Metrics.Histogram h ->
          histogram_series (family (sanitize name) help "histogram") labels h
      | Metrics.Duration d ->
          duration_series (family (sanitize name) help "summary") labels d)
    m ();
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      List.iter
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        (family_lines f))
    (List.rev !order);
  Buffer.contents buf
