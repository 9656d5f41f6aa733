(* Output: one human-readable line per metric, then the result as one JSON
   object on the last line. *)

(* A metric that could not be measured is -1 rather than null, so the
   result stays all numbers; +inf (an unanswered request's latency) is
   written as 1e308 by the JSON printer. *)
let json_number (v : float) : Obs.Json.t =
  Obs.Json.Float (if Float.is_nan v then -1.0 else v)

let render ~(workload : string) ~(seed : int) (r : Workloads.result) : string =
  let b = Buffer.create 4096 in
  Printf.bprintf b "workload %s, seed %d, inputs %s\n" workload seed
    (String.sub r.Workloads.input_digest 0 12);
  Printf.bprintf b
    "  host factor %.4f (calibration median / %.3f s reference; times scaled by it)\n"
    r.Workloads.host_factor Calib.reference_s;
  List.iter
    (fun (m : Util.metric) ->
      Printf.bprintf b "  %-34s %14.6g %s\n" m.Util.name m.Util.value m.Util.unit_)
    r.Workloads.metrics;
  let t = r.Workloads.tally in
  Printf.bprintf b "  operations: %d attempted, %d failed\n" t.Util.attempted
    t.Util.failed;
  let doc =
    Obs.Json.obj
      [
        ("correct", Obs.Json.bool (t.Util.failed = 0));
        ("attempted", Obs.Json.int t.Util.attempted);
        ("failed", Obs.Json.int t.Util.failed);
        ( "metrics",
          Obs.Json.obj
            (List.map
               (fun (m : Util.metric) ->
                 ( m.Util.name,
                   Obs.Json.obj
                     [
                       ("value", json_number m.Util.value);
                       ("unit", Obs.Json.str m.Util.unit_);
                     ] ))
               r.Workloads.metrics) );
      ]
  in
  Buffer.add_string b (Obs.Json.to_string doc);
  Buffer.add_char b '\n';
  Buffer.contents b
