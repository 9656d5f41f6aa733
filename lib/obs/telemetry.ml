(* Machine-readable bench telemetry.

   Every paper bench ([bench/main.exe --json]), [antlrkit fuzz --json] and
   the parse service's [stats] op emit one document of this shape:

     {
       "schema": "antlrkit-telemetry/2",
       "tool": "<producer>",
       "env": { ocaml, word_size, os, argv, bench_tokens },
       "wall_s": <total wall seconds>,
       "user_s": <total user CPU seconds>,
       "benches": { "<bench or grammar>": { ... } }
     }

   The schema string is the compatibility contract: additive changes keep
   the version, field renames/removals bump it.  /2 replaced the serve
   layer's [serve.wall_us] power-of-two integer histogram with
   [serve.request_us]/[serve.queue_us]/[serve.parse_us] duration summaries
   (log-linear buckets, quantile fields -- see [Duration]); everything else
   is unchanged from /1.  CI archives these files as build artifacts,
   giving the repo a diffable performance trajectory.  Timing of the parse
   path is measured by [e2ebench/]; per-input telemetry comes from
   [antlrkit parse -p] (the decision profile) and [--trace] (the event
   timeline). *)

let schema = "antlrkit-telemetry/2"

(* Environment snapshot: enough to interpret a trajectory point without the
   CI log it came from. *)
let env_json () : Json.t =
  Json.obj
    [
      ("ocaml", Json.str Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
      ("os", Json.str Sys.os_type);
      ("backend", Json.str (if Sys.backend_type = Sys.Native then "native" else "bytecode"));
      ("argv", Json.list (Array.to_list (Array.map Json.str Sys.argv)));
      ( "bench_tokens",
        match Sys.getenv_opt "ANTLRKIT_BENCH_TOKENS" with
        | Some s -> Json.str s
        | None -> Json.Null );
    ]

(* User CPU seconds consumed so far (self + reaped children). *)
let user_time () : float =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_cutime

let document ~(tool : string) ~(wall_s : float) ~(user_s : float)
    (benches : (string * Json.t) list) : Json.t =
  Json.obj
    [
      ("schema", Json.str schema);
      ("tool", Json.str tool);
      ("env", env_json ());
      ("wall_s", Json.float wall_s);
      ("user_s", Json.float user_s);
      ("benches", Json.obj benches);
    ]

let write_file (path : string) (doc : Json.t) : unit =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
