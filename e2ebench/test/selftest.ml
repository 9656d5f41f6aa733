(* Self-test of the benchmark's output contract on tiny inputs. *)

module W = E2e.Workloads
module Json = Obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("selftest: " ^ msg))
    fmt

(* (name, unit) pairs of one metric list in BENCHMARK.json. *)
let declared (doc : Json.t) (key : string) : (string * string) list =
  match Json.member key doc with
  | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> Some (n, u)
          | _ -> None)
        ms
  | _ -> []

let run ~workload ~seed ~traced =
  W.run { W.workload; seed; seconds = 1.5; traced; tiny = true }

let check_metrics ~what (want : (string * string) list) (r : W.result) =
  let got =
    List.map (fun (m : E2e.Util.metric) -> (m.E2e.Util.name, m.E2e.Util.unit_)) r.W.metrics
  in
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n got with
      | None -> fail "%s: metric %s missing" what n
      | Some u' when u' <> u -> fail "%s: metric %s has unit %s, declared %s" what n u' u
      | Some _ -> ())
    want;
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n want) then fail "%s: metric %s is not declared" what n)
    got;
  List.iter
    (fun (m : E2e.Util.metric) ->
      if not (Float.is_finite m.E2e.Util.value) then
        fail "%s: metric %s is not finite" what m.E2e.Util.name)
    r.W.metrics;
  if r.W.tally.E2e.Util.failed > 0 then
    fail "%s: %d failed operations" what r.W.tally.E2e.Util.failed;
  if r.W.tally.E2e.Util.attempted = 0 then fail "%s: no operations" what

let () =
  let path = Sys.argv.(1) in
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let e2e = declared doc "end_to_end" and layers = declared doc "per_layer" in
  if e2e = [] || layers = [] then fail "no metrics declared in %s" path;
  List.iter
    (fun workload ->
      let r1 = run ~workload ~seed:1 ~traced:false in
      check_metrics ~what:(workload ^ " seed 1") e2e r1;
      check_metrics ~what:(workload ^ " traced") layers
        (run ~workload ~seed:1 ~traced:true);
      let r2 = run ~workload ~seed:2 ~traced:false in
      check_metrics ~what:(workload ^ " seed 2") e2e r2;
      if r1.W.input_digest = r2.W.input_digest then
        fail "%s: seeds 1 and 2 produced the same inputs" workload)
    W.names;
  if !failures > 0 then exit 1
