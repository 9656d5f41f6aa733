(* Differential-fuzzing throughput: generate-mutate-check cycles per second
   the four-backend oracle sustains on each benchmark grammar, plus the
   verdict mix at a fixed seed.  A collapse here means one of the backends
   (or the recovery probe) went super-linear on fuzzed inputs. *)

module Workload = Bench_grammars.Workload

let run () =
  Common.hr ();
  Fmt.pr "differential fuzzing throughput (seed 42, 100 runs per grammar)@.";
  Fmt.pr "  %-12s %9s %8s %8s %11s %9s@." "grammar" "runs/s" "accept"
    "reject" "normalized" "failures";
  List.iter
    (fun (spec : Workload.spec) ->
      let t0 = Unix.gettimeofday () in
      match Fuzz.Driver.run_spec ~seed:42 ~runs:100 spec with
      | Error e ->
          Fmt.pr "  %-12s compile error: %a@." spec.Workload.name
            Llstar.Compiled.pp_error e
      | Ok r ->
          let dt = Unix.gettimeofday () -. t0 in
          Fmt.pr "  %-12s %9.0f %8d %8d %11d %9d@." r.Fuzz.Driver.r_grammar
            (float_of_int r.Fuzz.Driver.r_runs /. dt)
            r.Fuzz.Driver.r_accepted r.Fuzz.Driver.r_rejected
            r.Fuzz.Driver.r_explained
            (List.length r.Fuzz.Driver.r_failures);
          Common.Tel.add
            ("fuzz." ^ spec.Workload.name)
            (Obs.Json.obj
               [
                 ("wall_s", Obs.Json.float dt);
                 ( "runs_per_s",
                   Obs.Json.float (float_of_int r.Fuzz.Driver.r_runs /. dt) );
                 ("report", Fuzz.Driver.report_to_json ~seed:42 r);
               ]))
    Bench_grammars.Specs.all
