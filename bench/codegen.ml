(* Generated parsers vs the ATN/DFA interpreter.

   For each bench grammar, parse the same corpus with the generated
   parser (lib/gen, emitted at build time by lib/codegen) and with
   [Runtime.Interp], and report tokens/s for both.  Before timing
   anything, every input is replayed through both and the full outcome
   triple (accept/reject, error kind and token index, consumed-token
   count) is compared -- a speedup over a parser that disagrees with the
   oracle would be meaningless, so disagreements are counted and gated.

   Telemetry rows land under "codegen.<grammar>"; CI's bench-smoke gate
   checks [agree] and the speedup floor against BENCH_codegen.json. *)

module Workload = Bench_grammars.Workload
module Rt = Runtime.Generated

(* Median of [reps] full-corpus passes, in seconds; same rationale as the
   sets bench (gate rows must not move on one scheduler hiccup). *)
let median_s ?(reps = 5) (f : unit -> unit) : float =
  let ts = Array.init reps (fun _ -> snd (Common.time f)) in
  Array.sort compare ts;
  ts.(reps / 2)

let run () =
  Common.section "Codegen: generated parsers vs the ATN/DFA interpreter";
  Fmt.pr "%-11s %7s %6s | %12s %12s %7s | %s@." "grammar" "tokens" "inputs"
    "interp tok/s" "gen tok/s" "speedup" "agree";
  List.iter
    (fun (spec : Workload.spec) ->
      match Gen.Registry.find spec.Workload.name with
      | None ->
          Fmt.pr "%-11s (no generated parser)@." spec.Workload.name
      | Some (module P : Rt.PARSER) ->
          let cw = Common.compiled spec in
          let corpus = Common.corpus spec in
          let env = Workload.env_of_spec spec in
          let inputs =
            List.map (fun text -> Workload.lex_exn cw text)
              corpus.Workload.texts
          in
          let total_tokens =
            List.fold_left (fun a t -> a + Array.length t) 0 inputs
          in
          (* differential check first: every input, full outcome triple *)
          let disagreements = ref 0 in
          List.iter
            (fun toks ->
              let got = P.outcome ~env toks in
              let want = Rt.interp_outcome ~env cw.Workload.c toks in
              if not (Rt.agree got want) then begin
                incr disagreements;
                if !disagreements <= 3 then
                  Fmt.epr "codegen %s: generated=%s interp=%s@."
                    spec.Workload.name (Rt.describe got) (Rt.describe want)
              end)
            inputs;
          let agree = !disagreements = 0 in
          (* throughput: median of full-corpus passes *)
          let interp_s =
            median_s (fun () ->
                List.iter
                  (fun toks ->
                    ignore
                      (Runtime.Interp.recognize ~env cw.Workload.c toks))
                  inputs)
          in
          let gen_s =
            median_s (fun () ->
                List.iter (fun toks -> ignore (P.outcome ~env toks)) inputs)
          in
          let per_s s =
            if s > 0.0 then float_of_int total_tokens /. s else 0.0
          in
          let interp_tps = per_s interp_s and gen_tps = per_s gen_s in
          let speedup = if interp_s > 0.0 then interp_s /. gen_s else 0.0 in
          Fmt.pr "%-11s %7d %6d | %12.0f %12.0f %6.2fx | %s@."
            spec.Workload.name total_tokens (List.length inputs) interp_tps
            gen_tps speedup
            (if agree then "yes"
             else Printf.sprintf "NO (%d)" !disagreements);
          Common.Tel.add
            ("codegen." ^ spec.Workload.name)
            (Obs.Json.obj
               [
                 ("tokens", Obs.Json.int total_tokens);
                 ("inputs", Obs.Json.int (List.length inputs));
                 ("interp_tokens_per_s", Obs.Json.float interp_tps);
                 ("gen_tokens_per_s", Obs.Json.float gen_tps);
                 ("speedup", Obs.Json.float speedup);
                 ("agree", Obs.Json.bool agree);
                 ("disagreements", Obs.Json.int !disagreements);
               ]))
    Bench_grammars.Specs.all;
  Common.hr ()
