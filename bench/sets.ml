(* Interned bitsets vs string sets: the FIRST/FOLLOW and analysis hot
   paths, measured against the retained reference implementation
   [First_follow_ref] (the pre-overhaul Set.Make(String) machinery).

   Three head-to-head measurements per benchmark grammar:

   - [compute]: the full nullable/FIRST/FOLLOW fixpoint;
   - [first_seq]: a sweep of FIRST over every production's rhs, the query
     the LL(1) table builder and the closure issue per production (the
     bitset side runs the id hot path [first_seq_ids], not the string
     compatibility view);
   - [first_1]: per-production FIRST_1 queries on a sampled subset -- the
     reference recomputes its whole fixpoint per query, the interned side
     memoizes it per (k, max_set_size), which is the actual shape of the
     LL(k) analysis (every production of a rule is probed at the same k).

   Plus two bitset-only trajectory rows with no string-set counterpart
   cheap enough to run ([first_2] on the reference takes minutes per
   grammar): the FIRST_2 full-production sweep and a rerun of the eager
   LL-star analysis over every decision (subset construction + closure, now
   bitset-backed).

   The telemetry rows land under "sets.<grammar>"; CI's bench-smoke gate
   compares them against the committed BENCH_hotpath.json. *)

module FF = Grammar.First_follow
module FFR = Grammar.First_follow_ref
module Workload = Bench_grammars.Workload

(* Median of [reps] runs, in milliseconds.  The gate compares across CI
   machines, so prefer the median to the mean: one scheduler hiccup must
   not move a committed trajectory point. *)
let median_ms ?(reps = 9) (f : unit -> unit) : float =
  let ts = Array.init reps (fun _ -> snd (Common.time f) *. 1e3) in
  Array.sort compare ts;
  ts.(reps / 2)

(* Every [stride]-th production: enough variety to touch recursive and
   nullable rules without paying the reference's per-query fixpoint on all
   of them. *)
let sampled_prods (bnf : Grammar.Bnf.t) ~(target : int) :
    (int * Grammar.Bnf.prod) list =
  let prods = bnf.Grammar.Bnf.prods in
  let n = List.length prods in
  let stride = max 1 (n / target) in
  List.filteri (fun i _ -> i mod stride = 0) (List.mapi (fun i p -> (i, p)) prods)

let run () =
  Common.section
    "Hot-path sets: interned bitsets vs the string-set reference";
  Fmt.pr "%-11s %5s | %8s %8s %5s | %8s %8s %5s | %8s %8s %5s | %8s %8s@."
    "grammar" "prods" "computeR" "computeB" "x" "seqR" "seqB" "x" "first1R"
    "first1B" "x" "first2B" "analysis";
  List.iter
    (fun (spec : Workload.spec) ->
      let ast = Grammar.Meta_parser.parse_exn spec.Workload.grammar_text in
      let bnf = Grammar.Bnf.convert ast in
      let nprods = List.length bnf.Grammar.Bnf.prods in
      (* full fixpoint *)
      let ref_compute = median_ms (fun () -> ignore (FFR.compute bnf)) in
      let bit_compute = median_ms (fun () -> ignore (FF.compute bnf)) in
      let rf = FFR.compute bnf in
      let ff = FF.compute bnf in
      (* FIRST of every production rhs, 20 sweeps per sample *)
      let ref_seq =
        median_ms (fun () ->
            for _ = 1 to 20 do
              List.iter
                (fun (p : Grammar.Bnf.prod) -> ignore (FFR.first_seq rf p.rhs))
                bnf.Grammar.Bnf.prods
            done)
      in
      let bit_seq =
        median_ms (fun () ->
            for _ = 1 to 20 do
              for i = 0 to FF.num_prods ff - 1 do
                ignore (FF.first_seq_ids ff (FF.prod_rhs_ids ff i) ~pos:0)
              done
            done)
      in
      (* FIRST_1 on a production sample; fresh [t]s per run so neither side
         starts with a warm memo *)
      let sample = sampled_prods bnf ~target:40 in
      let ref_first1 =
        median_ms ~reps:5 (fun () ->
            let rf = FFR.compute bnf in
            List.iter
              (fun (_, (p : Grammar.Bnf.prod)) ->
                try ignore (FFR.first_k rf 1 p.rhs)
                with FFR.Blowup _ -> ())
              sample)
      in
      let bit_first1 =
        median_ms ~reps:5 (fun () ->
            let ff = FF.compute bnf in
            List.iter
              (fun (i, _) ->
                try ignore (FF.first_k_ids ff 1 (FF.prod_rhs_ids ff i))
                with FF.Blowup _ -> ())
              sample)
      in
      (* bitset-only trajectory rows *)
      let bit_first2 =
        median_ms ~reps:5 (fun () ->
            let ff = FF.compute bnf in
            for i = 0 to FF.num_prods ff - 1 do
              try ignore (FF.first_k_ids ~max_set_size:2_000 ff 2 (FF.prod_rhs_ids ff i))
              with FF.Blowup _ -> ()
            done)
      in
      let cw = Common.compiled spec in
      let atn = cw.Workload.c.Llstar.Compiled.atn in
      let opts = cw.Workload.c.Llstar.Compiled.opts in
      let analysis =
        median_ms ~reps:5 (fun () ->
            Array.iter
              (fun d -> ignore (Llstar.Analysis.analyze_decision ~opts atn d))
              atn.Atn.decisions)
      in
      let x a b = if b > 0.0 then a /. b else 0.0 in
      Fmt.pr
        "%-11s %5d | %8.3f %8.3f %5.1f | %8.2f %8.2f %5.1f | %8.2f %8.2f \
         %5.1f | %8.2f %8.2f@."
        spec.Workload.name nprods ref_compute bit_compute
        (x ref_compute bit_compute) ref_seq bit_seq (x ref_seq bit_seq)
        ref_first1 bit_first1 (x ref_first1 bit_first1) bit_first2 analysis;
      Common.Tel.add
        ("sets." ^ spec.Workload.name)
        (Obs.Json.obj
           [
             ("prods", Obs.Json.int nprods);
             ("terms", Obs.Json.int (FF.num_terms ff));
             ("nonterms", Obs.Json.int (FF.num_nonterms ff));
             ("ref_compute_ms", Obs.Json.float ref_compute);
             ("bitset_compute_ms", Obs.Json.float bit_compute);
             ("ref_first_seq_ms", Obs.Json.float ref_seq);
             ("bitset_first_seq_ms", Obs.Json.float bit_seq);
             ("first1_sampled_prods", Obs.Json.int (List.length sample));
             ("ref_first1_ms", Obs.Json.float ref_first1);
             ("bitset_first1_ms", Obs.Json.float bit_first1);
             ("bitset_first2_ms", Obs.Json.float bit_first2);
             ("analysis_ms", Obs.Json.float analysis);
           ]))
    Bench_grammars.Specs.all;
  Fmt.pr
    "computeR/B: full fixpoint (ref/bitset); seq: FIRST over all prods x20; \
     first1: FIRST_1 on sampled prods; x: ref/bitset speedup@."
