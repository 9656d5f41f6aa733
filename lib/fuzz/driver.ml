(* Seeded fuzzing driver: generates sentences from a grammar spec, mutates
   half of them, feeds everything to the differential {!Oracle}, shrinks any
   failure with the greedy token-delta shrinker, and writes reproducer files
   under a corpus directory so failures become permanent regression tests
   (they are replayed by [dune runtest], see test/test_fuzz.ml).

   Determinism: run [i] of a seeded session draws all its randomness from
   [Sentence_gen.rng_of_seed ~index:i seed], so a (seed, run) pair pins the
   entire generate-mutate-check sequence and reproducer files can name the
   exact run that produced them. *)

module Workload = Bench_grammars.Workload

type failure = {
  f_divergence : Oracle.divergence;
  f_shrunk : string list; (* minimized input *)
  f_run : int; (* run index that produced it *)
  f_file : string option; (* reproducer path, when a corpus dir was given *)
}

type report = {
  r_grammar : string;
  r_runs : int;
  r_accepted : int; (* LL-star accepted *)
  r_rejected : int;
  r_mutated : int; (* runs that went through the mutation engine *)
  r_explained : int; (* expected disagreements normalized away *)
  r_failures : failure list;
}

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-12s %4d runs: %d accept / %d reject, %d mutated, %d normalized, %d failures"
    r.r_grammar r.r_runs r.r_accepted r.r_rejected r.r_mutated r.r_explained
    (List.length r.r_failures)

(* Reproducer file format: "key: value" header lines, then the minimized
   input as space-separated terminal spellings (no spelling in the
   benchmark grammars contains a space).  Example:

     grammar: mini_java
     seed: 42
     run: 17
     kind: crash
     detail: llstar: Failure("...")
     tokens: 'class' ID '{' '}'
*)
let write_reproducer ~dir ~seed ~run (d : Oracle.divergence)
    (shrunk : string list) : string =
  (* EEXIST-tolerant: two fuzz shards can race on corpus-dir creation. *)
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat dir (Printf.sprintf "%s-seed%d-run%d.txt" d.Oracle.d_grammar seed run)
  in
  let oc = open_out file in
  Printf.fprintf oc "grammar: %s\nseed: %d\nrun: %d\nkind: %s\ndetail: %s\ntokens: %s\n"
    d.Oracle.d_grammar seed run d.Oracle.d_kind d.Oracle.d_detail
    (String.concat " " shrunk);
  close_out oc;
  file

type reproducer = {
  rp_grammar : string;
  rp_kind : string;
  rp_tokens : string list;
}

(* Parse a reproducer file back; tolerant of unknown header keys. *)
let read_reproducer (file : string) : (reproducer, string) result =
  let ic = open_in file in
  let grammar = ref None and kind = ref None and tokens = ref None in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ':' with
       | None -> ()
       | Some i ->
           let key = String.sub line 0 i in
           let v =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           if key = "grammar" then grammar := Some v
           else if key = "kind" then kind := Some v
           else if key = "tokens" then
             tokens :=
               Some (String.split_on_char ' ' v |> List.filter (fun s -> s <> ""))
     done
   with End_of_file -> close_in ic);
  match (!grammar, !kind, !tokens) with
  | Some g, Some k, Some t -> Ok { rp_grammar = g; rp_kind = k; rp_tokens = t }
  | _ -> Error (Printf.sprintf "%s: missing grammar/kind/tokens header" file)

(* Replay a reproducer against a fresh oracle: the input must no longer
   produce any divergence (i.e. the bug it witnessed stays fixed). *)
let replay (o : Oracle.t) (rp : reproducer) : Oracle.divergence list =
  snd (Oracle.check o rp.rp_tokens)

(* Machine-readable session report (the fuzz CLI's --json). *)
let report_to_json ?profile ~seed (r : report) : Obs.Json.t =
  let failure_json (f : failure) =
    Obs.Json.obj
      [
        ("kind", Obs.Json.str f.f_divergence.Oracle.d_kind);
        ("detail", Obs.Json.str f.f_divergence.Oracle.d_detail);
        ("run", Obs.Json.int f.f_run);
        ("shrunk_tokens", Obs.Json.list (List.map Obs.Json.str f.f_shrunk));
        ( "file",
          match f.f_file with
          | Some p -> Obs.Json.str p
          | None -> Obs.Json.Null );
      ]
  in
  Obs.Json.obj
    ([
       ("grammar", Obs.Json.str r.r_grammar);
       ("seed", Obs.Json.int seed);
       ("runs", Obs.Json.int r.r_runs);
       ("accepted", Obs.Json.int r.r_accepted);
       ("rejected", Obs.Json.int r.r_rejected);
       ("mutated", Obs.Json.int r.r_mutated);
       ("normalized", Obs.Json.int r.r_explained);
       ("failures", Obs.Json.list (List.map failure_json r.r_failures));
     ]
    @
    match profile with
    | Some p -> [ ("profile", Runtime.Profile.to_json p) ]
    | None -> [])

(* Per-shard tallies; merged in shard order by [run_spec]. *)
type shard = {
  s_accepted : int;
  s_rejected : int;
  s_mutated : int;
  s_explained : int;
  s_failures : failure list; (* in run order *)
}

(* Fuzz the contiguous run range [lo, hi) against a chunk-private oracle
   over the (shared) compiled workload.  Run [i] draws every random
   choice from [rng_of_seed ~index:i seed], so the tallies depend only on
   the (seed, range) pair -- never on which worker, or how many, executed
   the range. *)
let run_range ?(size = 30) ?(mutate = true) ?fuel ?time_cap ?corpus_dir
    ?profile ?stream_window ~(seed : int) (cw : Workload.compiled) (lo, hi) :
    (shard, Llstar.Compiled.error) result =
  let spec = cw.Workload.spec in
  let o = Oracle.create_with ?fuel ?time_cap ?profile ?stream_window cw in
      let vocab = Oracle.(o.vocab) in
      let accepted = ref 0 and rejected = ref 0 in
      let mutated = ref 0 and explained = ref 0 in
      let failures = ref [] in
      for i = lo to hi - 1 do
        let rng = Grammar.Sentence_gen.rng_of_seed ~index:i seed in
        match
          Grammar.Sentence_gen.generate ?start:spec.Workload.gen_start
            Oracle.(o.cw).Workload.gen ~rng ~size
        with
        | exception Grammar.Sentence_gen.Unproductive -> ()
        | base ->
            (* wildcard positions carry no spelling: substitute a vocabulary
               token so every backend sees a concrete terminal *)
            let base =
              List.map
                (fun s ->
                  if s = "." && Array.length vocab > 0 then
                    vocab.(Random.State.int rng (Array.length vocab))
                  else s)
                base
            in
            let names =
              if mutate && i mod 2 = 1 then begin
                incr mutated;
                let count = 1 + Random.State.int rng 3 in
                let _ops, arr =
                  Mutate.mutate rng ~vocab ~count (Array.of_list base)
                in
                Array.to_list arr
              end
              else base
            in
            let outcome, divs = Oracle.check o names in
            (match outcome.Oracle.o_llstar with
            | Oracle.Accept -> incr accepted
            | _ -> incr rejected);
            if outcome.Oracle.o_explained then incr explained;
            List.iter
              (fun (d : Oracle.divergence) ->
                let shrunk =
                  Oracle.shrink
                    ~failing:(fun cand ->
                      List.exists
                        (fun (d' : Oracle.divergence) ->
                          d'.Oracle.d_kind = d.Oracle.d_kind)
                        (snd (Oracle.check o cand)))
                    d.Oracle.d_tokens
                in
                let file =
                  Option.map
                    (fun dir -> write_reproducer ~dir ~seed ~run:i d shrunk)
                    corpus_dir
                in
                failures :=
                  { f_divergence = d; f_shrunk = shrunk; f_run = i; f_file = file }
                  :: !failures)
              divs
      done;
      Ok
        {
          s_accepted = !accepted;
          s_rejected = !rejected;
          s_mutated = !mutated;
          s_explained = !explained;
          s_failures = List.rev !failures;
        }

(* One fuzzing session over a single grammar spec.  The LL-star compilation
   happens once and is shared by every chunk -- safe for both strategies
   (eager results are read-only; lazy engines synchronize internally), and
   required for lazy determinism: per-chunk compilations would each count
   their own sprouts, making merged profiles depend on the job count.
   [pool] spreads the run indices across workers in several chunks per
   worker ([Exec.Pool.chunk_ranges]; modest granularity -- each chunk
   builds its own oracle around the shared compilation, since the baseline
   backends hold mutable parser state); each chunk also owns a private
   profile, merged on join.  The report is identical for any job count
   because runs are seed-index deterministic and chunks are merged in
   index order.  [strategy] picks the LL-star compilation strategy (default
   eager); lazy fuzzing doubles as a concurrency stress of the shared
   engines' sprout path. *)
let run_spec ?size ?mutate ?fuel ?time_cap ?corpus_dir ?profile ?pool
    ?strategy ?stream_window ~(seed : int) ~(runs : int)
    (spec : Workload.spec) : (report, Llstar.Compiled.error) result =
  match Workload.compile_result ?strategy spec with
  | Error e -> Error e
  | Ok cw -> (
      let jobs = match pool with None -> 1 | Some p -> Exec.Pool.jobs p in
      let shards =
        match pool with
        | Some p when jobs > 1 && runs > 1 ->
            let tasks =
              List.map
                (fun range ->
                  Exec.Pool.submit p (fun () ->
                      let sp =
                        Option.map (fun _ -> Runtime.Profile.create ()) profile
                      in
                      let r =
                        run_range ?size ?mutate ?fuel ?time_cap ?corpus_dir
                          ?profile:sp ?stream_window ~seed cw range
                      in
                      (r, sp)))
                (Exec.Pool.chunk_ranges ~granularity:4 ~jobs runs)
            in
            List.map
              (fun task ->
                let r, sp = Exec.Pool.await task in
                (match (profile, sp) with
                | Some into, Some src -> Runtime.Profile.merge ~into src
                | _ -> ());
                r)
              tasks
        | _ ->
            [
              run_range ?size ?mutate ?fuel ?time_cap ?corpus_dir ?profile
                ?stream_window ~seed cw (0, runs);
            ]
      in
      match
        List.find_map (function Error e -> Some e | Ok _ -> None) shards
      with
      | Some e -> Error e
      | None ->
          let shards =
            List.map (function Ok s -> s | Error _ -> assert false) shards
          in
          Ok
            {
              r_grammar = spec.Workload.name;
              r_runs = runs;
              r_accepted =
                List.fold_left (fun a s -> a + s.s_accepted) 0 shards;
              r_rejected =
                List.fold_left (fun a s -> a + s.s_rejected) 0 shards;
              r_mutated = List.fold_left (fun a s -> a + s.s_mutated) 0 shards;
              r_explained =
                List.fold_left (fun a s -> a + s.s_explained) 0 shards;
              r_failures = List.concat_map (fun s -> s.s_failures) shards;
            })
