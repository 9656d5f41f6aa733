(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation (section 6) plus the comparison/ablation benches
   listed in DESIGN.md, and the tracing-overhead check.  Run a subset with

     dune exec bench/main.exe -- table1 fig2 speed

   or everything with no arguments.  Add [--json FILE] to also write the
   telemetry the benches collected (Common.Tel) as one
   antlrkit-telemetry/2 document. *)

let all_benches : (string * string * (unit -> unit)) list =
  [
    ("fig1", "Figure 1: lookahead DFA for rule s", Figures.fig1);
    ("fig2", "Figure 2: mixed lookahead/backtracking DFA", Figures.fig2);
    ("notlrk", "Section 2: LL(*)-but-not-LR(k) cyclic DFA", Figures.not_lrk);
    ("lpg", "Section 2: LPG fixed-k blow-up anecdote", Comparisons.lpg);
    ("table1", "Table 1: grammar decision characteristics", Tables.table1);
    ("table2", "Table 2: fixed lookahead decisions", Tables.table2);
    ("table3", "Table 3: runtime lookahead depth", Tables.table3);
    ("table4", "Table 4: runtime backtracking behaviour", Tables.table4);
    ("speed", "Section 6.2: LL(*) vs packrat speed", Comparisons.speed);
    ("memo", "Section 6.2: memoization ablation", Comparisons.memo);
    ("complexity", "Sections 1/7: LL(*) vs Earley growth", Comparisons.complexity);
    ("ablate", "Ablations: recursion bound m, fallback strategy", Comparisons.ablate);
    ("obs", "Tracing overhead: null sink is free, ring sink per-event", Overhead.run);
  ]

let () =
  (* [--json FILE] can appear anywhere; everything else is a bench name. *)
  let json_file = ref None in
  let names = ref [] in
  let rec scan = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_file := Some path;
        scan rest
    | [ "--json" ] ->
        Fmt.epr "--json needs a file argument@.";
        exit 1
    | name :: rest ->
        names := name :: !names;
        scan rest
  in
  scan (List.tl (Array.to_list Sys.argv));
  let requested =
    match List.rev !names with
    | [] -> List.map (fun (n, _, _) -> n) all_benches
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) all_benches with
      | Some (_, _, f) -> f ()
      | None ->
          Fmt.epr "unknown bench %S; available:@." name;
          List.iter (fun (n, d, _) -> Fmt.epr "  %-12s %s@." n d) all_benches;
          exit 1)
    requested;
  Common.hr ();
  let wall_s = Unix.gettimeofday () -. t0 in
  Fmt.pr "total bench time: %.1fs@." wall_s;
  match !json_file with
  | None -> ()
  | Some path ->
      Obs.Telemetry.write_file path
        (Obs.Telemetry.document ~tool:"antlrkit-bench-harness" ~wall_s
           ~user_s:(Obs.Telemetry.user_time ())
           (Common.Tel.all ()));
      Fmt.pr "telemetry written to %s@." path
