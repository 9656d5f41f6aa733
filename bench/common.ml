(* Shared infrastructure for the benchmark harness: timing and cached
   corpora over the bench grammars ({!Bench_grammars.Specs.all}).

   Paper reference values (Tables 1-4 of Parr & Fisher, PLDI 2011) are
   embedded so every bench prints paper-vs-measured side by side; we
   reproduce shapes and ratios, not absolute counts (see DESIGN.md,
   Substitutions). *)

module Workload = Bench_grammars.Workload

(* Paper analogue for each of our grammars (Figure 12 order). *)
let paper_name = function
  | "MiniJava" -> "Java1.5"
  | "RatsC" -> "RatsC"
  | "RatsJava" -> "RatsJava"
  | "MiniVB" -> "VB.NET"
  | "MiniSQL" -> "TSQL"
  | "MiniCSharp" -> "C#"
  | s -> s

(* Table 1 of the paper: lines, n, fixed, cyclic, backtrack, runtime(s). *)
let paper_table1 = function
  | "Java1.5" -> (1022, 170, 150, 1, 20, 3.1)
  | "RatsC" -> (1174, 143, 111, 0, 32, 2.8)
  | "RatsJava" -> (763, 87, 73, 6, 8, 3.0)
  | "VB.NET" -> (3505, 348, 332, 0, 16, 6.75)
  | "TSQL" -> (8241, 1120, 1053, 10, 57, 13.1)
  | "C#" -> (3476, 217, 189, 2, 26, 6.3)
  | _ -> (0, 0, 0, 0, 0, 0.0)

(* Table 2: %LL(k), %LL(1). *)
let paper_table2 = function
  | "Java1.5" -> (88.24, 74.71)
  | "RatsC" -> (77.62, 72.03)
  | "RatsJava" -> (83.91, 73.56)
  | "VB.NET" -> (95.40, 88.79)
  | "TSQL" -> (94.02, 83.48)
  | "C#" -> (87.10, 78.34)
  | _ -> (0.0, 0.0)

(* Table 3: avg k, back k, max k. *)
let paper_table3 = function
  | "Java1.5" -> (1.09, 3.95, 114)
  | "RatsC" -> (1.88, 5.87, 7968)
  | "RatsJava" -> (1.85, 5.95, 1313)
  | "VB.NET" -> (1.07, 3.25, 12)
  | "TSQL" -> (1.08, 2.63, 20)
  | "C#" -> (1.04, 1.60, 9)
  | _ -> (0.0, 0.0, 0)

(* Table 4: can back, did back, %events backtracking, back rate at PBDs. *)
let paper_table4 = function
  | "Java1.5" -> (19, 16, 2.36, 45.22)
  | "RatsC" -> (30, 24, 16.85, 65.27)
  | "RatsJava" -> (8, 7, 14.07, 74.68)
  | "VB.NET" -> (6, 3, 0.46, 20.84)
  | "TSQL" -> (29, 19, 3.38, 27.01)
  | "C#" -> (24, 19, 3.68, 40.22)
  | _ -> (0, 0, 0.0, 0.0)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Compiled grammars and corpora are built once and shared across benches. *)
let compiled_cache : (string, Workload.compiled) Hashtbl.t = Hashtbl.create 8
let corpus_cache : (string, Workload.corpus) Hashtbl.t = Hashtbl.create 8

let compiled (spec : Workload.spec) : Workload.compiled =
  match Hashtbl.find_opt compiled_cache spec.name with
  | Some cw -> cw
  | None ->
      let cw = Workload.compile spec in
      Hashtbl.add compiled_cache spec.name cw;
      cw

(* Corpus size is tunable from the environment so CI can run a smoke pass
   with tiny workloads (e.g. ANTLRKIT_BENCH_TOKENS=1200) while local runs
   keep the paper-scale default. *)
let default_target_tokens =
  match Sys.getenv_opt "ANTLRKIT_BENCH_TOKENS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> max 200 n
      | _ -> 20_000)
  | None -> 20_000

let corpus ?(target_tokens = default_target_tokens) (spec : Workload.spec) :
    Workload.corpus =
  match Hashtbl.find_opt corpus_cache spec.name with
  | Some c -> c
  | None ->
      let c = Workload.build_corpus (compiled spec) ~target_tokens in
      Hashtbl.add corpus_cache spec.name c;
      c

(* Telemetry collection: every bench registers the machine-readable version
   of what it printed under a stable key; [bench/main.ml --json FILE] wraps
   the collected entries in an antlrkit-telemetry/2 document.  Keys are
   "<bench>.<grammar-or-case>", and re-adding a key overwrites (last run
   wins), so repeating a bench on the command line stays well-formed. *)
module Tel = struct
  let entries : (string, Obs.Json.t) Hashtbl.t = Hashtbl.create 64
  let order : string list ref = ref []

  let add (key : string) (doc : Obs.Json.t) : unit =
    if not (Hashtbl.mem entries key) then order := key :: !order;
    Hashtbl.replace entries key doc

  let all () : (string * Obs.Json.t) list =
    List.rev_map (fun k -> (k, Hashtbl.find entries k)) !order
end

let hr () = Fmt.pr "%s@." (String.make 78 '-')

let section title =
  hr ();
  Fmt.pr "%s@." title;
  hr ()
