(* Startup bench: cold eager analysis vs lazy on-demand construction vs a
   persistent-cache hit, for every benchmark grammar.

   Columns (all milliseconds, best of [reps] runs):

   - eager      parse the grammar + full static analysis of every decision
   - lazy       parse the grammar + start states only (Lazy strategy)
   - lazy+1st   lazy compile plus the first parse of a small program, i.e.
                the real cold-start cost of lazy mode
   - cache      load a previously saved compilation from the cache
                (includes re-parsing the grammar to compute the key)
   - speedup    eager / cache -- how much of the cold start the cache saves *)

module Workload = Common.Workload

let reps = 5

let best (f : unit -> unit) : float =
  let rec go i acc =
    if i = 0 then acc
    else
      let _, dt = Common.time f in
      go (i - 1) (min acc dt)
  in
  go reps infinity

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Every measurement gets its own cache directory.  The harness previously
   reused one directory across grammars and across the cold/warm phases, so
   a measurement could observe blobs left behind by an earlier one (and a
   crashed run could poison the next); a unique fresh directory per
   measurement makes cold genuinely cold, and the directory is recorded in
   the telemetry entry so a JSON consumer can tell measurements apart. *)
let dir_counter = ref 0

let fresh_cache_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "antlrkit-bench-cache-%d-%d" (Unix.getpid ())
         !dir_counter)
  in
  rm_rf dir;
  dir

let run () =
  Common.section
    "Startup: eager analysis vs lazy construction vs persistent-cache hit";
  Fmt.pr "%-10s %11s %10s %13s %10s %9s@." "grammar" "eager(ms)" "lazy(ms)"
    "lazy+1st(ms)" "cache(ms)" "speedup";
  List.iter
    (fun (spec : Workload.spec) ->
      let src = spec.Workload.grammar_text in
      let t_eager =
        best (fun () -> ignore (Llstar.Compiled.of_source_exn src))
      in
      let t_lazy =
        best (fun () ->
            ignore
              (Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy
                 src))
      in
      let cw = Common.compiled spec in
      let corpus = Common.corpus spec in
      let program =
        match corpus.Workload.texts with p :: _ -> p | [] -> ""
      in
      let toks = Workload.lex_exn cw program in
      let env = Workload.env_of_spec spec in
      let t_lazy_first =
        best (fun () ->
            let c =
              Llstar.Compiled.of_source_exn ~strategy:Llstar.Compiled.Lazy src
            in
            ignore (Runtime.Interp.recognize ~env c toks))
      in
      let dir = fresh_cache_dir () in
      (match Llstar.Compiled_cache.of_source ~dir src with
      | Ok (_, Llstar.Compiled_cache.Miss) -> ()
      | Ok (_, Llstar.Compiled_cache.Hit) | Error _ ->
          failwith "cache seed failed");
      let t_cache =
        best (fun () ->
            match Llstar.Compiled_cache.of_source ~dir src with
            | Ok (c, Llstar.Compiled_cache.Hit) ->
                assert (Llstar.Compiled.from_cache c)
            | _ -> failwith "expected a cache hit")
      in
      rm_rf dir;
      let ms x = x *. 1e3 in
      Fmt.pr "%-10s %11.2f %10.2f %13.2f %10.2f %8.1fx@." spec.Workload.name
        (ms t_eager) (ms t_lazy) (ms t_lazy_first) (ms t_cache)
        (t_eager /. t_cache);
      Common.Tel.add
        ("startup." ^ spec.Workload.name)
        (Obs.Json.obj
           [
             ("eager_s", Obs.Json.float t_eager);
             ("lazy_s", Obs.Json.float t_lazy);
             ("lazy_first_parse_s", Obs.Json.float t_lazy_first);
             ("cache_hit_s", Obs.Json.float t_cache);
             ("speedup", Obs.Json.float (t_eager /. t_cache));
             ("cache_dir", Obs.Json.str dir);
             ("reps", Obs.Json.int reps);
           ]))
    Bench_grammars.Specs.all;
  Fmt.pr "speedup = eager analysis time / cache-hit load time@."
