(* Compiled-grammar registry for the serve daemon: name -> compiled
   grammar, lexer configuration, predicate environment and (when the name
   matches a generated parser in lib/gen) the generated backend.

   Every grammar is compiled by [Llstar.Compiled_cache.of_source], the one
   grammar loader.  When the registry was created with a cache directory,
   a daemon restart pays a blob load instead of a full ATN +
   lookahead-DFA analysis, and opening the
   directory garbage-collects temp files left by crashed writers.  The
   entry list is guarded by a mutex: [find] is on the per-request path of
   many concurrent connection threads while [load]/[evict] mutate.
   Entries themselves are immutable after insertion -- a request thread
   that got an entry keeps a consistent snapshot even if the name is
   concurrently evicted or replaced. *)

type entry = {
  name : string;
  c : Llstar.Compiled.t;
  digest : string; (* Compiled_cache.payload_digest: identity across runs *)
  lexer_config : Runtime.Lexer_engine.config;
  env : Runtime.Interp.env;
  generated : (module Runtime.Generated.PARSER) option;
  cache : Llstar.Compiled_cache.outcome option; (* when a cache dir is set *)
}

type t = {
  lock : Mutex.t;
  mutable entries : (string * entry) list; (* newest binding first *)
  cache_dir : string option;
}

(* The six bench grammars (Figure 12 of the paper), the workloads the
   daemon preloads by default and the smoke tests drive. *)
let builtin_specs : Bench_grammars.Workload.spec list =
  Bench_grammars.Specs.all

let builtin_names : string list =
  List.map (fun (s : Bench_grammars.Workload.spec) -> s.name) builtin_specs

let create ?cache_dir () : t =
  (* Sweep crashed writers' temps as soon as the daemon takes ownership
     of the directory, not lazily on the first compile. *)
  (match cache_dir with
  | Some dir -> ignore (Llstar.Compiled_cache.gc_stale_temps ~dir ())
  | None -> ());
  { lock = Mutex.create (); entries = []; cache_dir }

let cache_dir t = t.cache_dir

let insert t (e : entry) : unit =
  Mutex.lock t.lock;
  t.entries <- (e.name, e) :: List.remove_assoc e.name t.entries;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Loading *)

(* Compile [src] through the one grammar loader and register it under
   [name]; a compile error comes back as ["name: <error>"]. *)
let load t ?tracer ?pool ~name ~lexer_config ~env ~generated (src : string)
    : (entry, string) result =
  match
    Llstar.Compiled_cache.of_source ?tracer ?pool ?dir:t.cache_dir src
  with
  | Error e -> Error (Fmt.str "%s: %a" name Llstar.Compiled.pp_error e)
  | Ok (c, outcome) ->
      let e =
        {
          name;
          c;
          digest = Llstar.Compiled_cache.payload_digest c;
          lexer_config;
          env;
          generated;
          cache = Option.map (fun _ -> outcome) t.cache_dir;
        }
      in
      insert t e;
      Ok e

(* Load a builtin bench grammar: its lexer configuration and semantic
   predicates come from the workload spec, and the generated parser (if
   one exists for the name) is registered alongside the interpreter. *)
let load_builtin t ?tracer ?pool (name : string) : (entry, string) result =
  match Bench_grammars.Specs.find name with
  | None ->
      Error
        (Printf.sprintf "unknown builtin grammar %S (builtins: %s)" name
           (String.concat ", " builtin_names))
  | Some spec ->
      load t ?tracer ?pool ~name ~lexer_config:spec.lexer_config
        ~env:(Bench_grammars.Workload.env_of_spec spec)
        ~generated:(Gen.Registry.find name) spec.grammar_text

(* Load ad-hoc grammar text under [name]: default lexer configuration,
   empty predicate environment, interpreter backend only. *)
let load_source t ?tracer ?pool ~(name : string) (src : string) :
    (entry, string) result =
  load t ?tracer ?pool ~name ~lexer_config:Runtime.Lexer_engine.default_config
    ~env:Runtime.Interp.default_env ~generated:None src

let load_builtins t ?tracer ?pool ?(names = builtin_names) () :
    (entry list, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match load_builtin t ?tracer ?pool n with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e)
  in
  go [] names

(* ------------------------------------------------------------------ *)
(* Lookup *)

let find t (name : string) : entry option =
  Mutex.lock t.lock;
  let r = List.assoc_opt name t.entries in
  Mutex.unlock t.lock;
  r

let evict t (name : string) : bool =
  Mutex.lock t.lock;
  let present = List.mem_assoc name t.entries in
  if present then t.entries <- List.remove_assoc name t.entries;
  Mutex.unlock t.lock;
  present

let list t : entry list =
  Mutex.lock t.lock;
  let es = List.map snd t.entries in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.name b.name) es
