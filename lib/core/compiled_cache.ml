(* Persistent compilation cache.

   Compiling a grammar -- ATN construction plus lookahead-DFA analysis --
   dominates cold-start time, and it is fully determined by the grammar AST
   and the analysis options.  This module serializes a whole [Compiled.t]
   (ATN, every materialized DFA state, lazy engines when present, and the
   analysis report) to a versioned binary blob keyed by a content hash of
   the grammar, with load-validate-or-rebuild semantics:

   - the cache key is a digest of the surface AST, the resolved analysis
     options, the compilation strategy, the cache format version and the
     compiler version, so any input that could change the result changes
     the file name;
   - the blob carries a magic string, the key, and a digest of the payload;
     a missing, truncated, corrupted or mismatched blob makes [load] return
     [None] -- the caller recompiles, it never crashes (the payload digest
     is verified *before* unmarshaling, so [Marshal] only ever sees bytes
     this module wrote);
   - writes go through a temp file and an atomic rename, so a crashed or
     concurrent writer can leave a stale temp file but never a torn blob;
   - stale temp files are garbage-collected when a cache directory is
     opened ([gc_stale_temps], called once per directory per process from
     [compile]): a temp whose writer pid is provably dead, or whose mtime
     is older than [stale_temp_age_s], is removed; a live writer's fresh
     temp is never touched, and valid blobs are never candidates (only
     [.<key>.tmp.<pid>]-shaped names are considered).

   A lazy-mode [Compiled.t] can be re-saved after parsing: the blob then
   contains every DFA state materialized so far, and a later [load] resumes
   lazy construction from that warm state. *)

(* Bump whenever the marshaled representation changes shape: any change to
   [Compiled.t] or to a type reachable from it (ASTs, ATN, DFAs, analysis
   results, lazy engines).
   v2: [Grammar.Sym.t] gained the [frozen] field.
   v3: lazy engines are serialized as [Lazy_dfa.portable] (canonical,
   discovery-order independent) alongside an engine-stripped [Compiled.t]
   instead of being marshaled live -- live engines now carry a mutex and
   an atomic, which do not marshal.
   v4: [Report.decision_report] gained [states_built], lazy engines carry
   [p_retired_states], and serialized configurations are
   [Config.Plain.t] (same shape as the old [Config.t]; live
   configurations now hold hash-consed stacks).
   v5: [Analysis.warning] gained [Not_converging], and [states_built] (in
   the report and a lazy engine's [p_retired_states]) is split by attempt
   ([Analysis.effort]). *)
let format_version = 5

let magic = "ANTLRKIT-CACHE\n"

type outcome = Hit | Miss

(* ------------------------------------------------------------------ *)
(* Keys and paths *)

let resolve_opts ?analysis_opts (g : Grammar.Ast.t) : Analysis.options =
  match analysis_opts with
  | Some o -> o
  | None -> Analysis.options_of_grammar g

let key_of_parts (g : Grammar.Ast.t) (opts : Analysis.options)
    (strategy : Compiled.strategy) : string =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (g, opts, strategy, format_version, Sys.ocaml_version)
          []))

let key ?analysis_opts ?(strategy = Compiled.Eager) (g : Grammar.Ast.t) :
    string =
  key_of_parts g (resolve_opts ?analysis_opts g) strategy

(* The key a compiled value would be stored under.  Uses the options the
   compilation actually resolved, so a warm re-save lands on the same blob
   a later [load]/[compile] with the same inputs will look up. *)
let key_of (c : Compiled.t) : string =
  key_of_parts c.Compiled.surface c.Compiled.opts (Compiled.strategy c)

let cache_file ~dir k = Filename.concat dir (k ^ ".antlrkit-cache")

(* ------------------------------------------------------------------ *)
(* Payload form.

   Live lazy engines hold a mutex, an atomic and derived hash tables,
   none of which [Marshal] accepts, and their builders' raw state depends
   on discovery order.  The marshaled payload is therefore the compiled
   value with [engines] stripped, paired with each engine's canonical
   [Lazy_dfa.portable] form; both halves go through one [Marshal] call so
   structure shared between them (the ATN, interned symbols) is shared in
   the blob too.  Eager compilations pair with [None] and round-trip
   unchanged. *)

type payload = Compiled.t * Lazy_dfa.portable array option

let to_payload (c : Compiled.t) : payload =
  match c.Compiled.engines with
  | None -> (c, None)
  | Some engines ->
      ( { c with Compiled.engines = None },
        Some (Array.map Lazy_dfa.to_portable engines) )

let of_payload ((c, engines) : payload) : Compiled.t =
  match engines with
  | None -> c
  | Some ps ->
      let engines =
        Array.mapi
          (fun i p ->
            Lazy_dfa.of_portable ~opts:c.Compiled.opts c.Compiled.atn
              c.Compiled.atn.Atn.decisions.(i) p)
          ps
      in
      { c with Compiled.engines = Some engines }

(* Digest of the compilation result with the volatile parts normalized
   away: the provenance tag (a cache hit is re-tagged [From_cache]) and
   the report's measured wall-clock analysis time, neither of which is a
   product of the analysis itself.  Because marshaling is deterministic
   for identically constructed values -- and lazy engines are digested in
   their canonical portable form, which is discovery-order independent --
   two compilations of the same grammar agree on this digest iff they
   produced the same ATN, DFAs (or materialized lazy state set), warnings
   and report: the determinism oracle the parallel-analysis tests check
   against the sequential build.

   The digest marshals with [No_sharing]: default marshaling encodes
   *physical* sharing (two structurally equal values whose internal cons
   cells are shared differently produce different bytes), and sharing of
   config stacks between DFA states is an artifact of closure evaluation
   order -- under concurrent lazy growth it varies with task interleaving
   even when every state is identical.  [No_sharing] makes the bytes a
   pure function of structure.  It would diverge on cyclic input, but
   every type reachable from a payload is an immutable tree (ATN edges
   and config stacks are integer indices, never back-pointers).  The
   on-disk blob in [save] keeps default sharing: there it is a size
   optimization, and round-tripping does not care about bytes. *)
let payload_digest (c : Compiled.t) : string =
  let c = Compiled.with_origin c Compiled.Fresh in
  let c =
    {
      c with
      Compiled.report =
        { c.Compiled.report with Report.analysis_time = 0.0 };
    }
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (to_payload c) [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Save / load *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Stale temp sweeping.

   [save] names its temp [.<key>-<seq>.tmp.<pid>]; a writer that crashes (or is
   killed) between [open_out_bin] and [Sys.rename] leaves that file behind
   forever -- nothing else ever opens it, so a long-lived process pointing
   many compilations at one cache directory accumulates junk without
   bound.  The sweep removes a temp when its embedded writer pid no longer
   exists (kill 0 -> ESRCH: the writer is gone, the file can never be
   renamed) or, for pids we cannot probe (recycled or unparseable), when
   the file is older than [stale_temp_age_s] -- far beyond any real write,
   which lasts milliseconds.  A concurrent writer's in-flight temp is
   young and its pid alive, so it survives on both counts. *)

let stale_temp_age_s = 3600.0

let temp_writer_pid (name : string) : int option =
  (* [.<hexkey>-<seq>.tmp.<pid>]; only the trailing [.tmp.<pid>] matters *)
  if String.length name = 0 || name.[0] <> '.' then None
  else
    match String.rindex_opt name '.' with
    | None -> None
    | Some i -> (
        let infix_start = i - String.length ".tmp" in
        if infix_start < 0 || String.sub name infix_start 4 <> ".tmp" then None
        else
          match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
          | Some pid when pid > 0 -> Some pid
          | _ -> None)

let pid_alive (pid : int) : bool =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  (* EPERM: the pid exists but belongs to someone else *)
  | exception Unix.Unix_error (_, _, _) -> true

(* Remove stale writer temps from [dir]; returns the removed paths.
   Removal errors are swallowed (another sweeper can win the race), and a
   missing or unreadable directory sweeps nothing. *)
let gc_stale_temps ?(max_age_s = stale_temp_age_s) ~dir () : string list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let now = Unix.gettimeofday () in
      let removed = ref [] in
      Array.iter
        (fun name ->
          match temp_writer_pid name with
          | None -> ()
          | Some pid ->
              let path = Filename.concat dir name in
              let stale =
                if not (pid_alive pid) then true
                else
                  match Unix.stat path with
                  | st -> now -. st.Unix.st_mtime > max_age_s
                  | exception Unix.Unix_error (_, _, _) -> false
              in
              if stale then (
                match Sys.remove path with
                | () -> removed := path :: !removed
                | exception Sys_error _ -> ()))
        names;
      List.rev !removed

(* One sweep per directory per process: [compile] is on the request path
   of a long-lived server, and a readdir per compilation would scale with
   cache size.  The guard is keyed by the raw path string; a directory
   reached through two spellings is swept twice, which is harmless. *)
let swept_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let swept_lock = Mutex.create ()

let sweep_once ~dir : unit =
  let first =
    Mutex.lock swept_lock;
    let f = not (Hashtbl.mem swept_dirs dir) in
    if f then Hashtbl.replace swept_dirs dir ();
    Mutex.unlock swept_lock;
    f
  in
  if first then ignore (gc_stale_temps ~dir ())

(* Distinguishes concurrent writers within one process: the pid suffix
   alone is shared by every domain/thread, and two writers sharing a temp
   path interleave their output -- the rename then publishes a torn blob
   (or fails with ENOENT for the loser). *)
let temp_seq = Atomic.make 0

let save ~dir (c : Compiled.t) : (string, string) result =
  let k = key_of c in
  let path = cache_file ~dir k in
  try
    mkdir_p dir;
    let payload = Marshal.to_string (to_payload c) [] in
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".%s-%d.tmp.%d" k
           (Atomic.fetch_and_add temp_seq 1)
           (Unix.getpid ()))
    in
    let oc = open_out_bin tmp in
    output_string oc magic;
    output_string oc k;
    output_string oc (Digest.to_hex (Digest.string payload));
    output_string oc payload;
    close_out oc;
    Sys.rename tmp path;
    Ok path
  with e -> Error (Printexc.to_string e)

(* Load the blob for key [k]; any validation failure means a rebuild. *)
let load_key ?(tracer = Obs.Trace.null) ~dir (k : string) : Compiled.t option
    =
  let path = cache_file ~dir k in
  let result =
    match open_in_bin path with
    | exception _ -> None
    | ic ->
        let result =
          try
            let m = really_input_string ic (String.length magic) in
            if m <> magic then None
            else
              let file_key = really_input_string ic (String.length k) in
              if file_key <> k then None
              else
                let digest = really_input_string ic 32 in
                let len = in_channel_length ic - pos_in ic in
                if len <= 0 then None
                else
                  let payload = really_input_string ic len in
                  if Digest.to_hex (Digest.string payload) <> digest then None
                  else
                    let p : payload = Marshal.from_string payload 0 in
                    let c = of_payload p in
                    Some (Compiled.with_origin c Compiled.From_cache)
          with _ -> None
        in
        close_in_noerr ic;
        result
  in
  if Obs.Trace.on tracer then
    Obs.Trace.emit tracer
      (Obs.Trace.Cache_load { key = k; hit = result <> None });
  result

let load ?tracer ?analysis_opts ?strategy ~dir (g : Grammar.Ast.t) :
    Compiled.t option =
  load_key ?tracer ~dir (key ?analysis_opts ?strategy g)

(* ------------------------------------------------------------------ *)
(* Load-or-rebuild entry points *)

let compile ?tracer ?analysis_opts ?grammar_source ?pool
    ?(strategy = Compiled.Eager) ~dir (g : Grammar.Ast.t) :
    (Compiled.t * outcome, Compiled.error) result =
  sweep_once ~dir;
  let k = key ?analysis_opts ~strategy g in
  match load_key ?tracer ~dir k with
  | Some c -> Ok (c, Hit)
  | None -> (
      match
        Compiled.compile ?analysis_opts ?grammar_source ?pool ~strategy g
      with
      | Error e -> Error e
      | Ok c ->
          (* Best effort: a read-only or full cache directory must not fail
             the compilation. *)
          ignore (save ~dir c);
          Ok (c, Miss))

let of_source ?tracer ?analysis_opts ?pool ?strategy ~dir (src : string) :
    (Compiled.t * outcome, Compiled.error) result =
  match Grammar.Meta_parser.parse_result src with
  | Error msg -> Error (Compiled.Message msg)
  | Ok surface ->
      compile ?tracer ?analysis_opts ~grammar_source:src ?pool ?strategy ~dir
        surface

let of_source_exn ?analysis_opts ?pool ?strategy ~dir src =
  match of_source ?analysis_opts ?pool ?strategy ~dir src with
  | Ok r -> r
  | Error e -> failwith (Fmt.str "%a" Compiled.pp_error e)
