(* Batched parsing driver: run one compiled grammar over many inputs,
   optionally across the worker domains of an [Exec.Pool].  Each input
   streams through {!Drive.run}, the same pass as a single-input parse.

   Scheduling model ("per-input parser state is naturally isolated"): the
   input list is split into several chunks per worker
   ([Exec.Pool.map_chunks]); each chunk is one pool task that owns
   everything mutable it touches -- its token streams, one interpreter
   per input, its own [Profile] (metrics registry).  Chunks queue in the
   pool's shared run queue, so uneven inputs no longer serialize on the
   slowest shard.  The only shared value is the compiled grammar, which is
   read-only once the vocabulary is frozen, so batches run at any job
   count with byte-identical results.

   Determinism: each chunk returns its outcomes in input order and chunks
   are awaited in order, so the returned array is in input order whatever
   the interleaving; per-chunk metrics registries are merged into the
   caller's profile in chunk (= input) order.

   Failure contract (fail-fast with a full drain): an exception raised
   while parsing one input stops that chunk at that input; every other
   chunk still runs to completion and is merged, and then the exception
   of the smallest raising input index is re-raised -- the same exception
   a sequential run would have hit first, after all tasks are drained (no
   task is left running against freed state, no completed work is
   silently dropped). *)

type input = { name : string; text : string }
type result_ = { input : input; outcome : Drive.verdict }

let outcome_ok = function Drive.Parsed p -> p.ok | _ -> false

let pp_outcome ppf (sym, r) =
  match r.outcome with
  | Drive.Parsed { ok = true; produced; _ } ->
      Fmt.pf ppf "%s: parsed %d tokens" r.input.name produced
  | Drive.Parsed { produced; errors; _ } ->
      Fmt.pf ppf "%s: %d tokens, %d parse errors:@.  %a" r.input.name produced
        (List.length errors)
        Fmt.(list ~sep:(any "@.  ") (Parse_error.pp sym))
        errors
  | Drive.Lex_error e ->
      Fmt.pf ppf "%s: lex error: %a" r.input.name Lexer_engine.pp_error e
  | Drive.Token_budget n ->
      Fmt.pf ppf "%s: %d tokens, over the token budget" r.input.name n

(* Parse one input with shard-local state, streamed at the default
   window. *)
let run_one ~config ~env ~profile ~recover ?start (c : Llstar.Compiled.t)
    (input : input) : result_ =
  let outcome =
    Drive.run ~recover ?start ~env ~profile
      ~input_bytes:(String.length input.text) config Drive.Interp c
      (Lexer_engine.reader_of_string input.text)
  in
  { input; outcome }

(* Parse every input; [pool] spreads the list across its workers in
   chunks.  The merged per-chunk metrics land in [profile] when given.
   See the header for the scheduling and failure contracts. *)
let run ?pool ?(config = Lexer_engine.default_config)
    ?(env = Interp.default_env) ?profile ?(recover = false) ?start
    (c : Llstar.Compiled.t) (inputs : input list) : result_ array =
  let inputs = Array.of_list inputs in
  let shared = match profile with Some p -> p | None -> Profile.create () in
  Exec.Pool.map_chunks ?pool ~shared ~local:Profile.create
    ~merge:(fun sp -> Option.iter (fun into -> Profile.merge ~into sp) profile)
    (fun profile (lo, hi) ->
      Array.map
        (run_one ~config ~env ~profile ~recover ?start c)
        (Array.sub inputs lo (hi - lo)))
    (Array.length inputs)
  |> Array.concat

(* Total token count across successfully lexed inputs, for throughput. *)
let total_tokens (rs : result_ array) : int =
  Array.fold_left
    (fun acc r ->
      match r.outcome with
      | Drive.Parsed p -> acc + p.produced
      | Drive.Lex_error _ | Drive.Token_budget _ -> acc)
    0 rs

(* Read a file-list argument: "@manifest" names a file with one input path
   per line (blank lines and #-comments skipped); anything else is an
   input path itself. *)
let expand_manifests (args : string list) : (string list, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | arg :: rest when String.length arg > 1 && arg.[0] = '@' -> (
        let manifest = String.sub arg 1 (String.length arg - 1) in
        match open_in manifest with
        | exception Sys_error e -> Error e
        | ic ->
            let lines = ref [] in
            (try
               while true do
                 let line = String.trim (input_line ic) in
                 if line <> "" && line.[0] <> '#' then lines := line :: !lines
               done
             with End_of_file -> close_in ic);
            (* [!lines] is already reversed; the final [List.rev] restores
               manifest order. *)
            go (!lines @ acc) rest)
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_inputs (paths : string list) : (input list, string) result =
  match expand_manifests paths with
  | Error e -> Error e
  | Ok paths -> (
      try
        Ok
          (List.map
             (fun p ->
               match read_file p with
               | text -> { name = p; text }
               | exception Sys_error e -> raise (Sys_error e))
             paths)
      with Sys_error e -> Error e)
