(* Batched parsing driver: run one compiled grammar over many inputs,
   optionally across the worker domains of an [Exec.Pool].

   Scheduling model ("per-input parser state is naturally isolated"): the
   input list is split into several chunks per worker
   ([Exec.Pool.chunk_ranges]); each chunk is one pool task that owns
   everything mutable it touches -- its token streams, one interpreter
   per input, its own [Profile] (metrics registry).  Chunks queue in the
   pool's shared run queue, so uneven inputs no longer serialize on the
   slowest shard.  The only shared value is the compiled grammar, which is
   read-only once the vocabulary is frozen, so batches run at any job
   count with byte-identical results.

   Determinism: outcomes are written into a result slot per input index
   and chunks are awaited in order, so the returned array is in input
   order whatever the interleaving; per-chunk metrics registries are
   merged into the caller's profile in chunk (= input) order.

   Failure contract (fail-fast with a full drain): an exception raised
   while parsing one input stops that chunk at that input; every other
   chunk still runs to completion and is merged, and then the exception
   of the smallest raising input index is re-raised -- the same exception
   a sequential run would have hit first, after all tasks are drained (no
   task is left running against freed state, no completed work is
   silently dropped). *)

type input = { name : string; text : string }

type outcome =
  | Parsed of { tokens : int }
  | Lex_error of Lexer_engine.error
  | Parse_errors of { tokens : int; errors : Parse_error.t list }

type result_ = { input : input; outcome : outcome }

let outcome_ok = function Parsed _ -> true | _ -> false

let pp_outcome ppf (sym, r) =
  match r.outcome with
  | Parsed { tokens } -> Fmt.pf ppf "%s: parsed %d tokens" r.input.name tokens
  | Lex_error e ->
      Fmt.pf ppf "%s: lex error: %a" r.input.name Lexer_engine.pp_error e
  | Parse_errors { tokens; errors } ->
      Fmt.pf ppf "%s: %d tokens, %d parse errors:@.  %a" r.input.name tokens
        (List.length errors)
        Fmt.(list ~sep:(any "@.  ") (Parse_error.pp sym))
        errors

(* Parse one input with shard-local state. *)
let run_one ~config ~env ~profile ~recover ?start (c : Llstar.Compiled.t)
    (input : input) : outcome =
  let sym = Llstar.Compiled.sym c in
  match Lexer_engine.tokenize config sym input.text with
  | Error e -> Lex_error e
  | Ok toks -> (
      match Interp.parse ~env ~profile ~recover ?start c toks with
      | Ok _tree -> Parsed { tokens = Array.length toks }
      | Error errors ->
          Parse_errors { tokens = Array.length toks; errors })

(* Parse every input; [pool] spreads the list across its workers in
   chunks.  The merged per-chunk metrics land in [profile] when given.
   See the header for the scheduling and failure contracts. *)
let run ?pool ?(config = Lexer_engine.default_config)
    ?(env = Interp.default_env) ?profile ?(recover = false) ?start
    (c : Llstar.Compiled.t) (inputs : input list) : result_ array =
  let jobs = match pool with None -> 1 | Some p -> Exec.Pool.jobs p in
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let results : outcome option array = Array.make n None in
  (match pool with
  | Some p when jobs > 1 && n > 1 ->
      let chunk (lo, hi) =
        Exec.Pool.submit p (fun () ->
            (* Chunk-local profile: no synchronization on the hot path;
               merged below, after the join.  A raising input stops this
               chunk (fail-fast) but is reported, not re-raised, so the
               join below can drain and merge every task first. *)
            let sp = Profile.create () in
            let outs = Array.make (hi - lo) None in
            let failure = ref None in
            let i = ref lo in
            while !failure = None && !i < hi do
              (match
                 run_one ~config ~env ~profile:sp ~recover ?start c
                   inputs.(!i)
               with
              | o -> outs.(!i - lo) <- Some o
              | exception e ->
                  failure := Some (!i, e, Printexc.get_raw_backtrace ()));
              incr i
            done;
            (outs, sp, !failure))
      in
      let tasks =
        List.map
          (fun range -> (range, chunk range))
          (Exec.Pool.chunk_ranges ~jobs n)
      in
      (* Drain every task before surfacing any failure: completed outcomes
         are merged whatever happened elsewhere, and the exception raised
         (if any) is the one at the smallest input index -- exactly the
         one a sequential run would have hit first. *)
      let first_failure = ref None in
      let note_failure ((i, _, _) as f) =
        match !first_failure with
        | Some (j, _, _) when j <= i -> ()
        | _ -> first_failure := Some f
      in
      List.iter
        (fun ((lo, _hi), task) ->
          match Exec.Pool.await task with
          | outs, sp, failure ->
              Array.iteri
                (fun i o ->
                  match o with
                  | Some o -> results.(lo + i) <- Some o
                  | None -> ())
                outs;
              (match profile with
              | Some into -> Profile.merge ~into sp
              | None -> ());
              Option.iter note_failure failure
          | exception e ->
              (* Defensive: the chunk body catches per-input exceptions,
                 so a raising await means the task itself died (resource
                 exhaustion); attribute it to the chunk's first input. *)
              note_failure (lo, e, Printexc.get_raw_backtrace ()))
        tasks;
      (match !first_failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
  | _ ->
      let sp = match profile with Some p -> p | None -> Profile.create () in
      Array.iteri
        (fun i input ->
          results.(i) <- Some (run_one ~config ~env ~profile:sp ~recover ?start c input))
        inputs);
  Array.mapi
    (fun i input -> { input; outcome = Option.get results.(i) })
    inputs

(* Total token count across successfully lexed inputs, for throughput. *)
let total_tokens (rs : result_ array) : int =
  Array.fold_left
    (fun acc r ->
      match r.outcome with
      | Parsed { tokens } | Parse_errors { tokens; _ } -> acc + tokens
      | Lex_error _ -> acc)
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
