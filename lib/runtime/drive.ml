(* Bytes to verdict: the one streaming pass every parse front end runs.

   LL-star parses in one pass over a token stream that speculation may
   rewind (paper section 4).  Here that pass is: the chunked lexer reads
   the input, a bounded token window ({!Token_stream.of_pull}) holds the
   tokens speculation can still rewind to, a backend (the interpreter or
   a generated parser) parses as tokens arrive, and the rest of the input
   is drained afterwards.  The CLI's parse (one input or a batch), the
   serve handler, and the test and bench references all call [run]; the
   rules below live here and nowhere else:

   - drain: the whole input is always scanned, so a lex error anywhere
     wins over the parse verdict, and the token total is the input's --
     the verdict and count lexing everything first would give;
   - budget: with [max_tokens], every pull checks the count produced so
     far and stops the parse once it is crossed; the drain then counts
     the rest (a lex error still wins);
   - window: the token window and the lexer's byte buffer both start
     small and grow from what arrives, so a short input costs what it
     fills whatever [window] asks for (up to [max_int]);
   - results: [consumed] is every produced token under [recover] (recovery
     consumes to the end by design), and a tree is built only when [tree]
     or [recover] asks for one.  Without them the interpreter runs
     {!Interp.recognize_run}, which allocates no tree. *)

type backend = Interp | Generated of (module Generated.PARSER)

type parsed = {
  ok : bool;
  errors : Parse_error.t list; (* in input order; [] when [ok] *)
  consumed : int; (* tokens consumed when the parse stopped *)
  tree : Tree.t option; (* when asked for and the parse succeeded *)
  produced : int; (* tokens in the whole input *)
  peak_live : int; (* most tokens resident in the window at once *)
}

type verdict =
  | Lex_error of Lexer_engine.error
  | Token_budget of int (* tokens in the whole input, counted by the drain *)
  | Parsed of parsed

(* The generated backends parse without recovery or trees; callers
   reject those requests before they get here. *)
let run ?(window = Token_stream.default_window) ?max_tokens
    ?(recover = false) ?(tree = false) ?start ?(env = Interp.default_env)
    ?profile ?(tracer = Obs.Trace.null)
    (config : Lexer_engine.config) (backend : backend) (c : Llstar.Compiled.t)
    (read : Lexer_engine.reader) : verdict =
  let ls = Lexer_engine.stream ~tracer config (Llstar.Compiled.sym c) read in
  let exception Over_budget in
  let pull =
    let pull = Lexer_engine.pull ls in
    match max_tokens with
    | None -> pull
    | Some limit ->
        fun () ->
          if Lexer_engine.produced ls > limit then raise Over_budget;
          pull ()
  in
  let ts = Token_stream.of_pull ~window pull in
  let parse () =
    match backend with
    | Generated (module P) ->
        if recover || tree then
          invalid_arg "Drive.run: a generated parser has no recovery or tree";
        let o = P.outcome_stream ~env ?profile ts in
        (o.Generated.ok, Option.to_list o.Generated.error, None)
    | Interp -> (
        let t = Interp.create ~env ?profile ~tracer ~recover c ts in
        if tree || recover then
          match Interp.run t ?start () with
          | Ok tr -> (true, [], Some tr)
          | Error errors -> (false, errors, None)
        else
          match Interp.recognize_run t ?start () with
          | Ok () -> (true, [], None)
          | Error errors -> (false, errors, None))
  in
  let drained k =
    match Lexer_engine.drain ls with
    | Error e -> Lex_error e
    | Ok _ -> k (Lexer_engine.produced ls)
  in
  match parse () with
  | exception Lexer_engine.Lex_error e -> Lex_error e
  | exception Over_budget -> drained (fun n -> Token_budget n)
  | ok, errors, tree ->
      drained (fun produced ->
          match max_tokens with
          | Some limit when produced > limit -> Token_budget produced
          | _ ->
              let consumed =
                if recover then produced else Token_stream.index ts
              in
              Parsed
                {
                  ok;
                  errors;
                  consumed;
                  tree;
                  produced;
                  peak_live = Token_stream.peak_live ts;
                })
