(* Seeded inputs.  The program under test only ever sees what these
   functions generate: corpora for the six bench grammars, a repeated-prefix
   StreamScale program, token-mutated variants, and small programs for the
   client grammars the serve clients load. *)

module Workload = Bench_grammars.Workload
module Le = Runtime.Lexer_engine

(* One grammar as the benchmark drives it: compiled grammar, lexer
   configuration, predicate environment, generated parser if there is
   one, and the in-process inputs with their expected acceptance. *)
type target = {
  name : string;
  c : Llstar.Compiled.t;
  config : Le.config;
  env : Runtime.Interp.env;
  gen : (module Runtime.Generated.PARSER) option;
  texts : string array;
  expect_ok : bool array;
}

let specs : Workload.spec list = Serve.Registry.builtin_specs

(* With [reuse_compiled] set (the self-test, which runs every workload in
   one process), a grammar is analyzed once and reused. *)
let reuse_compiled = ref false
let compiled_memo : (string, Llstar.Compiled.t) Hashtbl.t = Hashtbl.create 8

let compile_exn (name : string) (src : string) : Llstar.Compiled.t =
  match Hashtbl.find_opt compiled_memo src with
  | Some c when !reuse_compiled -> c
  | _ -> (
      match Llstar.Compiled.of_source src with
      | Ok c ->
          if !reuse_compiled then Hashtbl.replace compiled_memo src c;
          c
      | Error e -> failwith (Fmt.str "%s: %a" name Llstar.Compiled.pp_error e))

(* Corpus of [target_tokens] for one bench grammar: the handwritten
   samples plus seeded generated programs, each validated to parse. *)
let corpus ~(seed : int) ~(target_tokens : int) (spec : Workload.spec)
    (c : Llstar.Compiled.t) : string array =
  let cw =
    { Workload.spec; c; gen = Grammar.Sentence_gen.prepare c.Llstar.Compiled.surface }
  in
  Array.of_list (Workload.build_corpus ~seed cw ~target_tokens).Workload.texts

let builtin_target ~(texts : string array) ~(expect_ok : bool array)
    (spec : Workload.spec) (c : Llstar.Compiled.t) : target =
  {
    name = spec.Workload.name;
    c;
    config = spec.Workload.lexer_config;
    env = Workload.env_of_spec spec;
    gen = Gen.Registry.find spec.Workload.name;
    texts;
    expect_ok;
  }

(* ------------------------------------------------------------------ *)
(* StreamScale: both statement alternatives share an unbounded
   [ID ('[' expr ']')*] prefix, so every statement speculates to the
   '=' or ';' that tells them apart. *)

let scale_ids = [| "x"; "y"; "arr"; "m"; "grid" |]

let scale_index rng =
  match Random.State.int rng 4 with
  | 0 -> Printf.sprintf "i + %d" (1 + Random.State.int rng 9)
  | 1 -> Printf.sprintf "j * %d" (2 + Random.State.int rng 7)
  | 2 -> Printf.sprintf "( k - %d )" (Random.State.int rng 5)
  | _ -> scale_ids.(Random.State.int rng (Array.length scale_ids))

(* Statements are emitted until at least [tokens] tokens are written;
   the shape mix is fixed, only the choices vary with the seed, so the
   per-statement cost is the same on average for every seed. *)
let scale_text ~(rng : Random.State.t) ~(tokens : int) : string =
  let b = Buffer.create (tokens * 3) in
  let n = ref 0 in
  let word w =
    Buffer.add_string b w;
    Buffer.add_char b ' ';
    incr n
  in
  let words s = List.iter word (String.split_on_char ' ' s) in
  while !n < tokens do
    word scale_ids.(Random.State.int rng (Array.length scale_ids));
    for _ = 1 to 1 + Random.State.int rng 2 do
      word "[";
      words (scale_index rng);
      word "]"
    done;
    if Random.State.bool rng then begin
      word "=";
      words (scale_index rng);
      word "+";
      word (string_of_int (Random.State.int rng 100))
    end;
    word ";";
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Token mutation: duplicate one token of a valid program.  A candidate
   is kept only if it still lexes and the interpreter rejects it, so a
   mutated input always gets a parse error, never a lex error. *)

let offset_of (text : string) ~(line : int) ~(col : int) : int =
  let l = ref 1 and i = ref 0 in
  while !l < line && !i < String.length text do
    if text.[!i] = '\n' then incr l;
    incr i
  done;
  !i + col - 1

let mutate ~(rng : Random.State.t) (t : target) (text : string) :
    string option =
  let sym = Llstar.Compiled.sym t.c in
  match Le.tokenize t.config sym text with
  | Error _ -> None
  | Ok toks when Array.length toks < 4 -> None
  | Ok toks ->
      let rec attempt k =
        if k = 0 then None
        else
          let tok = toks.(1 + Random.State.int rng (Array.length toks - 2)) in
          let stop =
            offset_of text ~line:tok.Runtime.Token.line ~col:tok.Runtime.Token.col
            + String.length tok.Runtime.Token.text
          in
          let mutated =
            String.sub text 0 stop ^ " " ^ tok.Runtime.Token.text
            ^ String.sub text stop (String.length text - stop)
          in
          match Le.tokenize t.config sym mutated with
          | Error _ -> attempt (k - 1)
          | Ok mtoks -> (
              match
                Runtime.Interp.recognize ~env:t.env t.c mtoks
              with
              | Error _ -> Some mutated
              | Ok () -> attempt (k - 1))
      in
      attempt 20

(* ------------------------------------------------------------------ *)
(* Client grammars for serve [load] requests, with inputs the default
   lexer configuration (ID, INT) can scan. *)

type client_grammar = { source : string; inputs : string array }

let expr_text rng =
  let b = Buffer.create 128 in
  let rec e depth =
    if depth > 3 || Random.State.int rng 3 = 0 then
      Buffer.add_string b
        (if Random.State.bool rng then string_of_int (Random.State.int rng 1000)
         else scale_ids.(Random.State.int rng (Array.length scale_ids)))
    else if Random.State.int rng 4 = 0 then begin
      Buffer.add_string b "( ";
      e (depth + 1);
      Buffer.add_string b " )"
    end
    else begin
      e (depth + 1);
      Buffer.add_string b
        [| " + "; " - "; " * "; " / " |].(Random.State.int rng 4);
      e (depth + 1)
    end
  in
  for _ = 1 to 4 do
    e 0;
    Buffer.add_string b " + "
  done;
  Buffer.add_string b "1";
  Buffer.contents b

let json_text rng =
  let b = Buffer.create 128 in
  let rec v depth =
    if depth >= 3 || Random.State.int rng 3 = 0 then
      Buffer.add_string b
        [| "1"; "42"; "true"; "false"; "null"; "7" |].(Random.State.int rng 6)
    else begin
      Buffer.add_string b "[ ";
      let n = 1 + Random.State.int rng 4 in
      for i = 1 to n do
        v (depth + 1);
        if i < n then Buffer.add_string b " , "
      done;
      Buffer.add_string b " ]"
    end
  in
  Buffer.add_string b "[ ";
  for i = 1 to 4 do
    v 1;
    if i < 4 then Buffer.add_string b " , "
  done;
  Buffer.add_string b " ]";
  Buffer.contents b

let client_grammars ~(rng : Random.State.t) : client_grammar array =
  [|
    { source = Grammar_texts.expr;
      inputs = Array.init 8 (fun _ -> expr_text rng) };
    { source = Grammar_texts.json;
      inputs = Array.init 8 (fun _ -> json_text rng) };
    { source = Grammar_texts.stream_scale;
      inputs = Array.init 8 (fun _ -> scale_text ~rng ~tokens:60) };
  |]
