(* Shared helpers for the test suite. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Compile a grammar from metalanguage source, failing the test on error. *)
let compile src =
  match Llstar.Compiled.of_source src with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %a" Llstar.Compiled.pp_error e

let compile_err src =
  match Llstar.Compiled.of_source src with
  | Ok _ -> Alcotest.fail "expected compilation to fail"
  | Error e -> Fmt.str "%a" Llstar.Compiled.pp_error e

(* Lex [input] against [c]'s vocabulary with the default C-like config. *)
let lex ?(config = Runtime.Lexer_engine.default_config) c input =
  Runtime.Lexer_engine.tokenize_exn config (Llstar.Compiled.sym c) input

let parse ?env ?config ?start c input =
  Runtime.Interp.parse ?env ?start c (lex ?config c input)

let parses ?env ?config ?start c input =
  match parse ?env ?config ?start c input with Ok _ -> true | Error _ -> false

let parse_tree ?env ?config ?start c input =
  match parse ?env ?config ?start c input with
  | Ok t -> Runtime.Tree.to_string (Llstar.Compiled.sym c) t
  | Error errs ->
      Alcotest.failf "parse of %S failed: %a" input
        Fmt.(list (Runtime.Parse_error.pp (Llstar.Compiled.sym c)))
        errs

let first_error ?env ?config ?start c input =
  match parse ?env ?config ?start c input with
  | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" input
  | Error [] -> Alcotest.fail "error result with no errors"
  | Error (e :: _) -> e

(* Classification of decision [i]. *)
let klass c i = c.Llstar.Compiled.results.(i).Llstar.Analysis.klass

let klass_str c i =
  match klass c i with
  | Llstar.Analysis.Fixed k -> Printf.sprintf "LL(%d)" k
  | Llstar.Analysis.Cyclic -> "cyclic"
  | Llstar.Analysis.Backtrack -> "backtrack"

(* Find the decision id of rule [name]'s alternative choice. *)
let rule_decision c name =
  let atn = c.Llstar.Compiled.atn in
  let rid =
    match Atn.rule_by_name atn name with
    | Some r -> r
    | None -> Alcotest.failf "no rule %s" name
  in
  let found = ref (-1) in
  Array.iter
    (fun (d : Atn.decision) ->
      if d.Atn.d_rule = rid && d.Atn.d_kind = Atn.Rule_decision then
        found := d.Atn.d_id)
    atn.Atn.decisions;
  if !found < 0 then Alcotest.failf "rule %s has no decision" name;
  !found

(* A chunk source over a pinned token array, for driving the streaming
   window ([Token_stream.of_pull]) against a known materialized input. *)
let pull_of_array ?(chunk = 4) toks =
  let pos = ref 0 in
  fun () ->
    let n = min chunk (Array.length toks - !pos) in
    if n <= 0 then [||]
    else begin
      let a = Array.sub toks !pos n in
      pos := !pos + n;
      a
    end

(* Tests run from _build/default/test; walk upward to find a checked-in
   path such as the fuzz-corpus directory.  [None] (e.g. in a sandboxed
   run) lets the caller pass trivially. *)
let find_up rel =
  let rec go dir depth =
    if depth > 5 then None
    else
      let cand = Filename.concat dir rel in
      if Sys.file_exists cand then Some cand
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else go parent (depth + 1)
  in
  go (Sys.getcwd ()) 0

(* Source text of a grammar in [examples/grammars]. *)
let example_grammar name =
  match find_up "examples/grammars" with
  | Some dir ->
      In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  | None -> Alcotest.fail "examples/grammars not found"

let test name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Substring containment, for error-message checks. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Occurrences of [sub] in [s], overlapping ones included. *)
let occurrences (s : string) (sub : string) : int =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  if m = 0 then 0 else go 0 0

(* The non-empty lines of a Prometheus text-format body. *)
let prom_lines (s : string) : string list =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* A parse verdict comparable across the materialized and streaming
   paths.  A lex error carries its position, so a streamed scan that
   fails somewhere else counts as a divergence. *)
type verdict = Lex_failed of int * int | Parsed of Runtime.Generated.outcome

let verdict_agree a b =
  match (a, b) with
  | Lex_failed (l1, c1), Lex_failed (l2, c2) -> l1 = l2 && c1 = c2
  | Parsed a, Parsed b -> Runtime.Generated.agree a b
  | Lex_failed _, Parsed _ | Parsed _, Lex_failed _ -> false

let describe_verdict = function
  | Lex_failed (l, c) -> Printf.sprintf "lex-error@%d:%d" l c
  | Parsed o -> Runtime.Generated.describe o

(* Lex all of [text] into a pinned array, then run Interp over it; also
   the token count. *)
let materialized_verdict ?env ?(config = Runtime.Lexer_engine.default_config)
    c text : verdict * int =
  let module Le = Runtime.Lexer_engine in
  match Le.tokenize config (Llstar.Compiled.sym c) text with
  | Error e -> (Lex_failed (e.Le.line, e.Le.col), 0)
  | Ok toks ->
      (Parsed (Runtime.Generated.interp_outcome ?env c toks), Array.length toks)

(* [text] through {!Runtime.Drive.run} at [window]: the chunked lexer
   feeding a sliding token window into Interp, with the rest of the input
   drained after the verdict, so a lex error anywhere wins, as it does on
   the materialized path.  Also the tokens produced (0 on a lex error, as
   on the materialized path) and the window's peak resident tokens.
   [wrap_reader] lets a caller observe every read of the input. *)
let streamed_verdict ?env ?(config = Runtime.Lexer_engine.default_config)
    ?(wrap_reader = Fun.id) ~window c text : verdict * int * int =
  let module D = Runtime.Drive in
  match
    D.run ?env ~window ~input_bytes:(String.length text) config D.Interp c
      (wrap_reader (Runtime.Lexer_engine.reader_of_string text))
  with
  | D.Lex_error { line; col; _ } -> (Lex_failed (line, col), 0, 0)
  | D.Token_budget _ -> assert false (* no budget is given *)
  | D.Parsed p ->
      let error = match p.D.errors with e :: _ -> Some e | [] -> None in
      let consumed = p.D.consumed in
      ( Parsed { Runtime.Generated.ok = p.D.ok; error; consumed },
        p.D.produced,
        p.D.peak_live )
