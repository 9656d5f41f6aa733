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

let test name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Substring containment, for error-message checks. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
