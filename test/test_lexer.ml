(* Lexer engine: equivalence, window-edge and shared-table checks.

   - Golden: a digest of every token (type, text, line, col, index), every
     error and every lexer trace event over the six benchmark corpora,
     the grammars' handwritten samples, seeded byte-level mutations of
     them and hand-written corner cases.  The constants below were
     recorded from the original closure-per-token scanner; any rewrite of
     the scanner must reproduce them exactly.
   - Window edges: chunked scanning through a small window equals
     whole-string scanning on the mutated corpora, so tokens straddle the
     window edge in every class loop and sub-scanner.
   - Shared tables: tokenizing from a domain pool with more vocabularies
     than the table cache holds equals a sequential run, and an unfrozen
     vocabulary that gains a literal lexes it on the next call. *)

open Helpers
module Workload = Bench_grammars.Workload
module L = Runtime.Lexer_engine

(* One compiled grammar and its seed-1 corpus texts per spec, shared by
   every test here.  Corpus generation draws from [Random], whose
   algorithm changed in OCaml 5, so the texts differ between compiler
   generations. *)
let corpora =
  lazy
    (List.map
       (fun (spec : Workload.spec) ->
         let cw = Workload.compile spec in
         let corpus = Workload.build_corpus ~seed:1 ~target_tokens:20000 cw in
         (cw, corpus.Workload.texts))
       Bench_grammars.Specs.all)

(* A 48-bit linear congruential generator: unlike [Random], the same
   sequence on every compiler. *)
type lcg = { mutable state : int }

let below g n =
  g.state <- ((g.state * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
  (g.state lsr 17) mod n

(* Seeded byte-level mutation: replace, delete or insert one byte, the
   inserted/replacing bytes drawn from the characters that start or end
   sub-scanners. *)
let mutation_alphabet = "\"'/*@\n\r\t .0123456789-<>="

let mutate g text =
  let n = String.length text in
  let pick () = mutation_alphabet.[below g (String.length mutation_alphabet)] in
  let edit text =
    let n = String.length text in
    let p = below g (n + 1) in
    match below g 3 with
    | 0 when p < n ->
        String.sub text 0 p ^ String.make 1 (pick ())
        ^ String.sub text (p + 1) (n - p - 1)
    | 1 when p < n -> String.sub text 0 p ^ String.sub text (p + 1) (n - p - 1)
    | _ -> String.sub text 0 p ^ String.make 1 (pick ()) ^ String.sub text p (n - p)
  in
  let edits = 1 + below g (1 + (n / 64)) in
  let rec go k t = if k = 0 then t else go (k - 1) (edit t) in
  go (min edits 8) text

(* Each text followed by [per] mutants of it. *)
let mutated_texts ~seed ~per texts =
  let g = { state = seed } in
  List.concat_map (fun t -> t :: List.init per (fun _ -> mutate g t)) texts

let hand_cases =
  [
    "x = \"abc";
    "'a";
    "/* never closed";
    "a /* closed */ b /*/ c */ d /**/ e";
    "@";
    "@ x @y @@z";
    "1.";
    "1.5";
    ".5";
    "1..2 3.x 0.0.0";
    "a\n\n  \r\n\tb\n\n";
    "x\r\n\r\ny";
    "a--b - -c -- comment\n-d";
    "x = 'it''s' -- tail";
    "\"esc \\\" q\" 'c' '\\'' '\\\\'";
    "\"trailing \\";
    "\"multi\nline\" x";
    "'vb comment\nx = 1\n";
    "// only a comment";
    "$";
    "ID FLOAT STRING NL VAR Foo foo";
    "SELECT select SeLeCt From";
    "a<=b>=c<>d==e!=f&&g||h<<i>>j->k";
    "";
    "   \t  ";
  ]

(* An exotic configuration on top of each grammar's vocabulary: extra
   identifier characters (one of them a newline, so an identifier can span
   lines), case-insensitive keywords, two-byte openers that share a first
   byte with operators. *)
let exotic config =
  {
    config with
    L.extra_ident_start = "_$";
    extra_ident_cont = "_$\n";
    case_insensitive_keywords = true;
    line_comments = [ "#"; "--" ];
    block_comments = [ ("(*", "*)"); ("{", "}") ];
  }

(* Token classes the vocabulary lacks: each fails only when its class
   occurs in the input. *)
let missing config =
  {
    config with
    L.ident_token = None;
    int_token = Some "NO_INT";
    float_token = Some "NO_FLOAT";
    string_token = Some "NO_STRING";
    char_token = Some "NO_CHAR";
    at_ident_token = Some "NO_VAR";
    newline_token = Some "NO_NL";
  }

let describe_event buf ev =
  Buffer.add_string buf (Obs.Trace.label ev);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Obs.Json.write buf v)
    (Obs.Trace.args ev);
  Buffer.add_char buf '\n'

(* Append the outcome of tokenizing [text] -- tokens or error, then trace
   events -- to [buf]. *)
let record buf ring config sym text =
  Obs.Trace.Ring.clear ring;
  let tracer = Obs.Trace.ring ring in
  (match L.tokenize ~tracer config sym text with
  | Ok toks ->
      Array.iter
        (fun (t : Runtime.Token.t) ->
          Printf.bprintf buf "%d %S %d:%d #%d\n" t.ttype t.text t.line t.col
            t.index)
        toks
  | Error e -> Printf.bprintf buf "error %d:%d %S\n" e.L.line e.L.col e.L.msg);
  if Obs.Trace.Ring.total ring > Obs.Trace.Ring.capacity ring then
    Alcotest.fail "trace ring overflowed";
  List.iter (describe_event buf) (Obs.Trace.Ring.events ring);
  Buffer.add_string buf "--\n"

(* Digest of the outcomes over [texts] and [per] mutants of each, under
   the grammar's config and the exotic one, plus the hand cases under all
   three configs. *)
let digest_of (cw : Workload.compiled) ~per texts =
  let sym = Llstar.Compiled.sym cw.Workload.c in
  let config = cw.Workload.spec.lexer_config in
  let buf = Buffer.create (1 lsl 20) in
  let ring = Obs.Trace.Ring.create (1 lsl 16) in
  List.iter (record buf ring config sym) (mutated_texts ~seed:7 ~per texts);
  List.iter (record buf ring config sym) hand_cases;
  List.iter (record buf ring (exotic config) sym) hand_cases;
  List.iter (record buf ring (missing config) sym) hand_cases;
  List.iter
    (record buf ring (exotic config) sym)
    (List.filteri (fun i _ -> i < 40) texts);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Over each grammar's handwritten samples: the same on every compiler. *)
let golden_samples =
  [
    ("MiniJava", "53b28076e7f05f3cb9366a25b21eda48");
    ("RatsC", "99e510c2cf822198e722f0f0708c68ae");
    ("RatsJava", "cd73e0527509ff539ac4ea7244ea6c11");
    ("MiniVB", "d7d8ff3bcb5cf21284fb5b12f3d087f1");
    ("MiniSQL", "f10e60c187269394358413f8f6933acb");
    ("MiniCSharp", "621c9607dc45ed0e9512da7dfbaf17b9");
  ]

(* Over the seed-1 corpora, as OCaml 5's [Random] generates them. *)
let golden_corpora =
  [
    ("MiniJava", "577c2203cb81aba78ed82db0faafd753");
    ("RatsC", "1c28ba982d667306e367e285df5d3ab3");
    ("RatsJava", "9dc45ffcc7417fe748d5c3673c934ffe");
    ("MiniVB", "384da4900eb5afd2973a9be3c06190e7");
    ("MiniSQL", "39e3ec10a9ba71783c94b271790e04e9");
    ("MiniCSharp", "6c4782ea28a72e86e909628905fb7616");
  ]

let check_digests name golden ~per inputs =
  let got =
    List.map
      (fun ((cw : Workload.compiled), texts) ->
        (cw.Workload.spec.name, digest_of cw ~per (inputs cw texts)))
      (Lazy.force corpora)
  in
  check Alcotest.(list (pair string string)) name golden got

let golden_tests =
  [
    test "tokens, errors and trace events match the recorded digests"
      (fun () ->
        check_digests "samples" golden_samples ~per:40
          (fun (cw : Workload.compiled) _ -> cw.Workload.spec.samples);
        (* OCaml 4's generator draws other corpora, with no recorded
           digest; the samples above are checked on every compiler *)
        if Sys.ocaml_version >= "5" then
          check_digests "corpora" golden_corpora ~per:3 (fun _ texts ->
              texts));
  ]

(* ------------------------------------------------------------------ *)
(* Window edges *)

(* Tokens or first error, and the trace events. *)
let outcome lex =
  let ring = Obs.Trace.Ring.create 4096 in
  let result = lex (Obs.Trace.ring ring) in
  if Obs.Trace.Ring.total ring > Obs.Trace.Ring.capacity ring then
    Alcotest.fail "trace ring overflowed";
  (result, Obs.Trace.Ring.events ring)

let chunked ~buf_chars ~max_tokens config sym text tracer =
  let ls =
    L.stream ~tracer ~buf_chars config sym (L.reader_of_string text)
  in
  let rec go acc =
    match L.next_chunk ~max_tokens ls with
    | Error e -> Error e
    | Ok [||] -> Ok (Array.concat (List.rev acc))
    | Ok chunk -> go (chunk :: acc)
  in
  go []

(* The mutated texts one by one, and in runs of 16 so that inputs span
   several byte windows, through the default's growth from 1 KiB to
   4 KiB. *)
let edge_inputs texts =
  let mutated = mutated_texts ~seed:11 ~per:3 texts in
  let rec runs acc = function
    | [] -> List.rev acc
    | l ->
        let run = List.filteri (fun i _ -> i < 16) l in
        let rest = List.filteri (fun i _ -> i >= 16) l in
        runs (String.concat "\n" run :: acc) rest
  in
  mutated @ runs [] mutated

let windows_and_chunks =
  [
    (64, 1); (64, 7); (64, 256);
    (100, 1); (100, 7); (100, 256);
    (* the default window's initial size, then its first doubling *)
    (1024, 1); (1024, 7); (1024, 256);
    (2048, 1); (2048, 7); (2048, 256);
    (4096, 1); (4096, 7); (4096, 256);
  ]

let check_chunked_equals_whole (cw : Workload.compiled) texts =
  let sym = Llstar.Compiled.sym cw.Workload.c in
  let config = cw.Workload.spec.lexer_config in
  List.iter
    (fun text ->
      let whole = outcome (fun tracer -> L.tokenize ~tracer config sym text) in
      List.iter
        (fun (buf_chars, max_tokens) ->
          let got = outcome (chunked ~buf_chars ~max_tokens config sym text) in
          if got <> whole then
            Alcotest.failf
              "%s: window %d, chunk %d differs from whole on a %d-byte input \
               starting %S"
              cw.Workload.spec.name buf_chars max_tokens (String.length text)
              (String.sub text 0 (min 80 (String.length text))))
        windows_and_chunks)
    texts

let edge_tests =
  [
    test "chunked == whole on mutated corpora at every window and chunk size"
      (fun () ->
        List.iter
          (fun (cw, texts) -> check_chunked_equals_whole cw (edge_inputs texts))
          (Lazy.force corpora));
    test "long tokens grow the window; escapes straddle its edge" (fun () ->
        let cw, _ = List.hd (Lazy.force corpora) in
        let long c = String.make 10_000 c in
        (* escapes at every offset from the window edge *)
        let padded f =
          String.concat "\n" (List.init 80 (fun i -> String.make i ' ' ^ f i))
        in
        check_chunked_equals_whole cw
          [
            "x = " ^ long 'a' ^ " ;";
            "x = " ^ long '7' ^ "." ^ long '1' ^ " ;";
            "s = \"" ^ long 'q' ^ "\" ;";
            "c = '" ^ long 'q' ^ "' ;";
            "/*" ^ long '*' ^ "*/ x // " ^ long '/' ^ "\n y";
            "/*" ^ long 'c' ^ "*/ x /*" ^ long '\n' ^ "*/ y";
            "s = \"" ^ long 'q';
            padded (fun _ -> "s = \"a\\\"b\\\\\" ; c = '\\'' ;");
            padded (fun i -> "s = \"" ^ String.make i '\\' ^ "\" ;");
            padded (fun i -> "/* " ^ String.make i '*' ^ " */ x");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Shared tables *)

(* A frozen copy of [sym]'s terminals under the same ids: a distinct
   vocabulary that lexes identically. *)
let copy_vocab sym =
  let v = Grammar.Sym.create () in
  for id = 2 to Grammar.Sym.num_terms sym - 1 do
    let name = Grammar.Sym.term_name sym id in
    check int ("id of " ^ name) id (Grammar.Sym.intern_term v name)
  done;
  Grammar.Sym.freeze v;
  v

let cache_tests =
  [
    test "pool tokenizing over more vocabularies than the cache holds"
      (fun () ->
        (* 6 grammars x 3 vocabularies: more than the 16 cached tables,
           so entries are evicted and rebuilt while other domains read *)
        let lanes =
          List.concat_map
            (fun ((cw : Workload.compiled), texts) ->
              let sym = Llstar.Compiled.sym cw.Workload.c in
              let config = cw.Workload.spec.lexer_config in
              List.init 3 (fun _ -> (config, sym, copy_vocab sym, texts)))
            (Lazy.force corpora)
        in
        let longest =
          List.fold_left (fun m (_, _, _, t) -> max m (List.length t)) 0 lanes
        in
        (* interleave: the j-th text of every lane, then the (j+1)-th *)
        let tasks =
          List.concat
            (List.init longest (fun j ->
                 List.filter_map
                   (fun (config, sym, copy, texts) ->
                     Option.map
                       (fun text -> (config, sym, copy, text))
                       (List.nth_opt texts j))
                   lanes))
        in
        let sequential =
          List.map (fun (config, sym, _, text) -> L.tokenize config sym text) tasks
        in
        let pooled =
          Exec.Pool.with_pool ~jobs:4 (fun pool ->
              Exec.Pool.map_list pool
                (fun (config, _, copy, text) -> L.tokenize config copy text)
                tasks)
        in
        check int "tasks" (List.length sequential) (List.length pooled);
        check bool "pooled == sequential" true (pooled = sequential));
    test "an unfrozen vocabulary that gains a literal lexes it next call"
      (fun () ->
        let sym = Grammar.Sym.create () in
        ignore (Grammar.Sym.intern_term sym "ID");
        ignore (Grammar.Sym.intern_term sym "'*'");
        let config = L.default_config in
        let names () =
          match L.tokenize config sym "a ** b" with
          | Ok toks ->
              Array.to_list toks
              |> List.map (fun (t : Runtime.Token.t) ->
                     Grammar.Sym.term_name sym t.ttype)
          | Error e -> [ e.L.msg ]
        in
        check (Alcotest.list string) "before" [ "ID"; "'*'"; "'*'"; "ID" ]
          (names ());
        ignore (Grammar.Sym.intern_term sym "'**'");
        check bool "still unfrozen" false (Grammar.Sym.is_frozen sym);
        check (Alcotest.list string) "after" [ "ID"; "'**'"; "ID" ] (names ()));
  ]

let suite =
  [
    ("lexer-golden", golden_tests);
    ("lexer-window-edges", edge_tests);
    ("lexer-tables", cache_tests);
  ]
