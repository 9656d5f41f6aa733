(* Tests for the grammar substrate: symbol interning, the metalanguage
   lexer/parser, pretty-printing round trips, validation, the BNF
   conversion and FIRST/FOLLOW machinery. *)

open Helpers
module Sym = Grammar.Sym
module Ast = Grammar.Ast
module B = Grammar.Builder

(* ------------------------------------------------------------------ *)
(* Sym *)

let sym_tests =
  [
    test "eof and wildcard are reserved" (fun () ->
        let s = Sym.create () in
        check int "eof id" 0 Sym.eof;
        check int "wildcard id" 1 Sym.wildcard;
        check string "eof name" "EOF" (Sym.term_name s Sym.eof));
    test "interning is idempotent" (fun () ->
        let s = Sym.create () in
        let a = Sym.intern_term s "ID" in
        let b = Sym.intern_term s "ID" in
        check int "same id" a b;
        check bool "distinct from nonterm space" true
          (Sym.intern_nonterm s "ID" = 0));
    test "literals remember raw text" (fun () ->
        let s = Sym.create () in
        let id = Sym.intern_term s "'int'" in
        check bool "is literal" true (Sym.is_literal s id);
        check string "text" "int" (Option.get (Sym.literal_text s id));
        check bool "ID is not literal" false
          (Sym.is_literal s (Sym.intern_term s "ID")));
    test "literals listing" (fun () ->
        let s = Sym.create () in
        ignore (Sym.intern_term s "'+'");
        ignore (Sym.intern_term s "'while'");
        ignore (Sym.intern_term s "NUM");
        let lits = List.map fst (Sym.literals s) in
        check (Alcotest.list string) "sorted raw texts" [ "+"; "while" ] lits);
    test "unquote" (fun () ->
        check string "quoted" "foo" (Sym.unquote "'foo'");
        check string "plain" "ID" (Sym.unquote "ID"));
  ]

(* ------------------------------------------------------------------ *)
(* Metalanguage parsing *)

let parse_g src = Grammar.Meta_parser.parse src

let meta_tests =
  [
    test "basic rule and terminals" (fun () ->
        let g = parse_g "grammar T; s : ID 'while' INT ;" in
        check int "one rule" 1 (List.length g.Ast.rules);
        check string "start" "s" g.Ast.start;
        check (Alcotest.list string) "terminals"
          [ "ID"; "'while'"; "INT" ]
          (Ast.terminals g));
    test "alternatives and EBNF suffixes" (fun () ->
        let g = parse_g "grammar T; s : a* | b+ | c? | (a b | c) ; a:; b:; c:;" in
        let r = List.hd g.Ast.rules in
        check int "four alts" 4 (List.length r.Ast.rule_alts));
    test "options parsed from braced body" (fun () ->
        let g =
          parse_g "grammar T; options { backtrack=true; k=3; m=2; memoize=false; } s : ID ;"
        in
        check bool "backtrack" true g.Ast.options.Ast.backtrack;
        check bool "k" true (g.Ast.options.Ast.k = Some 3);
        check int "m" 2 g.Ast.options.Ast.m;
        check bool "memoize" false g.Ast.options.Ast.memoize);
    test "semantic predicate, actions, always-actions" (fun () ->
        let g =
          parse_g
            "grammar T; s : {isType()}? ID {act();} | {{undoable()}} INT ;"
        in
        let r = List.hd g.Ast.rules in
        (match (List.nth r.Ast.rule_alts 0).Ast.elems with
        | [ Ast.Sem_pred "isType()"; Ast.Term "ID"; Ast.Action { code = "act();"; always = false } ] ->
            ()
        | _ -> Alcotest.fail "alt1 shape");
        match (List.nth r.Ast.rule_alts 1).Ast.elems with
        | [ Ast.Action { code = "undoable()"; always = true }; Ast.Term "INT" ] ->
            ()
        | _ -> Alcotest.fail "alt2 shape");
    test "syntactic predicate" (fun () ->
        let g = parse_g "grammar T; s : (ID '=')=> ID '=' INT | ID ;" in
        let r = List.hd g.Ast.rules in
        match (List.hd r.Ast.rule_alts).Ast.elems with
        | Ast.Syn_pred [ { Ast.elems = [ Ast.Term "ID"; Ast.Term "'='" ] } ] :: _ ->
            ()
        | _ -> Alcotest.fail "synpred shape");
    test "precedence predicate recognised" (fun () ->
        let g = parse_g "grammar T; s : {p <= 3}? ID | {p<=0}? INT | {q <= 3}? C ;" in
        let r = List.hd g.Ast.rules in
        (match (List.nth r.Ast.rule_alts 0).Ast.elems with
        | Ast.Prec_pred 3 :: _ -> ()
        | _ -> Alcotest.fail "prec pred 3");
        (match (List.nth r.Ast.rule_alts 1).Ast.elems with
        | Ast.Prec_pred 0 :: _ -> ()
        | _ -> Alcotest.fail "prec pred 0");
        match (List.nth r.Ast.rule_alts 2).Ast.elems with
        | Ast.Sem_pred _ :: _ -> ()
        | _ -> Alcotest.fail "q<=3 is semantic");
    test "wildcard and literal escapes" (fun () ->
        let g = parse_g {|grammar T; s : . '\'' '\\' ;|} in
        let r = List.hd g.Ast.rules in
        match (List.hd r.Ast.rule_alts).Ast.elems with
        | [ Ast.Wild; Ast.Term "'''"; Ast.Term "'\\'" ] -> ()
        | elems ->
            Alcotest.failf "wildcard shape: %s"
              (String.concat ";" (List.map Grammar.Pretty.element_to_string elems)));
    test "comments are skipped" (fun () ->
        let g =
          parse_g "grammar T; // line\n/* block\nspanning */ s : ID ;"
        in
        check int "one rule" 1 (List.length g.Ast.rules));
    test "errors carry positions" (fun () ->
        match Grammar.Meta_parser.parse_result "grammar T; s : ID" with
        | Error msg -> check bool "mentions ';'" true
            (Helpers.contains msg "';'")
        | Ok _ -> Alcotest.fail "expected parse error");
    test "empty alternative allowed" (fun () ->
        let g = parse_g "grammar T; s : ID | ;" in
        let r = List.hd g.Ast.rules in
        check int "2 alts" 2 (List.length r.Ast.rule_alts);
        check int "empty second" 0
          (List.length (List.nth r.Ast.rule_alts 1).Ast.elems));
  ]

(* Round-trip: parse, pretty-print, re-parse, re-print; prints must agree. *)
let roundtrip src =
  let g1 = parse_g src in
  let p1 = Grammar.Pretty.to_string g1 in
  let g2 = parse_g p1 in
  let p2 = Grammar.Pretty.to_string g2 in
  check string "round trip" p1 p2

let roundtrip_tests =
  [
    test "roundtrip: figure 1" (fun () ->
        roundtrip
          "grammar S; s : ID | ID '=' e | ('unsigned')* 'int' ID ; e : ID ;");
    test "roundtrip: predicates and actions" (fun () ->
        roundtrip
          "grammar T; options { backtrack=true; } s : (e)=> e {a();} | {p()}? ID | {{u()}} ;\
           e : INT ;");
    test "roundtrip: EBNF nests" (fun () ->
        roundtrip "grammar T; s : (a (b | c+)? )* ; a : A ; b : B ; c : C ;");
    test "roundtrip: benchmark grammars" (fun () ->
        List.iter
          (fun (spec : Bench_grammars.Workload.spec) ->
            roundtrip spec.grammar_text)
          [
            Bench_grammars.Mini_java.spec;
            Bench_grammars.Rats_c.spec;
            Bench_grammars.Mini_sql.spec;
            Bench_grammars.Mini_vb.spec;
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Validation *)

let issues src = Grammar.Validate.check (parse_g src)

let has_issue pred src = List.exists pred (issues src)

let validate_tests =
  [
    test "undefined rule" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Undefined_rule _ -> true | _ -> false)
             "grammar T; s : missing ;"));
    test "duplicate rule" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Duplicate_rule _ -> true | _ -> false)
             "grammar T; s : ID ; s : INT ;"));
    test "immediate left recursion" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Left_recursion _ -> true | _ -> false)
             "grammar T; s : s ID | INT ;"));
    test "indirect left recursion" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Left_recursion _ -> true | _ -> false)
             "grammar T; a : b X | Y ; b : c ; c : a Z ;"));
    test "left recursion through nullable prefix" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Left_recursion _ -> true | _ -> false)
             "grammar T; a : b a C | C ; b : D | ;"));
    test "left recursion through optional block" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Left_recursion _ -> true | _ -> false)
             "grammar T; a : (B)? a C | C ;"));
    test "right recursion is fine" (fun () ->
        check int "no errors" 0
          (List.length (Grammar.Validate.errors (parse_g "grammar T; a : B a | C ;"))));
    test "unreachable rule warning" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Unreachable_rule "z" -> true | _ -> false)
             "grammar T; s : ID ; z : INT ;"));
    test "duplicate alternative warning" (fun () ->
        check bool "flagged" true
          (has_issue
             (function Grammar.Validate.Duplicate_alt _ -> true | _ -> false)
             "grammar T; s : ID INT | ID INT ;"));
    test "benchmark grammars validate" (fun () ->
        List.iter
          (fun (spec : Bench_grammars.Workload.spec) ->
            let g =
              Grammar.Leftrec.rewrite (parse_g spec.grammar_text)
            in
            check int (spec.name ^ " has no errors") 0
              (List.length (Grammar.Validate.errors g)))
          Bench_grammars.Specs.all);
  ]

(* ------------------------------------------------------------------ *)
(* BNF conversion, FIRST/FOLLOW, FIRST_k *)

module FF = Grammar.First_follow
module SS = FF.SS

let ff_of src = FF.compute (Grammar.Bnf.convert (parse_g src))

let set xs = SS.of_list xs

let bnf_tests =
  [
    test "FIRST of simple grammar" (fun () ->
        let ff = ff_of "grammar T; s : A s | B ;" in
        check bool "first s" true (SS.equal (FF.first_of ff "s") (set [ "A"; "B" ])));
    test "FIRST through nullable" (fun () ->
        let ff = ff_of "grammar T; s : a B ; a : A | ;" in
        check bool "a nullable" true (FF.is_nullable ff "a");
        check bool "first s" true (SS.equal (FF.first_of ff "s") (set [ "A"; "B" ])));
    test "FOLLOW basics" (fun () ->
        let ff = ff_of "grammar T; s : a B ; a : A ;" in
        check bool "follow a = {B}" true
          (SS.equal (FF.follow_of ff "a") (set [ "B" ]));
        check bool "follow s has EOF" true (SS.mem "EOF" (FF.follow_of ff "s")));
    test "EBNF expansion: star becomes nullable helper" (fun () ->
        let bnf = Grammar.Bnf.convert (parse_g "grammar T; s : A* B ;") in
        let ff = FF.compute bnf in
        check bool "first s = {A,B}" true
          (SS.equal (FF.first_of ff "s") (set [ "A"; "B" ])));
    test "FIRST_k enumerates sequences" (fun () ->
        let ff = ff_of "grammar T; s : A B C | A B D ;" in
        let bnf_syms = [ Grammar.Bnf.N "s" ] in
        let s2 = FF.first_k ff 2 bnf_syms in
        check int "one 2-seq (shared prefix)" 1 (FF.SeqSet.cardinal s2);
        let s3 = FF.first_k ff 3 bnf_syms in
        check int "two 3-seqs" 2 (FF.SeqSet.cardinal s3));
    test "FIRST_k blowup guard" (fun () ->
        let ff = ff_of "grammar T; s : (A|B|C|D|E)* X ;" in
        match FF.first_k ~max_set_size:50 ff 8 [ Grammar.Bnf.N "s" ] with
        | exception FF.Blowup _ -> ()
        | _ -> Alcotest.fail "expected blowup");
  ]

let suite =
  [
    ("sym", sym_tests);
    ("metalanguage", meta_tests);
    ("pretty-roundtrip", roundtrip_tests);
    ("validate", validate_tests);
    ("bnf-first-follow", bnf_tests);
  ]
