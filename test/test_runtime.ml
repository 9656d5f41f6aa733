(* Tests for the runtime: token streams, the lexer engine, trees, error
   handling and recovery, actions/predicates during speculation, the
   left-recursion rewrite end to end, and memoization. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Token stream *)

let mk_tokens n =
  Array.init n (fun i -> Runtime.Token.make ~index:i (i + 2) (string_of_int i))

let stream_tests =
  [
    test "la/lt/consume basics" (fun () ->
        let ts = Runtime.Token_stream.of_array (mk_tokens 3) in
        check int "la 1" 2 (Runtime.Token_stream.la ts 1);
        check int "la 3" 4 (Runtime.Token_stream.la ts 3);
        check int "la beyond = EOF" Grammar.Sym.eof (Runtime.Token_stream.la ts 4);
        ignore (Runtime.Token_stream.consume ts);
        check int "after consume" 3 (Runtime.Token_stream.la ts 1);
        check bool "prev" true
          ((Option.get (Runtime.Token_stream.prev ts)).Runtime.Token.index = 0));
    test "consume does not run past EOF" (fun () ->
        let ts = Runtime.Token_stream.of_array (mk_tokens 1) in
        ignore (Runtime.Token_stream.consume ts);
        ignore (Runtime.Token_stream.consume ts);
        ignore (Runtime.Token_stream.consume ts);
        check int "index stable at end" 1 (Runtime.Token_stream.index ts);
        check bool "at eof" true (Runtime.Token_stream.at_eof ts));
    test "mark/seek rewinds; high water persists" (fun () ->
        let ts = Runtime.Token_stream.of_array (mk_tokens 10) in
        let m = Runtime.Token_stream.mark ts in
        ignore (Runtime.Token_stream.consume ts);
        ignore (Runtime.Token_stream.consume ts);
        ignore (Runtime.Token_stream.la ts 5);
        Runtime.Token_stream.seek ts m;
        check int "rewound" 0 (Runtime.Token_stream.index ts);
        check bool "high water >= 6" true (Runtime.Token_stream.high_water ts >= 6));
    test "seek clamps out-of-range targets" (fun () ->
        let ts = Runtime.Token_stream.of_array (mk_tokens 3) in
        Runtime.Token_stream.seek ts 100;
        check int "clamped to size" 3 (Runtime.Token_stream.index ts);
        check bool "at eof" true (Runtime.Token_stream.at_eof ts);
        check int "la past end is EOF" Grammar.Sym.eof
          (Runtime.Token_stream.la ts 1);
        Runtime.Token_stream.seek ts (-5);
        check int "clamped to 0" 0 (Runtime.Token_stream.index ts);
        check int "la 1 after clamp" 2 (Runtime.Token_stream.la ts 1));
    test "prev after seek 0 is None" (fun () ->
        let ts = Runtime.Token_stream.of_array (mk_tokens 3) in
        ignore (Runtime.Token_stream.consume ts);
        ignore (Runtime.Token_stream.consume ts);
        check bool "prev set" true (Runtime.Token_stream.prev ts <> None);
        Runtime.Token_stream.seek ts 0;
        check bool "prev cleared" true (Runtime.Token_stream.prev ts = None);
        (* and again after a clamped negative seek *)
        ignore (Runtime.Token_stream.consume ts);
        Runtime.Token_stream.seek ts (-1);
        check bool "prev cleared by clamp" true
          (Runtime.Token_stream.prev ts = None));
  ]

(* ------------------------------------------------------------------ *)
(* Streaming windows: retention protocol, Released, leak detection *)

module Ts = Runtime.Token_stream

(* Both [stmt] alternatives match an unbounded [ID ('[' expr ']')*]
   prefix; only the token after it ('=' or ';') picks one, so in PEG mode
   every statement speculates over its whole prefix.  That is the worst
   case for a sliding window: the speculation's mark pins it for the
   whole statement. *)
let stream_scale_grammar =
  {|
grammar StreamScale;
options { backtrack=true; memoize=true; }

prog : stmt* ;

stmt
  : lvalue '=' expr ';'
  | expr ';'
  ;

lvalue : ID ('[' expr ']')* ;

expr : term (('+' | '-') term)* ;

term : atom (('*' | '/') atom)* ;

atom
  : ID ('[' expr ']')*
  | INT
  | '(' expr ')'
  ;
|}

(* [n] statements, alternating assignment and bare expression, both
   opening with the same 11-token indexed-lvalue prefix (14 tokens per
   statement on average). *)
let stream_scale_text (n : int) : string =
  let b = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    if i land 1 = 0 then Buffer.add_string b "x [ i + 1 ] [ j * 2 ] = y + 3 ;\n"
    else Buffer.add_string b "x [ i + 1 ] [ j * 2 ] ;\n"
  done;
  Buffer.contents b

(* [streamed_verdict] plus the largest live heap sampled during the parse,
   as words over a full-major floor taken before it.  The heap is sampled
   every 64 chunk pulls and once after the parse. *)
let streamed_sampled ~window c text =
  Gc.full_major ();
  let floor = (Gc.stat ()).Gc.live_words in
  let sampled = ref floor and pulls = ref 0 in
  let sample () =
    Gc.full_major ();
    sampled := max !sampled (Gc.stat ()).Gc.live_words
  in
  let wrap_pull pull () =
    incr pulls;
    if !pulls land 63 = 0 then sample ();
    pull ()
  in
  let v, n, peak = streamed_verdict ~wrap_pull ~window c text in
  sample ();
  (v, n, peak, !sampled - floor)

let streaming_tests =
  [
    test "sliding window sees the same tokens as the array" (fun () ->
        let toks = mk_tokens 50 in
        let ts = Ts.of_pull ~window:4 (pull_of_array ~chunk:4 toks) in
        for i = 0 to 49 do
          check int (Printf.sprintf "la at %d" i) (i + 2) (Ts.la ts 1);
          let tok = Ts.consume ts in
          check int "index round-trips" i tok.Runtime.Token.index
        done;
        check bool "at eof" true (Ts.at_eof ts);
        check int "size = total pulled" 50 (Ts.size ts);
        check int "la past end is EOF" Grammar.Sym.eof (Ts.la ts 1);
        (* no marks: the window never needed to out-grow a doubling *)
        check bool "peak bounded by O(window)" true (Ts.peak_live ts <= 8));
    test "seek below the frontier raises Released" (fun () ->
        let ts = Ts.of_pull ~window:2 (pull_of_array ~chunk:2 (mk_tokens 32)) in
        for _ = 1 to 20 do
          ignore (Ts.consume ts)
        done;
        (* force a slide so the frontier moves past 0 *)
        ignore (Ts.la ts 2);
        match Ts.seek ts 0 with
        | () -> Alcotest.fail "seek below frontier must not clamp"
        | exception Ts.Released { frontier; requested } ->
            check int "requested" 0 requested;
            check bool "frontier advanced" true (frontier > 0);
            (* forward seeks within the window still work *)
            Ts.seek ts frontier;
            check int "cursor at frontier" frontier (Ts.index ts));
    test "a mark pins the window; release lets it slide" (fun () ->
        let toks = mk_tokens 256 in
        let ts = Ts.of_pull ~window:2 (pull_of_array ~chunk:2 toks) in
        let m = Ts.mark ts in
        for _ = 1 to 40 do
          ignore (Ts.consume ts)
        done;
        (* the mark holds: rewinding to it is still legal *)
        Ts.seek ts m;
        check int "rewound to mark" 0 (Ts.index ts);
        check int "la after rewind" 2 (Ts.la ts 1);
        check bool "window grew to span the speculation" true
          (Ts.peak_live ts >= 40);
        Ts.release ts m;
        check bool "no live marks" true (Ts.live_marks ts = []);
        while not (Ts.at_eof ts) do
          ignore (Ts.consume ts)
        done;
        (* released: the old position is gone again *)
        match Ts.seek ts 0 with
        | () -> Alcotest.fail "released region must not be reachable"
        | exception Ts.Released _ -> ());
    test "a forgotten mark shows up in the retention check" (fun () ->
        let ts = Ts.of_pull ~window:2 (pull_of_array (mk_tokens 32)) in
        ignore (Ts.consume ts);
        let m = Ts.mark ts in
        while not (Ts.at_eof ts) do
          ignore (Ts.consume ts)
        done;
        (* the leak: [m] was never released, so the window stayed pinned *)
        check bool "leak detected" true (Ts.live_marks ts = [ m ]);
        check bool "pinned window retained the whole tail" true
          (Ts.peak_live ts >= 30));
    test "release hook reports the advancing frontier" (fun () ->
        let ts = Ts.of_pull ~window:2 (pull_of_array ~chunk:2 (mk_tokens 32)) in
        let frontiers = ref [] in
        Ts.set_release_hook ts (fun f -> frontiers := f :: !frontiers);
        while not (Ts.at_eof ts) do
          ignore (Ts.consume ts)
        done;
        let fs = List.rev !frontiers in
        check bool "hook fired" true (fs <> []);
        check bool "frontiers strictly increase" true
          (List.for_all2
             (fun a b -> a < b)
             (List.filteri (fun i _ -> i < List.length fs - 1) fs)
             (List.tl fs)));
    test "streaming parse at window 1 agrees with materialized" (fun () ->
        let c =
          compile
            "grammar T; options { backtrack=true; memoize=true; } s : e ';' ; \
             e : ID '(' e ')' | ID '(' e ']' | ID ;"
        in
        List.iter
          (fun input ->
            let toks = lex c input in
            let mat = Runtime.Generated.interp_outcome c toks in
            let ts = Ts.of_pull ~window:1 (pull_of_array ~chunk:1 toks) in
            let str = Runtime.Generated.interp_outcome_stream c ts in
            check bool
              (Printf.sprintf "%S: %s vs %s" input
                 (Runtime.Generated.describe mat)
                 (Runtime.Generated.describe str))
              true
              (Runtime.Generated.agree mat str))
          [ "x ;"; "a ( b ) ;"; "a ( b ( c ) ) ;"; "a ( b ( c ] ] ;" ]);
    test "stream scale: 100x input keeps resident tokens and live words flat"
      (fun () ->
        let c = compile stream_scale_grammar in
        let window = 512 in
        let leg stmts =
          let text = stream_scale_text stmts in
          let mat, mat_tokens = materialized_verdict c text in
          check int (Printf.sprintf "%d statements lex" stmts) (14 * stmts)
            mat_tokens;
          check bool
            (Printf.sprintf "%d statements accepted" stmts)
            true
            (match mat with Parsed o -> o.Runtime.Generated.ok | _ -> false);
          let str, str_tokens, peak, live = streamed_sampled ~window c text in
          check bool
            (Printf.sprintf "%d statements: streamed %s = materialized %s"
               stmts (describe_verdict str) (describe_verdict mat))
            true (verdict_agree mat str);
          check int (Printf.sprintf "%d statements: token count" stmts)
            mat_tokens str_tokens;
          (peak, live)
        in
        let _, live_1x = leg 80 in
        let peak_100x, live_100x = leg 8_000 in
        (* resident tokens are bounded by the window, not the input *)
        check bool
          (Printf.sprintf "peak_live %d <= 2 x window" peak_100x)
          true
          (peak_100x <= 2 * window);
        (* the live heap does not grow with the input: 131072 words
           (1 MiB) of slack for allocator noise *)
        check bool
          (Printf.sprintf "live words +%d at 100x <= 2 x +%d at 1x + 131072"
             live_100x live_1x)
          true
          (live_100x <= (2 * live_1x) + 131072));
  ]

(* ------------------------------------------------------------------ *)
(* Lexer engine *)

let lex_engine_tests =
  let sym_of src = Llstar.Compiled.sym (compile src) in
  [
    test "keywords beat identifiers; maximal munch on operators" (fun () ->
        let sym = sym_of "grammar T; s : 'while' ID '<=' '<' ;" in
        let toks =
          Runtime.Lexer_engine.tokenize_exn Runtime.Lexer_engine.default_config
            sym "while whilex <= <"
        in
        check
          (Alcotest.list string)
          "token names"
          [ "'while'"; "ID"; "'<='"; "'<'" ]
          (Array.to_list toks
          |> List.map (fun (t : Runtime.Token.t) ->
                 Grammar.Sym.term_name sym t.Runtime.Token.ttype)));
    test "numbers, floats, strings, chars" (fun () ->
        let sym = sym_of "grammar T; s : INT FLOAT STRING CHAR ;" in
        let config =
          {
            Runtime.Lexer_engine.default_config with
            float_token = Some "FLOAT";
            string_token = Some "STRING";
            char_token = Some "CHAR";
          }
        in
        let toks =
          Runtime.Lexer_engine.tokenize_exn config sym "42 3.14 \"hi\" 'c'"
        in
        check int "4 tokens" 4 (Array.length toks);
        check string "float text" "3.14" toks.(1).Runtime.Token.text;
        check string "string contents" "hi" toks.(2).Runtime.Token.text);
    test "comments and positions" (fun () ->
        let sym = sym_of "grammar T; s : ID ;" in
        let toks =
          Runtime.Lexer_engine.tokenize_exn Runtime.Lexer_engine.default_config
            sym "// hello\n/* multi\nline */ x"
        in
        check int "one token" 1 (Array.length toks);
        check int "line" 3 toks.(0).Runtime.Token.line);
    test "newline tokens collapse runs" (fun () ->
        let sym = sym_of "grammar T; s : ID NL ID NL ;" in
        let config =
          { Runtime.Lexer_engine.default_config with newline_token = Some "NL" }
        in
        let toks = Runtime.Lexer_engine.tokenize_exn config sym "a\n\n\nb\n" in
        check int "4 tokens" 4 (Array.length toks));
    test "@-identifiers become VAR tokens" (fun () ->
        let sym = sym_of "grammar T; s : VAR ID ;" in
        let config =
          { Runtime.Lexer_engine.default_config with at_ident_token = Some "VAR" }
        in
        let toks = Runtime.Lexer_engine.tokenize_exn config sym "@x y" in
        check string "var" "VAR"
          (Grammar.Sym.term_name sym toks.(0).Runtime.Token.ttype);
        check string "text keeps @" "@x" toks.(0).Runtime.Token.text);
    test "case-insensitive keywords" (fun () ->
        let sym = sym_of "grammar T; s : 'select' ID ;" in
        let config =
          {
            Runtime.Lexer_engine.default_config with
            case_insensitive_keywords = true;
          }
        in
        let toks = Runtime.Lexer_engine.tokenize_exn config sym "SeLeCt foo" in
        check string "keyword" "'select'"
          (Grammar.Sym.term_name sym toks.(0).Runtime.Token.ttype));
    test "lex errors carry positions" (fun () ->
        let sym = sym_of "grammar T; s : ID ;" in
        match
          Runtime.Lexer_engine.tokenize Runtime.Lexer_engine.default_config sym
            "a $"
        with
        | Error e -> check int "column" 3 e.Runtime.Lexer_engine.col
        | Ok _ -> Alcotest.fail "expected lex error");
  ]

(* ------------------------------------------------------------------ *)
(* Trees, errors, recovery *)

let tree_tests =
  [
    test "tree yield equals input" (fun () ->
        let c = compile "grammar T; s : A b C ; b : B ;" in
        let t =
          match parse c "A B C" with Ok t -> t | Error _ -> Alcotest.fail "parse"
        in
        check string "yield" "A B C" (Runtime.Tree.yield t);
        check int "nodes" 5 (Runtime.Tree.count_nodes t);
        check int "depth" 3 (Runtime.Tree.depth t));
    test "mismatched token error" (fun () ->
        let c = compile "grammar T; s : A B ; junk : C ;" in
        let e = first_error c "A C" in
        match e.Runtime.Parse_error.kind with
        | Runtime.Parse_error.Mismatched_token _ ->
            check string "offending" "C" e.Runtime.Parse_error.token.Runtime.Token.text
        | _ -> Alcotest.fail "expected mismatch");
    test "extraneous input error" (fun () ->
        let c = compile "grammar T; s : A ; junk : B ;" in
        let e = first_error c "A B" in
        match e.Runtime.Parse_error.kind with
        | Runtime.Parse_error.Extraneous_input -> ()
        | _ -> Alcotest.fail "expected extraneous input");
    test "recovery resynchronises and reports multiple errors" (fun () ->
        let c = compile "grammar T; s : stmt* ; stmt : ID '=' INT ';' ;" in
        match Runtime.Interp.parse ~recover:true c (lex c "a = 1 ; b = ; c = 3 ;") with
        | Ok _ -> Alcotest.fail "expected errors"
        | Error errs -> check bool "at least one error" true (List.length errs >= 1));
    test "recovery steps past an offending token that is in FOLLOW"
      (fun () ->
        (* the second '+' can follow [e], so syncing skips nothing; the
           retry must not restart at it and report it again *)
        let c =
          compile
            "grammar Expr; prog : e EOF ; e : e '*' e | e '+' e | '(' e ')' \
             | INT | ID ;"
        in
        match Runtime.Interp.parse ~recover:true c (lex c "1 + + 2") with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error errs ->
            check
              (Alcotest.list string)
              "reported once"
              [ "1:5: no viable alternative" ]
              (List.map
                 (fun (e : Runtime.Parse_error.t) ->
                   Printf.sprintf "%d:%d: %s" e.token.line e.token.col
                     (match e.kind with
                     | Runtime.Parse_error.No_viable_alt _ ->
                         "no viable alternative"
                     | _ -> "other"))
                 errs));
    test "recovery retries from an offending token that starts a statement"
      (fun () ->
        (* [b] is in FOLLOW(stmt) and the retry from it parses [b = 1 ;]
           cleanly: stepping past it would lose that statement and report
           more errors *)
        let c = compile "grammar T; s : stmt* ; stmt : ID '=' INT ';' ;" in
        match Runtime.Interp.parse ~recover:true c (lex c "a = b = 1 ;") with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error errs ->
            check
              (Alcotest.list string)
              "one error, at b"
              [ "b" ]
              (List.map
                 (fun (e : Runtime.Parse_error.t) -> e.token.text)
                 errs));
    test "recovery cost is linear in the error count" (fun () ->
        (* One extraneous-input error per leftover token: with the error
           limit tested via [List.length t.errors] this loop was quadratic
           (~5e9 list-node visits at this size, ~9s); the mutable counter
           makes it linear, comfortably inside the wall-clock bound. *)
        let c = compile "grammar T; s : A ; junk : B ;" in
        let a =
          match Grammar.Sym.find_term (Llstar.Compiled.sym c) "A" with
          | Some id -> id
          | None -> Alcotest.fail "no terminal A"
        in
        let max_errors = 100_000 in
        (* each retry consumes two tokens: the A that [s] matched plus the
           extraneous one skipped by recovery *)
        let toks =
          Array.init ((2 * max_errors) + 10) (fun i ->
              Runtime.Token.make ~index:i a "A")
        in
        let t0 = Unix.gettimeofday () in
        let t =
          Runtime.Interp.create ~recover:true ~max_errors c
            (Runtime.Token_stream.of_array toks)
        in
        let errs =
          match Runtime.Interp.run t () with
          | Ok _ -> Alcotest.fail "expected errors"
          | Error errs -> errs
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        check bool "error limit reached" true
          (List.length errs >= max_errors);
        check bool
          (Printf.sprintf "linear recovery (%.2fs)" elapsed)
          true (elapsed < 5.0));
  ]

(* ------------------------------------------------------------------ *)
(* Actions and speculation (sections 4.1-4.3) *)

let action_tests =
  [
    test "actions run in order with previous-token context" (fun () ->
        let log = ref [] in
        let c = compile "grammar T; s : A {one} B {two} ;" in
        let env =
          Runtime.Interp.env_of_tables
            ~actions:
              [
                ( "one",
                  fun prev ->
                    log :=
                      ("one/" ^ (Option.get prev).Runtime.Token.text) :: !log );
                ("two", fun _ -> log := "two" :: !log);
              ]
            ()
        in
        (match parse ~env c "A B" with Ok _ -> () | Error _ -> Alcotest.fail "parse");
        check (Alcotest.list string) "order" [ "one/A"; "two" ] (List.rev !log));
    test "actions are disabled while speculating; {{...}} still runs"
      (fun () ->
        let normal = ref 0 and always = ref 0 in
        (* recursion in both alternatives forces backtracking, so the
           chosen alternative's prefix is parsed speculatively first *)
        let c =
          compile
            "grammar T; options { backtrack=true; } s : {n} {{a}} e B | {n} \
             {{a}} e C ; e : A e | A ;"
        in
        let env =
          Runtime.Interp.env_of_tables
            ~actions:
              [ ("n", fun _ -> incr normal); ("a", fun _ -> incr always) ]
            ()
        in
        (match parse ~env c "A A C" with Ok _ -> () | Error e ->
          Alcotest.failf "parse: %d errors" (List.length e));
        check int "normal action ran exactly once (not during speculation)" 1
          !normal;
        check bool "always-action ran at least once during speculation" true
          (!always > 1));
    test "mid-alternative synpred evaluated at its own position" (fun () ->
        (* a syntactic predicate that is not at the decision's left edge is
           not hoisted (section 5.5); the decision resolves by order and the
           gate is checked at parse time, at the right input position *)
        let c = compile "grammar T; s : A (B C)=> B . | A B D ;" in
        check bool "synpred holds" true (parses c "A B C");
        check bool "order-resolved: alternative 2 is dead" false
          (parses c "A B D"));
    test "partial predicate resolution keeps expanding the DFA" (fun () ->
        (* Regression: at the state after one A, alternatives 2 and 3
           genuinely conflict (both can end the rule there) and get
           predicate edges, but alternative 1 is still viable and is only
           separated by more lookahead.  The state used to become terminal
           as soon as any predicate edges were installed, so alternative 1
           could never win and "A A A C D C" was rejected even though the
           PEG (packrat) semantics accept it. *)
        let c =
          compile
            "grammar R; options { backtrack=true; } r0 : r2 C | (A)? r1 | \
             (B)? A ; r1 : r3 | (C)? (E)? ; r2 : C E | A A r3 | (B)? ; r3 : \
             A (C)* D ;"
        in
        check bool "deep lookahead picks alternative 1" true
          (parses c "A A A C D C");
        check bool "predicate fallback still resolves the short input" true
          (parses c "A"));
  ]

(* ------------------------------------------------------------------ *)
(* Left recursion end-to-end *)

let leftrec_tests =
  [
    test "rewrite shape matches section 1.1" (fun () ->
        let g =
          Grammar.Leftrec.rewrite
            (Grammar.Meta_parser.parse
               "grammar E; e : e '*' e | e '+' e | INT ;")
        in
        let printed = Grammar.Pretty.to_string g in
        check bool "prec preds present" true
          (Helpers.contains printed "{p <= 2}? '*' e[3]");
        check bool "plus pred" true
          (Helpers.contains printed "{p <= 1}? '+' e[2]"));
    test "precedence and left associativity" (fun () ->
        let c =
          compile "grammar E; s : e EOF ; e : e '*' e | e '+' e | INT ;"
        in
        check string "precedence" "(s (e 1 + (e 2 * (e 3))) <EOF>)"
          (parse_tree c "1 + 2 * 3");
        check string "left assoc" "(s (e 1 + (e 2) + (e 3)) <EOF>)"
          (parse_tree c "1 + 2 + 3"));
    test "prefix and suffix operators" (fun () ->
        let c =
          compile
            "grammar E; s : e EOF ; e : e '!' | e '*' e | '-' e | e '+' e | \
             INT ;"
        in
        (* '-' binds tighter than '+' (alternative order); '!' tightest *)
        check string "prefix" "(s (e - (e 1) + (e 2)) <EOF>)"
          (parse_tree c "- 1 + 2");
        check string "suffix" "(s (e 1 ! + (e 2)) <EOF>)"
          (parse_tree c "1 ! + 2");
        (* '-' listed below '+' binds looser: -(1+2) *)
        let c2 =
          compile
            "grammar E; s : e EOF ; e : e '*' e | e '+' e | '-' e | INT ;"
        in
        check string "loose prefix" "(s (e - (e 1 + (e 2))) <EOF>)"
          (parse_tree c2 "- 1 + 2"));
    test "evaluation via actions (calculator semantics)" (fun () ->
        (* evaluate with an explicit stack machine driven by actions *)
        let stack = ref [] in
        let push v = stack := v :: !stack in
        let pop () =
          match !stack with
          | v :: rest ->
              stack := rest;
              v
          | [] -> Alcotest.fail "stack underflow"
        in
        let c =
          compile
            "grammar E; s : e EOF ; e : e '+' e {add} | e '*' e {mul} | INT \
             {push} ;"
        in
        let env =
          Runtime.Interp.env_of_tables
            ~actions:
              [
                ( "push",
                  fun prev ->
                    push (int_of_string (Option.get prev).Runtime.Token.text) );
                ( "add",
                  fun _ ->
                    let b = pop () and a = pop () in
                    push (a + b) );
                ( "mul",
                  fun _ ->
                    let b = pop () and a = pop () in
                    push (a * b) );
              ]
            ()
        in
        (match parse ~env c "2 * 3 + 4 * 5" with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "parse");
        check int "2*3+4*5 (+ binds tighter: 2*(3+4)*5)" 70 (pop ()));
  ]

(* ------------------------------------------------------------------ *)
(* Memoization *)

let memo_tests =
  [
    test "memoized and unmemoized parses agree" (fun () ->
        let src m =
          Printf.sprintf
            "grammar T; options { backtrack=true; memoize=%s; } s : e ';' ; e \
             : ID '(' e ')' | ID '(' e ']' | ID ;"
            m
        in
        let inputs =
          [ "x ;"; "a ( b ) ;"; "a ( b ( c ) ) ;"; "a ( b ( c ] ] ;"; "a ( ;" ]
        in
        let c1 = compile (src "true") and c2 = compile (src "false") in
        List.iter
          (fun input ->
            check bool input (parses c1 input) (parses c2 input))
          inputs);
    test "memo table only fills while speculating" (fun () ->
        let c = compile "grammar T; s : A b* ; b : B ;" in
        let t =
          Runtime.Interp.create c
            (Runtime.Token_stream.of_array (lex c "A B B B"))
        in
        (match Runtime.Interp.run t () with Ok _ -> () | Error _ -> Alcotest.fail "parse");
        check int "no speculation, no memo entries" 0
          (Runtime.Interp.memo_entries t));
  ]

let suite =
  [
    ("token-stream", stream_tests);
    ("streaming-window", streaming_tests);
    ("lexer-engine", lex_engine_tests);
    ("trees-errors", tree_tests);
    ("actions-speculation", action_tests);
    ("left-recursion", leftrec_tests);
    ("memoization", memo_tests);
  ]
