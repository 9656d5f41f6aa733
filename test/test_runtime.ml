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

(* [streamed_verdict] plus the largest live heap sampled during the parse,
   as words over a full-major floor taken before it.  The heap is sampled
   every 16 reads of the input (a read fills the lexer's byte window, 4 KiB
   once grown) and once after the parse. *)
let streamed_sampled ~window c text =
  Gc.full_major ();
  let floor = (Gc.stat ()).Gc.live_words in
  let sampled = ref floor and reads = ref 0 in
  let sample () =
    Gc.full_major ();
    sampled := max !sampled (Gc.stat ()).Gc.live_words
  in
  let wrap_reader read buf off len =
    incr reads;
    if !reads land 15 = 0 then sample ();
    read buf off len
  in
  let v, n, peak = streamed_verdict ~wrap_reader ~window c text in
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
    test "the frontier advances as the window slides" (fun () ->
        let ts = Ts.of_pull ~window:2 (pull_of_array ~chunk:2 (mk_tokens 32)) in
        let frontiers = ref [] in
        while not (Ts.at_eof ts) do
          ignore (Ts.consume ts);
          let f = Ts.frontier ts in
          match !frontiers with
          | last :: _ when last = f -> ()
          | _ -> if f > 0 then frontiers := f :: !frontiers
        done;
        let fs = List.rev !frontiers in
        check bool "window slid" true (fs <> []);
        check bool "frontiers strictly increase" true
          (List.for_all2
             (fun a b -> a < b)
             (List.filteri (fun i _ -> i < List.length fs - 1) fs)
             (List.tl fs)));
    test "the array grows to the window before it slides" (fun () ->
        let ts = Ts.of_pull ~window:5000 (pull_of_array ~chunk:1 (mk_tokens 20_000)) in
        let first_slide = ref (-1) in
        while not (Ts.at_eof ts) do
          ignore (Ts.consume ts);
          if !first_slide < 0 && Ts.frontier ts > 0 then
            first_slide := Ts.frontier ts
        done;
        check int "resident tokens reach the window" 5000 (Ts.peak_live ts);
        check bool "no slide before the window filled" true
          (!first_slide > 0 && !first_slide >= 5000 - 1));
    test "window max_int over a pull parses as at the default window"
      (fun () ->
        let c =
          compile "grammar E; prog : e EOF ; e : e '+' e | '(' e ')' | INT ;"
        in
        List.iter
          (fun input ->
            let toks = lex c input in
            let run ?window () =
              Runtime.Interp.run
                (Runtime.Interp.create ~recover:true c
                   (Ts.of_pull ?window (pull_of_array toks)))
                ()
            in
            check bool input true (run () = run ~window:max_int ()))
          [
            "1 + 2";
            "( 1 + ) 2";
            "";
            (* longer than the default window: the array keeps growing *)
            String.concat " + " (List.init 3000 (fun _ -> "1"));
          ]);
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
    test "keywords, named token types and identifiers, either case mode"
      (fun () ->
        (* one table resolves every word: a keyword first, then a named
           token type spelled exactly, then the identifier type; token text
           is the input's spelling *)
        let sym = sym_of "grammar T; s : 'select' SELECT A ID ;" in
        let lex ci =
          Runtime.Lexer_engine.tokenize_exn
            {
              Runtime.Lexer_engine.default_config with
              case_insensitive_keywords = ci;
            }
            sym "select SELECT A a Select Aa EOF"
          |> Array.to_list
          |> List.map (fun (t : Runtime.Token.t) ->
                 Grammar.Sym.term_name sym t.Runtime.Token.ttype
                 ^ " " ^ t.Runtime.Token.text)
        in
        check (Alcotest.list string) "case-sensitive"
          [
            "'select' select"; "SELECT SELECT"; "A A"; "ID a"; "ID Select";
            "ID Aa"; "EOF EOF";
          ]
          (lex false);
        check (Alcotest.list string) "case-insensitive"
          [
            "'select' select"; "'select' SELECT"; "A A"; "ID a";
            "'select' Select"; "ID Aa"; "EOF EOF";
          ]
          (lex true));
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
    test "memo entries die with the speculation, not with the window"
      (fun () ->
        (* every StreamScale statement speculates; a table that keeps its
           entries for the window's lifetime ends holding ~10 per
           statement on a materialized stream *)
        let c = compile stream_scale_grammar in
        let toks = lex c (stream_scale_text 2000) in
        List.iter
          (fun (label, ts) ->
            let t = Runtime.Interp.create c ts in
            check bool (label ^ " accepted") true
              (Runtime.Interp.recognize_run t () = Ok ());
            let n = Runtime.Interp.memo_entries t in
            check bool
              (Printf.sprintf "%s: %d memo entries <= 64" label n)
              true (n <= 64))
          [
            ("of_array", Ts.of_array toks);
            ("of_pull ~window:64", Ts.of_pull ~window:64 (pull_of_array toks));
          ]);
  ]

(* Memoization keeps backtracking linear (section 6.2; Ford's packrat
   bound): Interp's memo lookups on the nested-index RatsJava program
   grow by the same count with every nesting level.  A memo that drops
   live entries re-parses the inner levels, and the growth compounds. *)
let memo_lookups (cw : Bench_grammars.Workload.compiled) depth =
  let n = ref 0 in
  let sink _ = function
    | Obs.Trace.Memo_hit _ | Obs.Trace.Memo_miss _ -> incr n
    | _ -> ()
  in
  let toks =
    Bench_grammars.Workload.lex_exn cw
      (Bench_grammars.Rats_java.nested_index_program depth)
  in
  if
    Runtime.Interp.recognize ~tracer:(Obs.Trace.make sink)
      cw.Bench_grammars.Workload.c toks
    <> Ok ()
  then Alcotest.failf "depth %d rejected" depth;
  !n

let memo_linear_test =
  test "RatsJava: memo lookups grow linearly with nesting depth" (fun () ->
      let cw, _ = Test_cache.fresh_and_cached Bench_grammars.Rats_java.spec in
      let counts = List.map (fun d -> (d, memo_lookups cw d)) [ 1; 2; 3; 4; 6; 8; 12 ]
      in
      let l1 = List.assoc 1 counts and l2 = List.assoc 2 counts in
      let step = l2 - l1 in
      check bool (Printf.sprintf "%d lookups per level > 0" step) true (step > 0);
      List.iter
        (fun (d, n) ->
          check int
            (Printf.sprintf "depth %d: %d + %d per level" d l1 step)
            (l1 + ((d - 1) * step))
            n)
        counts)

(* [Runtime.Memo] against a [Hashtbl] model: random adds, overwrites,
   finds and speculation starts, with keys that share a position but
   differ in rule or precedence (including the largest rule and precedence
   the key packing holds, whose filter bits collide with small ones).  As
   in the parser, starts never decrease and adds and finds stay at or
   above the latest one: positions are offsets from it.  Most offsets stay
   within 60; one add in 25 lands up to 400 past the start, so live spans
   outgrow the initial 32-position ring and the log outgrows its 32
   entries.  Every start is followed by a lookup of every live entry. *)
type memo_op =
  | Add of int * int * int * int (* rule, prec, pos, value *)
  | Find of int * int * int
  | Forget of int (* a speculation starts this far past the last one *)

let memo_op_gen : memo_op QCheck.Gen.t =
  let open QCheck.Gen in
  let rule = oneof [ int_bound 5; return 131071 ]
  and prec = oneof [ int_bound 2; return 32767 ]
  and pos = frequency [ (24, int_bound 60); (1, int_bound 400) ] in
  (* small starts leave dead entries for the log to drop; a start past
     400 is past every live entry *)
  frequency
    [
      ( 240,
        map
          (fun (((r, p), x), v) -> Add (r, p, x, v))
          (pair (pair (pair rule prec) pos) (int_range (-1) 400)) );
      (120, map (fun ((r, p), x) -> Find (r, p, x)) (pair (pair rule prec) pos));
      (20, map (fun d -> Forget d) (int_bound 40));
      (2, map (fun d -> Forget d) (int_range 401 500));
    ]

let show_memo_op = function
  | Add (r, p, x, v) -> Printf.sprintf "add r%d p%d @%d = %d" r p x v
  | Find (r, p, x) -> Printf.sprintf "find r%d p%d @%d" r p x
  | Forget d -> Printf.sprintf "start +%d" d

let memo_props =
  [
    qtest ~count:500 "Memo agrees with a Hashtbl model"
      (QCheck.make
         ~print:(fun ops -> String.concat "; " (List.map show_memo_op ops))
         QCheck.Gen.(list_size (int_range 1 700) memo_op_gen))
      (fun ops ->
        let m = Runtime.Memo.create () and model = Hashtbl.create 64 in
        let floor = ref 0 and top = ref (-1) in
        let find (r, p, x) = Runtime.Memo.find m ~rule:r ~prec:p ~pos:x in
        let expect k =
          Option.value ~default:Runtime.Memo.absent (Hashtbl.find_opt model k)
        in
        (* dead entries stay in the log until it fills, so the memo holds
           at least the model's entries *)
        let check_all what =
          Hashtbl.iter
            (fun ((r, p, x) as k) v ->
              if find k <> v then
                QCheck.Test.fail_reportf "%s: r%d p%d @%d lost" what r p x)
            model;
          let n = Runtime.Memo.length m and n' = Hashtbl.length model in
          if n < n' then
            QCheck.Test.fail_reportf "%s: %d entries, model %d" what n n'
        in
        List.iter
          (fun op ->
            match op with
            | Add (r, p, x, v) ->
                let k = (r, p, !floor + x) in
                Runtime.Memo.add m ~rule:r ~prec:p ~pos:(!floor + x) v;
                Hashtbl.replace model k v;
                top := max !top (!floor + x)
            | Find (r, p, x) ->
                let k = (r, p, !floor + x) in
                if find k <> expect k then
                  QCheck.Test.fail_reportf "%s: got %d, model %d"
                    (show_memo_op op) (find k) (expect k)
            | Forget d ->
                floor := !floor + d;
                Runtime.Memo.forget_before m !floor;
                Hashtbl.filter_map_inplace
                  (fun (_, _, x) v -> if x < !floor then None else Some v)
                  model;
                check_all (show_memo_op op);
                (* a start past every position ever added empties the log *)
                if !floor > !top && Runtime.Memo.length m <> 0 then
                  QCheck.Test.fail_reportf "%s: %d dead entries kept"
                    (show_memo_op op) (Runtime.Memo.length m))
          ops;
        check_all "end";
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Drive: the one bytes-to-verdict pass *)

let drive_src = {|
grammar Expr;
prog : e EOF ;
e : e '*' e | e '+' e | '(' e ')' | INT | ID ;
|}

let drive ?window ?max_tokens ?recover ?tree c text =
  Runtime.Drive.run ?window ?max_tokens ?recover ?tree
    Runtime.Lexer_engine.default_config Runtime.Drive.Interp c
    (Runtime.Lexer_engine.reader_of_string text)

let parsed = function
  | Runtime.Drive.Parsed p -> p
  | Runtime.Drive.Lex_error _ -> Alcotest.fail "unexpected lex error"
  | Runtime.Drive.Token_budget _ -> Alcotest.fail "unexpected token budget"

(* [n] operands joined by '+': 2n - 1 tokens. *)
let sum_text n = String.concat " + " (List.init n (fun _ -> "1"))

let drive_tests =
  [
    test "window max_int on a string parses as at the default window"
      (fun () ->
        let c = compile drive_src in
        List.iter
          (fun text ->
            let d = parsed (drive c text) in
            let m = parsed (drive ~window:max_int c text) in
            check bool (text ^ ": ok") d.ok m.ok;
            check bool (text ^ ": errors") true (d.errors = m.errors);
            check int (text ^ ": consumed") d.consumed m.consumed;
            check int (text ^ ": produced") d.produced m.produced;
            check bool
              (text ^ ": no more tokens resident than bytes")
              true
              (m.peak_live <= max 1 (String.length text)))
          [ "1 + 2 * 3"; "( x + 1 ) * y"; "1 + *"; ""; sum_text 3000 ]);
    test "a lex error past the point where the parse stopped wins" (fun () ->
        let c = compile drive_src in
        (* the parse fails at the third token; the lex error sits 1000
           tokens later, beyond every chunk the parse pulled *)
        let text = "1 + * " ^ sum_text 500 ^ " `" in
        (match drive c text with
        | Runtime.Drive.Lex_error e ->
            check int "line" 1 e.Runtime.Lexer_engine.line
        | _ -> Alcotest.fail "expected the drained lex error");
        let p = parsed (drive c ("1 + * " ^ sum_text 500)) in
        check bool "rejected" false p.ok;
        check int "produced counts the whole input" 1002 p.produced;
        check int "consumed stops at the error" 2 p.consumed);
    test "the token budget is checked per pull and counts the whole input"
      (fun () ->
        let c = compile drive_src in
        let text = sum_text 1000 in
        (match drive ~max_tokens:10 c text with
        | Runtime.Drive.Token_budget n -> check int "all tokens" 1999 n
        | _ -> Alcotest.fail "expected a token budget overrun");
        (match drive ~max_tokens:10 c (text ^ " `") with
        | Runtime.Drive.Lex_error _ -> ()
        | _ -> Alcotest.fail "a lex error beyond the budget must win");
        let p = parsed (drive ~max_tokens:1999 c text) in
        check bool "at the budget" true p.ok);
    test "recover consumes every token; a tree only when asked" (fun () ->
        let c = compile drive_src in
        let r = parsed (drive ~recover:true c "1 + * 2 ) 3") in
        check bool "rejected" false r.ok;
        check bool "errors recorded" true (r.errors <> []);
        check int "consumed = produced" r.produced r.consumed;
        check bool "no tree without --tree" true
          ((parsed (drive c "1 + 2")).tree = None);
        check bool "tree when asked" true
          ((parsed (drive ~tree:true c "1 + 2")).tree <> None));
    test "window max_int over 1-token chunks holds every token once" (fun () ->
        let c = compile drive_src in
        List.iter
          (fun text ->
            let toks = lex c text in
            let mat = Runtime.Generated.interp_outcome c toks in
            let ts = Ts.of_pull ~window:max_int (pull_of_array ~chunk:1 toks) in
            let str = Runtime.Generated.interp_outcome_stream c ts in
            check bool
              (Printf.sprintf "%s vs %s"
                 (Runtime.Generated.describe mat)
                 (Runtime.Generated.describe str))
              true
              (Runtime.Generated.agree mat str);
            check int "peak_live = tokens" (Array.length toks)
              (Ts.peak_live ts))
          [ "1 + 2 * 3"; "1 + *"; sum_text 3000 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Interp's hot path allocates no closure, option or tuple per prediction
   or rule invocation (DESIGN.md, "Interpreter").  Minor words per token
   over a seeded 4k-token corpus, already lexed, catch one coming back:
   with a closure, option and tuple per prediction and per rule
   invocation, this corpus cost MiniJava 185 words per token and RatsC
   371.  The bounds are about twice what the allocation-free path
   measures (6.2 and 16.8).  Generated parsers run the same speculation
   code; their rows bound them at about 1.5x what they measure, so a
   per-call closure brought back into the emitted code fails a test. *)

let minor_words_per_token ?generated (spec : Bench_grammars.Workload.spec) :
    float =
  let cw = Bench_grammars.Workload.compile spec in
  let corpus =
    Bench_grammars.Workload.build_corpus ~seed:7 cw ~target_tokens:4000
  in
  let programs =
    List.map (Bench_grammars.Workload.lex_exn cw)
      corpus.Bench_grammars.Workload.texts
  in
  let env = Bench_grammars.Workload.env_of_spec spec in
  let accepts toks =
    match generated with
    | Some (module P : Runtime.Generated.PARSER) -> (P.outcome ~env toks).ok
    | None -> Runtime.Interp.recognize ~env cw.Bench_grammars.Workload.c toks = Ok ()
  in
  let run () =
    List.iter
      (fun toks ->
        if not (accepts toks) then
          Alcotest.failf "%s: corpus program rejected" spec.name)
      programs
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  words /. float_of_int corpus.Bench_grammars.Workload.tokens

(* A parse that never speculates makes no memo table.  An eager
   1024-bucket [Hashtbl] per [Interp.create] of a memoizing grammar put
   1024 words on the major heap for every parse.  Words allocated directly in
   the major heap (not promoted) are counted around one create and
   recognize of a short MiniJava program.  [Gc.counters], because OCaml
   5's [Gc.quick_stat] folds in the running domain's major words only at
   a collection. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let create_alloc_test =
  test "MiniJava: a non-speculating parse allocates no memo table" (fun () ->
      let spec = Option.get (Bench_grammars.Specs.find "MiniJava") in
      let cw, _ = Test_cache.fresh_and_cached spec in
      let c = cw.Bench_grammars.Workload.c in
      let env = Bench_grammars.Workload.env_of_spec spec in
      let toks =
        Bench_grammars.Workload.lex_exn cw "class A { int x; void f() { } }"
      in
      let profile = Runtime.Profile.create () in
      let run () =
        let t =
          Runtime.Interp.create ~env ~profile c
            (Runtime.Token_stream.of_array toks)
        in
        (match Runtime.Interp.recognize_run t () with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "rejected");
        t
      in
      ignore (run ());
      check int "no speculation" 0 (Runtime.Profile.back_events profile);
      let before = direct_major_words () in
      let t = run () in
      let words = direct_major_words () -. before in
      check int "no memo entries" 0 (Runtime.Interp.memo_entries t);
      check bool
        (Printf.sprintf "%.0f major words < 256" words)
        true (words < 256.))

(* Serve and e2ebench make one interpreter per text, so [Interp.create]
   allocates only the parser's own records: recovery's sync sets belong
   to the compiled grammar, built on its first recovery.  An eager
   [Hashtbl.create 16] for the sync sets cost every create 22 more minor
   words (54 in all); the bound is what the lazy table measures. *)
let create_words_test =
  test "MiniJava: Interp.create allocates no recovery state" (fun () ->
      let spec = Option.get (Bench_grammars.Specs.find "MiniJava") in
      let cw, _ = Test_cache.fresh_and_cached spec in
      let c = cw.Bench_grammars.Workload.c in
      let env = Bench_grammars.Workload.env_of_spec spec in
      let ts =
        Runtime.Token_stream.of_array
          (Bench_grammars.Workload.lex_exn cw "class A { }")
      in
      let create () =
        ignore (Sys.opaque_identity (Runtime.Interp.create ~env c ts))
      in
      create ();
      let n = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        create ()
      done;
      let w = (Gc.minor_words () -. before) /. float_of_int n in
      check bool (Printf.sprintf "%.1f minor words per create <= 32" w) true
        (w <= 32.))

(* Recovery syncs on FOLLOW sets computed over the whole grammar.  Built
   per parse, they cost every recovering MiniJava parse ~156k minor words;
   built once per compiled grammar, only the first parse pays.  A fresh
   compilation, so no earlier test has built them. *)
let recovery_alloc_test =
  test "MiniJava: a second recovering parse reuses the sync sets" (fun () ->
      let spec = Option.get (Bench_grammars.Specs.find "MiniJava") in
      let cw = Bench_grammars.Workload.compile spec in
      let env = Bench_grammars.Workload.env_of_spec spec in
      let toks =
        Bench_grammars.Workload.lex_exn cw
          "class A { int x; void f() { x = ; y = 1; } }"
      in
      let words () =
        let before = Gc.minor_words () in
        (match
           Runtime.Interp.parse ~env ~recover:true cw.Bench_grammars.Workload.c
             toks
         with
        | Ok _ -> Alcotest.fail "the mutated program parsed"
        | Error _ -> ());
        Gc.minor_words () -. before
      in
      let first = words () in
      let second = words () in
      check bool
        (Printf.sprintf "second %.0f words <= first %.0f / 10" second first)
        true
        (second *. 10. <= first))

(* The PEG-mode StreamScale parse speculates in every statement.  Its
   memo entries die when the next statement's speculation starts; a
   table that kept them for the stream's lifetime grew with the input,
   and every chunk it grew by was promoted to the major heap.  Major
   words (promoted or allocated there) per token of one
   [Interp.recognize] over 2000 statements, already lexed: 1.2 with such
   a table, 0 without.  The bound leaves room for ten promoted chunks. *)
let peg_alloc_test =
  test "StreamScale PEG: Interp.recognize major words per token" (fun () ->
      let c = compile stream_scale_grammar in
      let toks = lex c (stream_scale_text 2000) in
      let run () =
        if Runtime.Interp.recognize c toks <> Ok () then
          Alcotest.fail "StreamScale rejected"
      in
      run ();
      Gc.minor ();
      let _, _, before = Gc.counters () in
      run ();
      let _, _, after = Gc.counters () in
      let w = (after -. before) /. float_of_int (Array.length toks) in
      check bool (Printf.sprintf "%.3f words/token <= 0.05" w) true (w <= 0.05))

(* Every StreamScale statement speculates, and every memo lookup in it
   misses and adds an entry: 27,000 of each over 2000 statements.  The
   parse allocates 1.54 minor words per token with a 64-slot hashed
   table made once per parse; a memo that allocated per speculation or
   per entry would add at least several words per statement. *)
let peg_minor_test =
  test "StreamScale PEG: Interp.recognize minor words per token" (fun () ->
      let c = compile stream_scale_grammar in
      let toks = lex c (stream_scale_text 2000) in
      let run () =
        if Runtime.Interp.recognize c toks <> Ok () then
          Alcotest.fail "StreamScale rejected"
      in
      run ();
      let before = Gc.minor_words () in
      run ();
      let w = (Gc.minor_words () -. before) /. float_of_int (Array.length toks) in
      check bool (Printf.sprintf "%.3f words/token <= 2.0" w) true (w <= 2.0))

(* A streamed parse starts with an empty token window and a 1 KiB byte
   buffer, both grown from what arrives, so a short one allocates nothing
   directly on the major heap.  An eager 4096-token window and 4 KiB
   buffer put 4,611 words there for every parse, whatever its size. *)
let drive_alloc_test =
  test "a 99-token streamed parse allocates nothing on the major heap"
    (fun () ->
      let c = compile drive_src in
      let text = sum_text 50 in
      let run () =
        if not (parsed (drive c text)).ok then Alcotest.fail "rejected"
      in
      run ();
      Gc.minor ();
      let before = direct_major_words () in
      run ();
      Gc.minor ();
      check int "direct major words" 0
        (int_of_float (direct_major_words () -. before)))

let alloc_tests =
  let row label generated (name, bound) =
    test (Printf.sprintf "%s: %s minor words per token" name label) (fun () ->
        let spec = Option.get (Bench_grammars.Specs.find name) in
        let generated = if generated then Gen.Registry.find name else None in
        let w = minor_words_per_token ?generated spec in
        check bool
          (Printf.sprintf "%.1f words/token <= %.1f" w bound)
          true (w <= bound))
  in
  (* Generated parsers measure 4.7 (MiniJava) and 10.7 (RatsC) words per
     token; 12.7 and 25.5 when every emitted rule invocation with a
     decision allocated its two stuck-guard refs. *)
  (create_alloc_test :: create_words_test
  :: List.map (row "Interp.recognize" false)
       [ ("MiniJava", 12.5); ("RatsC", 34.) ])
  @ List.map (row "generated parser" true) [ ("MiniJava", 7.); ("RatsC", 16.) ]
  @ [ peg_alloc_test; peg_minor_test; drive_alloc_test; recovery_alloc_test ]

let suite =
  [
    ("token-stream", stream_tests);
    ("streaming-window", streaming_tests);
    ("lexer-engine", lex_engine_tests);
    ("trees-errors", tree_tests);
    ("actions-speculation", action_tests);
    ("left-recursion", leftrec_tests);
    ("memoization", memo_tests @ [ memo_linear_test ]);
    ("memo-table", memo_props);
    ("drive", drive_tests);
    ("interp-alloc", alloc_tests);
  ]
