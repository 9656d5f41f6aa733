(* Property-based tests (qcheck, registered via QCheck_alcotest).

   A generator produces random well-formed, non-left-recursive grammars; the
   properties tie the whole pipeline together:

   - analysis terminates and produces deterministic DFAs;
   - soundness: anything the LL-star parser accepts is in the grammar's
     context-free language (checked against the Earley baseline);
   - parse trees yield exactly the input;
   - random sentences drawn from the grammar are in its language;
   - on LL(1) grammars the LL-star parser agrees with the table-driven
     LL(1) baseline on arbitrary token strings;
   - the pretty-printer round-trips;
   - a sliding-window parse is observably identical to a parse over the
     pinned array (verdict, error position, profile, parse tree,
     recovered errors) at every window size, leaves no live marks, and
     chunked lexing equals whole-string lexing. *)

open Helpers
module Gen = QCheck.Gen

let terminals = [| "A"; "B"; "C"; "D"; "E" |]
let rule_names = [| "r0"; "r1"; "r2"; "r3" |]

(* Generate one element for rule [i] at position [pos].  To keep grammars
   free of left recursion by construction, a leading nonterminal reference
   may only point to a later rule; after at least one terminal, any rule may
   be referenced. *)
let gen_element i pos : Grammar.Ast.element Gen.t =
  let open Gen in
  let term = map (fun t -> Grammar.Ast.Term terminals.(t)) (int_bound 4) in
  let nonterm =
    if pos = 0 then
      if i >= Array.length rule_names - 1 then term
      else
        map
          (fun j ->
            Grammar.Ast.Nonterm
              { name = rule_names.(i + 1 + (j mod (Array.length rule_names - i - 1))); arg = None })
          (int_bound 3)
    else
      map
        (fun j -> Grammar.Ast.Nonterm { name = rule_names.(j); arg = None })
        (int_bound (Array.length rule_names - 1))
  in
  let star_block =
    map
      (fun t ->
        Grammar.Ast.Block
          {
            alts = [ { Grammar.Ast.elems = [ Grammar.Ast.Term terminals.(t) ] } ];
            suffix = Grammar.Ast.Star;
          })
      (int_bound 4)
  in
  let opt_block =
    map
      (fun t ->
        Grammar.Ast.Block
          {
            alts = [ { Grammar.Ast.elems = [ Grammar.Ast.Term terminals.(t) ] } ];
            suffix = Grammar.Ast.Opt;
          })
      (int_bound 4)
  in
  frequency [ (5, term); (2, nonterm); (1, star_block); (1, opt_block) ]

let gen_alt i : Grammar.Ast.alt Gen.t =
  let open Gen in
  int_range 1 3 >>= fun len ->
  let rec go pos acc =
    if pos >= len then return (List.rev acc)
    else gen_element i pos >>= fun e -> go (pos + 1) (e :: acc)
  in
  map (fun elems -> { Grammar.Ast.elems }) (go 0 [])

let gen_rule i : Grammar.Ast.rule Gen.t =
  let open Gen in
  int_range 1 3 >>= fun nalts ->
  map
    (fun alts ->
      {
        Grammar.Ast.name = rule_names.(i);
        rule_alts = alts;
        parameterized = false;
        source_line = 0;
      })
    (flatten_l (List.init nalts (fun _ -> gen_alt i)))

let gen_grammar : Grammar.Ast.t Gen.t =
  let open Gen in
  map
    (fun rules -> Grammar.Ast.make "Rand" rules)
    (flatten_l (List.init (Array.length rule_names) gen_rule))

let arb_grammar =
  QCheck.make ~print:Grammar.Pretty.to_string gen_grammar

(* A random grammar paired with a sentence drawn from it. *)
let arb_grammar_and_sentence =
  let gen =
    let open Gen in
    gen_grammar >>= fun g ->
    int_bound 1000 >>= fun seed ->
    let rng = Random.State.make [| seed |] in
    let sg = Grammar.Sentence_gen.prepare g in
    let sentence =
      match Grammar.Sentence_gen.generate sg ~rng ~size:12 with
      | s -> Some s
      | exception Grammar.Sentence_gen.Unproductive -> None
    in
    return (g, sentence)
  in
  QCheck.make
    ~print:(fun (g, s) ->
      Grammar.Pretty.to_string g ^ "\nsentence: "
      ^ String.concat " " (Option.value ~default:[ "<unproductive>" ] s))
    gen

(* Random grammars can be extremely ambiguous; a tight state budget keeps
   analysis time bounded (the fallback path is part of what we test). *)
let rand_opts =
  { Llstar.Analysis.default_options with Llstar.Analysis.max_states = 200 }

let compile_rand g =
  match Llstar.Compiled.compile ~analysis_opts:rand_opts g with
  | Ok c -> Some c
  | Error _ -> None (* e.g. a generated rule set with unlucky shapes *)

let tokens_of_names c names =
  let sym = Llstar.Compiled.sym c in
  Array.of_list
    (List.mapi
       (fun i name ->
         match Grammar.Sym.find_term sym name with
         | Some id -> Runtime.Token.make ~index:i id name
         | None ->
             (* a terminal the grammar never mentions: any valid parser must
                reject it, so give it an id no DFA edge can match *)
             Runtime.Token.make ~index:i 999_999 name)
       names)

let props =
  [
    qtest ~count:80 "analysis terminates with deterministic DFAs" arb_grammar
      (fun g ->
        match compile_rand g with
        | None -> true
        | Some c ->
            Array.for_all
              (fun (r : Llstar.Analysis.result) ->
                let dfa = r.Llstar.Analysis.dfa in
                let ok = ref true in
                for s = 0 to dfa.Llstar.Look_dfa.nstates - 1 do
                  let seen = Hashtbl.create 8 in
                  Array.iter
                    (fun (t, _) ->
                      if Hashtbl.mem seen t then ok := false
                      else Hashtbl.add seen t ())
                    dfa.Llstar.Look_dfa.edges.(s)
                done;
                !ok)
              c.Llstar.Compiled.results);
    qtest ~count:300 "generated sentences are in the CFG language (Earley)"
      arb_grammar_and_sentence (fun (g, sentence) ->
        match sentence with
        | None -> true (* unproductive grammar: nothing to generate *)
        | Some sentence ->
            let e = Baselines.Earley.of_grammar g in
            Baselines.Earley.recognize e (Array.of_list sentence));
    qtest ~count:80 "LL(*) acceptance implies CFG membership"
      arb_grammar_and_sentence (fun (g, sentence) ->
        match (compile_rand g, sentence) with
        | None, _ | _, None -> true
        | Some c, Some sentence -> (
            let toks = tokens_of_names c sentence in
            match Runtime.Interp.parse c toks with
            | Error _ -> true (* order-resolution may prune; rejection is fine *)
            | Ok tree ->
                (* soundness: accepted implies in the language *)
                let e = Baselines.Earley.of_grammar g in
                Baselines.Earley.recognize e (Array.of_list sentence)
                (* and the tree covers the input exactly *)
                && Runtime.Tree.yield tree = String.concat " " sentence));
    qtest ~count:300 "pretty-printing round-trips" arb_grammar (fun g ->
        let p1 = Grammar.Pretty.to_string g in
        let p2 =
          Grammar.Pretty.to_string (Grammar.Meta_parser.parse p1)
        in
        p1 = p2);
    qtest ~count:80 "LL(1) table agreement on LL(1) grammars"
      (QCheck.pair arb_grammar (QCheck.list_of_size (Gen.int_bound 6) (QCheck.int_bound 4)))
      (fun (g, word) ->
        let t = Baselines.Ll1.of_grammar g in
        if not (Baselines.Ll1.is_ll1 t) then true
        else
          match compile_rand g with
          | None -> true
          | Some c ->
              let names = List.map (fun i -> terminals.(i)) word in
              let toks = tokens_of_names c names in
              let ll1 = Baselines.Ll1.recognize t (Array.of_list names) in
              let llstar =
                match Runtime.Interp.recognize c toks with
                | Ok () -> true
                | Error _ -> false
              in
              QCheck.(
                if ll1 <> llstar then
                  Test.fail_reportf "ll1=%b llstar=%b on %s" ll1 llstar
                    (String.concat " " names)
                else true));
    qtest ~count:50 "memoized and unmemoized speculation agree"
      arb_grammar_and_sentence (fun (g, sentence) ->
        let peg =
          {
            g with
            Grammar.Ast.options =
              {
                g.Grammar.Ast.options with
                Grammar.Ast.backtrack = true;
                Grammar.Ast.memoize = true;
              };
          }
        in
        let nomemo =
          {
            peg with
            Grammar.Ast.options =
              { peg.Grammar.Ast.options with Grammar.Ast.memoize = false };
          }
        in
        match (compile_rand peg, compile_rand nomemo, sentence) with
        | Some c1, Some c2, Some sentence ->
            let t1 = tokens_of_names c1 sentence in
            let t2 = tokens_of_names c2 sentence in
            let r1 =
              match Runtime.Interp.recognize c1 t1 with Ok () -> true | _ -> false
            in
            let r2 =
              match Runtime.Interp.recognize c2 t2 with Ok () -> true | _ -> false
            in
            r1 = r2
        | _ -> true);
    (* The two differential-oracle invariants (lib/fuzz) restated as
       properties over random grammars: PEG acceptance implies PEG-mode
       LL-star acceptance (the DFA may resolve decisions PEG would
       prefix-commit on, so LL-star can accept strictly more -- that is the
       paper's pitch -- but never less), and on LL(1)-clean grammars
       LL-star agrees with Earley in both directions. *)
    qtest ~count:80 "packrat acceptance implies PEG-mode LL(*) acceptance"
      (QCheck.pair arb_grammar_and_sentence
         (QCheck.list_of_size (Gen.int_bound 6) (QCheck.int_bound 4)))
      (fun ((g, sentence), word) ->
        let peg =
          {
            g with
            Grammar.Ast.options =
              { g.Grammar.Ast.options with Grammar.Ast.backtrack = true };
          }
        in
        match compile_rand peg with
        | None -> true
        | Some c ->
            let pk = Baselines.Packrat.create ~memoize:true peg in
            let agree names =
              let toks = tokens_of_names c names in
              let llstar =
                match Runtime.Interp.recognize c toks with
                | Ok () -> true
                | Error _ -> false
              in
              match
                Baselines.Packrat.recognize ~budget:500_000 pk
                  (Llstar.Compiled.sym c) toks ()
              with
              | exception Baselines.Packrat.Give_up -> true (* fuel: skip *)
              | packrat ->
                  QCheck.(
                    if packrat && not llstar then
                      Test.fail_reportf "packrat=%b llstar=%b on %s" packrat
                        llstar (String.concat " " names)
                    else true)
            in
            let on_sentence =
              match sentence with None -> true | Some s -> agree s
            in
            on_sentence && agree (List.map (fun i -> terminals.(i)) word));
    qtest ~count:80 "Earley agreement on LL(1)-clean grammars"
      (QCheck.pair arb_grammar_and_sentence
         (QCheck.list_of_size (Gen.int_bound 6) (QCheck.int_bound 4)))
      (fun ((g, sentence), word) ->
        let t = Baselines.Ll1.of_grammar g in
        if not (Baselines.Ll1.is_ll1 t) then true
        else
          match compile_rand g with
          | None -> true
          | Some c ->
              let e = Baselines.Earley.of_grammar g in
              let agree names =
                let toks = tokens_of_names c names in
                let llstar =
                  match Runtime.Interp.recognize c toks with
                  | Ok () -> true
                  | Error _ -> false
                in
                let earley = Baselines.Earley.recognize e (Array.of_list names) in
                QCheck.(
                  if earley <> llstar then
                    Test.fail_reportf "earley=%b llstar=%b on %s" earley llstar
                      (String.concat " " names)
                  else true)
              in
              let on_sentence =
                match sentence with None -> true | Some s -> agree s
              in
              on_sentence && agree (List.map (fun i -> terminals.(i)) word));
    qtest ~count:80 "minimization preserves acceptance and yield"
      arb_grammar_and_sentence (fun (g, sentence) ->
        let opts_min =
          { rand_opts with Llstar.Analysis.minimize = true }
        in
        let c_min =
          match Llstar.Compiled.compile ~analysis_opts:opts_min g with
          | Ok c -> Some c
          | Error _ -> None
        in
        match (compile_rand g, c_min, sentence) with
        | Some c1, Some c2, Some sentence -> (
            let t1 = tokens_of_names c1 sentence in
            let t2 = tokens_of_names c2 sentence in
            match (Runtime.Interp.parse c1 t1, Runtime.Interp.parse c2 t2) with
            | Ok a, Ok b -> Runtime.Tree.yield a = Runtime.Tree.yield b
            | Error _, Error _ -> true
            | _ -> false)
        | _ -> true);
    (* The token pipeline's contract: a sliding window plus memo eviction
       behind the release frontier changes memory behaviour only.
       Verdict, error position, consumed count, the full profile (so
       decision events, lookahead depths and speculation reach), the parse
       tree and the recovered error list must match the pinned-array
       parse at every window size -- including a window of 1 (maximum
       sliding) and window == input length (never slides).  Every parse,
       over either constructor, must release every mark it took. *)
    qtest ~count:60 "streaming parse == materialized at any window"
      (QCheck.pair arb_grammar_and_sentence
         (QCheck.list_of_size (Gen.int_bound 8) (QCheck.int_bound 4)))
      (fun ((g, sentence), word) ->
        let peg =
          {
            g with
            Grammar.Ast.options =
              {
                g.Grammar.Ast.options with
                Grammar.Ast.backtrack = true;
                Grammar.Ast.memoize = true;
              };
          }
        in
        match compile_rand peg with
        | None -> true
        | Some c ->
            let sym = Llstar.Compiled.sym c in
            let render = function
              | Ok tree -> "accept " ^ Runtime.Tree.to_string sym tree
              | Error es ->
                  String.concat "; "
                    (List.map (Runtime.Parse_error.to_string sym) es)
            in
            (* Outcome, profile, tree and recovered errors over fresh
               streams from [mk], each checked for leaked marks. *)
            let observe label mk =
              let parse f =
                let ts = mk () in
                let r = f ts in
                if Runtime.Token_stream.live_marks ts <> [] then
                  QCheck.Test.fail_reportf "%s: marks leaked" label;
                r
              in
              let pr = Runtime.Profile.create () in
              let o =
                parse (Runtime.Generated.interp_outcome_stream ~profile:pr c)
              in
              let tree =
                parse (fun ts ->
                    render (Runtime.Interp.run (Runtime.Interp.create c ts) ()))
              in
              let recovered =
                parse (fun ts ->
                    render
                      (Runtime.Interp.run
                         (Runtime.Interp.create ~recover:true c ts)
                         ()))
              in
              (o, Fmt.str "%a" Runtime.Profile.pp pr, tree, recovered)
            in
            let agree_on names =
              let toks = tokens_of_names c names in
              let mat, pm, tm, rm =
                observe "of_array" (fun () ->
                    Runtime.Token_stream.of_array toks)
              in
              let windows = [ 1; 2; 16; max 1 (Array.length toks) ] in
              List.for_all
                (fun window ->
                  let str, ps, ts, rs =
                    observe (Printf.sprintf "window %d" window) (fun () ->
                        Runtime.Token_stream.of_pull ~window
                          (pull_of_array ~chunk:3 toks))
                  in
                  let on = String.concat " " names in
                  QCheck.(
                    if not (Runtime.Generated.agree mat str) then
                      Test.fail_reportf "window %d: %s vs %s on %s" window
                        (Runtime.Generated.describe mat)
                        (Runtime.Generated.describe str)
                        on
                    else if pm <> ps then
                      Test.fail_reportf "window %d: profiles differ on %s"
                        window on
                    else if tm <> ts then
                      Test.fail_reportf
                        "window %d: trees differ on %s: %s vs %s" window on tm
                        ts
                    else if rm <> rs then
                      Test.fail_reportf
                        "window %d: recovered errors differ on %s: %s vs %s"
                        window on rm rs
                    else true))
                windows
            in
            let on_sentence =
              match sentence with None -> true | Some s -> agree_on s
            in
            on_sentence && agree_on (List.map (fun i -> terminals.(i)) word));
  ]

(* ------------------------------------------------------------------ *)
(* Chunked lexing: the incremental scanner must be observably identical
   to the whole-string path -- same tokens (type, text, position, index)
   or the same first error -- at any chunk granularity. *)

let lex_vocab =
  lazy
    (Llstar.Compiled.sym
       (compile "grammar L; s : ID INT ';' '+' '==' '(' ')' ;"))

let lexemes =
  [| "x"; "abc_1"; "42"; "007"; ";"; "+"; "=="; "("; ")"; "// c"; "/* b */"; "$" |]

let lex_props =
  [
    qtest ~count:200 "chunked lexing == whole-string lexing"
      (QCheck.pair
         (QCheck.list_of_size (Gen.int_bound 30)
            (QCheck.int_bound (Array.length lexemes - 1)))
         (QCheck.int_range 1 5))
      (fun (picks, max_tokens) ->
        let sym = Lazy.force lex_vocab in
        let config = Runtime.Lexer_engine.default_config in
        let text =
          String.concat ""
            (List.mapi
               (fun i p ->
                 lexemes.(p) ^ if i mod 3 = 0 then "\n" else " ")
               picks)
        in
        let whole = Runtime.Lexer_engine.tokenize config sym text in
        let ls =
          Runtime.Lexer_engine.stream ~buf_chars:64 config sym
            (Runtime.Lexer_engine.reader_of_string text)
        in
        let rec collect acc =
          match Runtime.Lexer_engine.next_chunk ~max_tokens ls with
          | Error e -> Error e
          | Ok [||] -> Ok (Array.concat (List.rev acc))
          | Ok chunk -> collect (chunk :: acc)
        in
        let chunked = collect [] in
        QCheck.(
          match (whole, chunked) with
          | Ok a, Ok b ->
              if a <> b then
                Test.fail_reportf "token arrays differ on %S" text
              else true
          | Error a, Error b ->
              if a <> b then
                Test.fail_reportf "errors differ on %S: %s vs %s" text
                  a.Runtime.Lexer_engine.msg b.Runtime.Lexer_engine.msg
              else true
          | Ok _, Error e ->
              Test.fail_reportf "chunked failed, whole succeeded on %S: %s"
                text e.Runtime.Lexer_engine.msg
          | Error e, Ok _ ->
              Test.fail_reportf "whole failed, chunked succeeded on %S: %s"
                text e.Runtime.Lexer_engine.msg))
  ]

let suite = [ ("properties", props); ("lexing-properties", lex_props) ]
