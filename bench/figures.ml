(* Reproduction of the paper's figures and section-2 examples:

   - Figure 1: the lookahead DFA for rule s, with minimal per-input
     lookahead and a cyclic scan over 'unsigned';
   - Figure 2: the mixed fixed-lookahead / backtracking DFA for rule t under
     PEG mode with recursion bound m = 1;
   - the section-2 LL-star-but-not-LR(k) grammar [a : b A+ X | c A+ Y],
     whose cyclic DFA the paper contrasts with LPG's exponential failure
     (the LPG comparison itself is the [lpg] bench). *)

let fig1_src =
  {|
grammar Fig1;
s : ID | ID '=' expr | ('unsigned')* 'int' ID | ('unsigned')* ID ID ;
expr : ID | INT ;
|}

let fig2_src =
  {|
grammar Fig2;
options { backtrack=true; m=1; }
t : ('-')* ID | expr ;
expr : INT | '-' expr ;
|}

let not_lrk_src = {|
grammar NotLRk;
a : b A+ X | c A+ Y ;
b : ;
c : ;
|}

let show_decision c i =
  let sym = Llstar.Compiled.sym c in
  let r = c.Llstar.Compiled.results.(i) in
  let d = c.Llstar.Compiled.atn.Atn.decisions.(i) in
  Fmt.pr "decision %d (%s), class %s:@.%a" i d.Atn.d_label
    (match r.Llstar.Analysis.klass with
    | Llstar.Analysis.Fixed k -> Printf.sprintf "LL(%d)" k
    | Llstar.Analysis.Cyclic -> "cyclic"
    | Llstar.Analysis.Backtrack -> "backtrack")
    (Llstar.Look_dfa.pp ~sym) r.Llstar.Analysis.dfa

(* Predict with the decision-0 DFA on a token-name sequence; prints the
   chosen production and the lookahead used, echoing the paper's narrative
   ("upon int, the DFA immediately predicts the third alternative"). *)
let predict_on c input_names =
  let sym = Llstar.Compiled.sym c in
  let toks =
    Array.of_list
      (List.mapi
         (fun i name ->
           let ttype =
             match Grammar.Sym.find_term sym name with
             | Some id -> id
             | None -> failwith ("unknown terminal " ^ name)
           in
           Runtime.Token.make ~index:i ttype name)
         input_names)
  in
  let dfa = Llstar.Compiled.dfa c 0 in
  let rec walk state depth =
    match Llstar.Look_dfa.accept_of dfa state with
    | Some alt -> (alt, depth)
    | None -> (
        let la =
          if depth < Array.length toks then toks.(depth).Runtime.Token.ttype
          else Grammar.Sym.eof
        in
        let tgt = Llstar.Look_dfa.target dfa state la in
        if tgt >= 0 then walk tgt (depth + 1)
        else
          let preds = Llstar.Look_dfa.pred_edges_of dfa state in
          if Array.length preds > 0 then (-1, depth) (* backtracks *)
          else (0, depth))
  in
  let alt, k = walk dfa.Llstar.Look_dfa.start 0 in
  Fmt.pr "  upon %-30s => %s (k=%d)@."
    (String.concat " " input_names)
    (match alt with
    | -1 -> "fails over to backtracking"
    | 0 -> "no viable alternative"
    | a -> Printf.sprintf "predict alternative %d" a)
    k

let fig1 () =
  Common.section "Figure 1: lookahead DFA for rule s";
  let c = Llstar.Compiled.of_source_exn fig1_src in
  show_decision c 0;
  Fmt.pr "@.minimum lookahead per input sequence (section 2):@.";
  predict_on c [ "'int'" ];
  predict_on c [ "ID"; "EOF" ];
  predict_on c [ "ID"; "'='" ];
  predict_on c [ "ID"; "ID" ];
  predict_on c [ "'unsigned'"; "'unsigned'"; "'int'" ];
  predict_on c [ "'unsigned'"; "'unsigned'"; "'unsigned'"; "ID"; "ID" ]

let fig2 () =
  Common.section
    "Figure 2: mixed k=3 lookahead and backtracking DFA for rule t (m=1)";
  let c = Llstar.Compiled.of_source_exn fig2_src in
  show_decision c 0;
  Fmt.pr "@.per-input behaviour (section 2):@.";
  predict_on c [ "ID" ];
  predict_on c [ "INT" ];
  predict_on c [ "'-'"; "ID" ];
  predict_on c [ "'-'"; "INT" ];
  predict_on c [ "'-'"; "'-'"; "ID" ];
  Fmt.pr
    "@.the decision only backtracks when the input begins with --, \"an \
     unlikely expression prefix\" (section 2).@."

let not_lrk () =
  Common.section
    "Section 2: cyclic DFA for the LL(*)-but-not-LR(k) grammar a : b A+ X | c \
     A+ Y";
  let c = Llstar.Compiled.of_source_exn not_lrk_src in
  show_decision c 0;
  predict_on c [ "A"; "A"; "A"; "X" ];
  predict_on c [ "A"; "Y" ]
