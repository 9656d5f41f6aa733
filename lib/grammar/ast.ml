(* Abstract syntax of predicated grammars (paper section 3, Figure 3),
   extended with the EBNF operators and sub-blocks that ANTLR's metalanguage
   provides and that the analysis handles by adding cycles to the ATN
   (section 5.5).

   Semantic predicates and actions are opaque host-language snippets: the
   runtime resolves them by their source text against user-supplied
   evaluation functions, which mirrors how generated ANTLR parsers splice the
   snippet into host code.  Precedence predicates ({p <= n}?) are produced by
   the left-recursion rewrite (section 1.1) and evaluated against the current
   rule's precedence argument. *)

type suffix =
  | One  (* plain sub-block ( ... ) *)
  | Opt  (* ( ... )? *)
  | Star (* ( ... )* *)
  | Plus (* ( ... )+ *)

type element =
  | Term of string (* token reference: [ID] or ['literal'] *)
  | Nonterm of { name : string; arg : int option }
    (* rule reference; [arg] is a precedence argument produced by the
       left-recursion rewrite *)
  | Block of { alts : alt list; suffix : suffix }
  | Sem_pred of string (* {code}? *)
  | Prec_pred of int (* {p <= n}? from the left-recursion rewrite *)
  | Syn_pred of alt list (* (alpha)=> syntactic predicate over fragment alpha *)
  | Action of { code : string; always : bool }
    (* {code} normal action, {{code}} always-executed action (section 4.3) *)
  | Wild (* . matches any single token *)

and alt = { elems : element list }

type rule = {
  name : string;
  rule_alts : alt list;
  parameterized : bool;
    (* true for rules rewritten by the left-recursion transform; they take a
       precedence argument *)
  source_line : int; (* 1-based line in metalanguage source; 0 if built *)
}

type options = {
  backtrack : bool; (* PEG mode: auto-insert syntactic predicates *)
  k : int option; (* optional user cap on lookahead DFA depth *)
  m : int; (* closure recursion bound (section 5.3) *)
  memoize : bool; (* memoize rule results while speculating *)
}

let default_options = { backtrack = false; k = None; m = 1; memoize = true }

type t = {
  gname : string;
  options : options;
  rules : rule list;
  start : string; (* defaults to the first rule *)
}

let make ?(options = default_options) ?start gname rules =
  let start =
    match (start, rules) with
    | Some s, _ -> s
    | None, r :: _ -> r.name
    | None, [] -> invalid_arg "Ast.make: empty grammar"
  in
  { gname; options; rules; start }

let find_rule g name = List.find_opt (fun r -> r.name = name) g.rules

let rule_names g = List.map (fun r -> r.name) g.rules

(* ------------------------------------------------------------------ *)
(* Structural traversal helpers                                        *)

let rec iter_elements_alt f (a : alt) = List.iter (iter_element f) a.elems

and iter_element f e =
  f e;
  match e with
  | Block { alts; _ } -> List.iter (iter_elements_alt f) alts
  | Syn_pred alts -> List.iter (iter_elements_alt f) alts
  | Term _ | Nonterm _ | Sem_pred _ | Prec_pred _ | Action _ | Wild -> ()

let iter_elements f (g : t) =
  List.iter (fun r -> List.iter (iter_elements_alt f) r.rule_alts) g.rules

(* All terminal spellings referenced anywhere in the grammar. *)
let terminals g =
  let acc = Hashtbl.create 32 in
  let order = ref [] in
  iter_elements
    (function
      | Term name ->
          if not (Hashtbl.mem acc name) then begin
            Hashtbl.add acc name ();
            order := name :: !order
          end
      | _ -> ())
    g;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Structural equality (used to detect duplicate alternatives)         *)

let rec equal_element (a : element) (b : element) =
  match (a, b) with
  | Term x, Term y -> x = y
  | Nonterm x, Nonterm y -> x.name = y.name && x.arg = y.arg
  | Block x, Block y ->
      x.suffix = y.suffix && equal_alts x.alts y.alts
  | Sem_pred x, Sem_pred y -> x = y
  | Prec_pred x, Prec_pred y -> x = y
  | Syn_pred x, Syn_pred y -> equal_alts x y
  | Action x, Action y -> x.code = y.code && x.always = y.always
  | Wild, Wild -> true
  | _ -> false

and equal_alt (a : alt) (b : alt) =
  List.length a.elems = List.length b.elems
  && List.for_all2 equal_element a.elems b.elems

and equal_alts a b =
  List.length a = List.length b && List.for_all2 equal_alt a b
