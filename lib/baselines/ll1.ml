(* Table-driven LL(1) baseline over the BNF skeleton.

   Classic FIRST/FOLLOW-driven table construction with conflict detection.
   Serves two purposes: a correctness oracle for LL(1) grammars (agreement
   with the LL-star interpreter is property-tested) and a speed baseline
   showing LL-star decisions that are LL(1) cost about the same as a plain
   LL(1) parser.

   The table is a dense [int array] indexed by
   [nonterm_id * num_terms + term_id] over the interned symbol spaces of
   [First_follow]; construction iterates bitsets instead of string sets,
   and the stack machine compares ids.  Conflict reports stay in terms of
   symbol names. *)

module FF = Grammar.First_follow

type conflict = { nonterm : string; term : string; prods : int list }

type t = {
  bnf : Grammar.Bnf.t;
  prods : Grammar.Bnf.prod array;
  ff : FF.t;
  table : int array; (* nonterm_id * num_terms + term_id -> prod, -1 empty *)
  prod_rhs : int list array; (* symbol codes, for the stack machine *)
  conflicts : conflict list;
}

let build (bnf : Grammar.Bnf.t) : t =
  let ff = FF.compute bnf in
  let prods = Array.of_list bnf.prods in
  let nterms = FF.num_terms ff in
  let table = Array.make (FF.num_nonterms ff * nterms) (-1) in
  let conflicts = ref [] in
  let add nt term prod =
    let key = (nt * nterms) + term in
    let other = table.(key) in
    if other < 0 then table.(key) <- prod
    else if other <> prod then
      conflicts :=
        {
          nonterm = FF.nonterm_name ff nt;
          term = FF.term_name ff term;
          prods = [ other; prod ];
        }
        :: !conflicts
  in
  let prod_rhs = Array.map (fun i -> Array.to_list (FF.prod_rhs_ids ff i))
                   (Array.init (FF.num_prods ff) (fun i -> i))
  in
  for i = 0 to FF.num_prods ff - 1 do
    let lhs = FF.prod_lhs_id ff i in
    let first, nullable = FF.first_seq_ids ff (FF.prod_rhs_ids ff i) ~pos:0 in
    Bitset.iter (fun a -> add lhs a i) first;
    if nullable then Bitset.iter (fun a -> add lhs a i) (FF.follow_ids ff lhs)
  done;
  { bnf; prods; ff; table; prod_rhs; conflicts = List.rev !conflicts }

let of_grammar (g : Grammar.Ast.t) : t = build (Grammar.Bnf.convert g)

let is_ll1 t = t.conflicts = []

(* Recognize a sentence of terminal names with the predictive stack machine.
   Input names are interned once up front; a name the grammar never
   mentions gets a sentinel id that matches nothing but the wildcard. *)
let recognize ?(start : string option) (t : t) (input : string array) : bool =
  let ff = t.ff in
  let nterms = FF.num_terms ff in
  let n = Array.length input in
  let ids =
    Array.map
      (fun name -> match FF.term_id ff name with Some i -> i | None -> -2)
      input
  in
  let la i = if i < n then ids.(i) else FF.eof in
  let wild = match FF.term_id ff "." with Some i -> i | None -> -3 in
  let start = match start with Some s -> s | None -> t.bnf.start in
  match FF.nonterm_id ff start with
  | None -> false
  | Some s ->
      let rec go stack i =
        match stack with
        | [] -> i = n
        | c :: rest when FF.is_term_code c ->
            if la i = c || (c = wild && i < n) then go rest (i + 1) else false
        | c :: rest -> (
            let x = FF.nonterm_of_code c in
            let l = la i in
            if l < 0 then false
            else
              match t.table.((x * nterms) + l) with
              | -1 -> false
              | pi -> go (t.prod_rhs.(pi) @ rest) i)
      in
      go [ FF.code_of_nonterm s ] 0

let recognize_tokens ?start (t : t) (sym : Grammar.Sym.t)
    (toks : Runtime.Token.t array) : bool =
  let names =
    Array.map (fun (tok : Runtime.Token.t) -> Grammar.Sym.term_name sym tok.Runtime.Token.ttype) toks
  in
  recognize ?start t names

