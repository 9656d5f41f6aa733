(* Combinator API for constructing grammars programmatically, used by the
   examples and the test-suite.  [lit "int"] produces the literal terminal
   ['int']; [t "ID"] a named token type; [nt "expr"] a rule reference. *)

open Ast

let t name : element = Term name
let lit text : element = Term ("'" ^ text ^ "'")
let nt name : element = Nonterm { name; arg = None }
let alt elems : alt = { elems }
let alts (xs : element list list) : alt list = List.map alt xs
let block xs : element = Block { alts = alts xs; suffix = One }
let opt xs : element = Block { alts = alts xs; suffix = Opt }
let star xs : element = Block { alts = alts xs; suffix = Star }
let plus xs : element = Block { alts = alts xs; suffix = Plus }
let sem_pred code : element = Sem_pred code
let syn_pred xs : element = Syn_pred (alts xs)
let action code : element = Action { code; always = false }
let wild : element = Wild

let rule ?(line = 0) name (productions : element list list) : rule =
  { name; rule_alts = alts productions; parameterized = false; source_line = line }

let grammar ?options ?start name rules = Ast.make ?options ?start name rules
