(* Elimination of immediate left recursion by rewriting into a
   precedence-predicated loop, the technique the paper sketches for "the
   next major release of ANTLR" (section 1.1, following Hansen's compact
   recursive-descent expression parsing):

     e : e '*' e | e '+' e | INT ;

   becomes the parameterized rule (precedence climbs with the alternative
   order, first alternative binds tightest):

     e[p] : (INT) ( {p <= 2}? '*' e[3] | {p <= 1}? '+' e[2] )* ;

   Alternative classification, for a rule [r]:
   - binary:  starts and ends with a reference to [r]  (e op e)
   - suffix:  starts with [r], does not end with it    (e '++')
   - prefix:  ends with [r], does not start with it    ('-' e) -- a primary
     alternative whose trailing recursion receives its own precedence
   - primary: everything else

   Binary operators associate to the left (the recursive tail is parsed at
   precedence n+1); prefix operators bind their operand at their own
   precedence (right associative), matching ANTLR 4's defaults. *)

open Ast

(* First "real" element of an alternative, skipping predicates and actions,
   together with the remaining elements. *)
let rec strip_prefix = function
  | (Sem_pred _ | Prec_pred _ | Action _ | Syn_pred _) :: rest ->
      strip_prefix rest
  | l -> l

let is_self_ref rule = function
  | Nonterm { name; _ } when name = rule -> true
  | _ -> false

type alt_class =
  | Binary of element list * element list
    (* middle between the two self references, and trailing
       predicates/actions after the second one (e.g. [e '*' e {mul}]) *)
  | Suffix of element list (* tail after the leading self reference *)
  | Primary

(* Split the leading predicates/actions off a list (used reversed, so these
   are an alternative's *trailing* non-matching elements). *)
let rec split_strippable = function
  | ((Sem_pred _ | Prec_pred _ | Action _ | Syn_pred _) as e) :: rest ->
      let stripped, core = split_strippable rest in
      (e :: stripped, core)
  | l -> ([], l)

let classify rule (a : alt) : alt_class =
  match strip_prefix a.elems with
  | first :: rest when is_self_ref rule first -> (
      let after_rev, core_rev = split_strippable (List.rev rest) in
      match core_rev with
      | last :: middle_rev when is_self_ref rule last ->
          Binary (List.rev middle_rev, List.rev after_rev)
      | _ -> Suffix rest)
  | _ -> Primary

let is_left_recursive_rule (r : rule) =
  List.exists (fun a -> classify r.name a <> Primary) r.rule_alts

(* Replace self references with an explicit precedence argument.  [trailing]
   is applied to the final element if it is a self reference (prefix
   operators bind their operand at their own precedence); all other self
   references restart at precedence 0. *)
let retarget rule ~trailing (elems : element list) : element list =
  let rec map_elem ~is_last (e : element) =
    match e with
    | Nonterm { name; _ } when name = rule ->
        let arg = if is_last then trailing else Some 0 in
        Nonterm { name; arg }
    | Block { alts; suffix } ->
        Block
          {
            alts = List.map (fun a -> { elems = map_list a.elems }) alts;
            suffix;
          }
    | other -> other
  and map_list = function
    | [] -> []
    | [ last ] -> [ map_elem ~is_last:true last ]
    | e :: rest -> map_elem ~is_last:false e :: map_list rest
  in
  map_list elems

let rewrite_rule (r : rule) : rule =
  let n = List.length r.rule_alts in
  let prec_of_index i = n - i - 1 in
  (* alternative i (0-based) has precedence n-i-1, first alternative binds
     tightest: for the paper's e : e '*' e | e '+' e | INT this yields
     {p <= 2}? '*' e[3] and {p <= 1}? '+' e[2], exactly section 1.1 *)
  let loop_alts = ref [] in
  let primary_alts = ref [] in
  List.iteri
    (fun i a ->
      let prec = prec_of_index i in
      match classify r.name a with
      | Binary (middle, after) ->
          (* left associative: the recursive tail parses at prec+1 *)
          let middle = retarget r.name ~trailing:(Some 0) middle in
          let tail = Nonterm { name = r.name; arg = Some (prec + 1) } in
          loop_alts :=
            { elems = (Prec_pred prec :: middle) @ (tail :: after) }
            :: !loop_alts
      | Suffix tail ->
          let tail = retarget r.name ~trailing:(Some 0) tail in
          loop_alts := { elems = Prec_pred prec :: tail } :: !loop_alts
      | Primary ->
          (* a prefix operator's trailing operand parses at its own
             precedence (right associative) *)
          let elems = retarget r.name ~trailing:(Some prec) a.elems in
          primary_alts := { elems } :: !primary_alts)
    r.rule_alts;
  let loop_alts = List.rev !loop_alts in
  let primary_alts = List.rev !primary_alts in
  if primary_alts = [] then
    invalid_arg
      (Printf.sprintf
         "Leftrec.rewrite: rule '%s' has no non-left-recursive alternative"
         r.name);
  let primary : element =
    match primary_alts with
    | [ { elems } ] when List.length elems >= 1 -> Block { alts = primary_alts; suffix = One }
    | _ -> Block { alts = primary_alts; suffix = One }
  in
  let loop : element = Block { alts = loop_alts; suffix = Star } in
  {
    r with
    parameterized = true;
    rule_alts = [ { elems = [ primary; loop ] } ];
  }

let rewrite (g : t) : t =
  let rules =
    List.map
      (fun r -> if is_left_recursive_rule r then rewrite_rule r else r)
      g.rules
  in
  { g with rules }
