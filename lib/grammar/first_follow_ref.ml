(* Reference FIRST / FOLLOW / FIRST_k over Set.Make(String): the
   pre-interning implementation, retained verbatim as the oracle for the
   bitset rewrite in [First_follow].

   The live implementation runs the same fixpoints over interned-id bitsets
   (Bitset); this module exists so the differential property tests
   (test/test_bitset.ml) can compare the two on identical inputs.  Do not add callers: production
   code must use [First_follow]. *)

module SS = Set.Make (String)

module SeqSet = Set.Make (struct
  type t = string list

  let compare = compare
end)

type t = {
  bnf : Bnf.t;
  nullable : (string, bool) Hashtbl.t;
  first : (string, SS.t) Hashtbl.t;
  follow : (string, SS.t) Hashtbl.t;
}

let eof_name = "EOF"

let is_nullable t n =
  match Hashtbl.find_opt t.nullable n with Some b -> b | None -> false

let first_of t n =
  match Hashtbl.find_opt t.first n with Some s -> s | None -> SS.empty

let follow_of t n =
  match Hashtbl.find_opt t.follow n with Some s -> s | None -> SS.empty

let compute (bnf : Bnf.t) : t =
  let nullable = Hashtbl.create 16 in
  let first = Hashtbl.create 16 in
  let follow = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace nullable n false;
      Hashtbl.replace first n SS.empty;
      Hashtbl.replace follow n SS.empty)
    bnf.nonterms;
  let get tbl n =
    match Hashtbl.find_opt tbl n with Some s -> s | None -> SS.empty
  in
  let nul n =
    match Hashtbl.find_opt nullable n with Some b -> b | None -> false
  in
  (* nullable fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Bnf.prod) ->
        if not (nul p.lhs) then
          let all_nullable =
            List.for_all
              (function Bnf.T _ -> false | Bnf.N n -> nul n)
              p.rhs
          in
          if all_nullable then begin
            Hashtbl.replace nullable p.lhs true;
            changed := true
          end)
      bnf.prods
  done;
  (* FIRST fixpoint *)
  changed := true;
  while !changed do
    changed := false;
    List.iter
      (fun (p : Bnf.prod) ->
        let cur = get first p.lhs in
        let adds = ref SS.empty in
        let rec scan = function
          | [] -> ()
          | Bnf.T a :: _ -> adds := SS.add a !adds
          | Bnf.N n :: rest ->
              adds := SS.union (get first n) !adds;
              if nul n then scan rest
        in
        scan p.rhs;
        let merged = SS.union cur !adds in
        if not (SS.equal merged cur) then begin
          Hashtbl.replace first p.lhs merged;
          changed := true
        end)
      bnf.prods
  done;
  (* FOLLOW fixpoint; EOF follows the start symbol. *)
  Hashtbl.replace follow bnf.start (SS.singleton eof_name);
  changed := true;
  while !changed do
    changed := false;
    List.iter
      (fun (p : Bnf.prod) ->
        let rec scan = function
          | [] -> ()
          | Bnf.T _ :: rest -> scan rest
          | Bnf.N n :: rest ->
              let cur = get follow n in
              let adds = ref SS.empty in
              let rec first_of_rest = function
                | [] -> adds := SS.union (get follow p.lhs) !adds
                | Bnf.T a :: _ -> adds := SS.add a !adds
                | Bnf.N n' :: rest' ->
                    adds := SS.union (get first n') !adds;
                    if nul n' then first_of_rest rest'
              in
              first_of_rest rest;
              let merged = SS.union cur !adds in
              if not (SS.equal merged cur) then begin
                Hashtbl.replace follow n merged;
                changed := true
              end;
              scan rest
        in
        scan p.rhs)
      bnf.prods
  done;
  { bnf; nullable; first; follow }

(* FIRST of a symbol sequence. *)
let first_seq t (syms : Bnf.symbol list) : SS.t * bool =
  let rec scan acc = function
    | [] -> (acc, true)
    | Bnf.T a :: _ -> (SS.add a acc, false)
    | Bnf.N n :: rest ->
        let acc = SS.union (first_of t n) acc in
        if is_nullable t n then scan acc rest else (acc, false)
  in
  scan SS.empty syms

(* ------------------------------------------------------------------ *)
(* FIRST_k: sets of terminal sequences of length <= k.

   A sequence shorter than k in the result means derivation ended (reached
   end of all contexts); sequences are truncated at k.  [max_set_size] guards
   the exponential blow-up: when any intermediate set exceeds it,
   [Blowup] is raised carrying the size reached, which the LPG-anecdote
   bench catches and reports. *)

exception Blowup of int

(* Truncating concatenation of sequence sets. *)
let concat_k k (a : SeqSet.t) (b : SeqSet.t) : SeqSet.t =
  SeqSet.fold
    (fun x acc ->
      if List.length x >= k then SeqSet.add x acc
      else
        SeqSet.fold
          (fun y acc ->
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | z :: rest -> z :: take (n - 1) rest
            in
            SeqSet.add (x @ take (k - List.length x) y) acc)
          b acc)
    a SeqSet.empty

let first_k ?(max_set_size = 200_000) t k (syms : Bnf.symbol list) : SeqSet.t =
  (* Iterative deepening on derivation depth with memo per (nonterm, depth
     budget) would be costly; instead compute FIRST_k per nonterminal by
     fixpoint. *)
  let tbl : (string, SeqSet.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun n -> Hashtbl.replace tbl n SeqSet.empty)
    t.bnf.nonterms;
  let get n =
    match Hashtbl.find_opt tbl n with Some s -> s | None -> SeqSet.empty
  in
  let seq_first syms =
    let rec go acc = function
      | [] -> acc
      | sym :: rest ->
          let s =
            match sym with
            | Bnf.T a -> SeqSet.singleton [ a ]
            | Bnf.N n -> get n
          in
          let acc = concat_k k acc s in
          if acc = SeqSet.empty then acc
          else if SeqSet.for_all (fun x -> List.length x >= k) acc then acc
          else go acc rest
    in
    go (SeqSet.singleton []) syms
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Bnf.prod) ->
        let cur = get p.lhs in
        let nw = SeqSet.union cur (seq_first p.rhs) in
        if SeqSet.cardinal nw > max_set_size then
          raise (Blowup (SeqSet.cardinal nw));
        if not (SeqSet.equal nw cur) then begin
          Hashtbl.replace tbl p.lhs nw;
          changed := true
        end)
      t.bnf.prods
  done;
  seq_first syms
