(* Bitset laws (qcheck), and [First_follow] (interned-id bitsets)
   against the sets' definitions on every grammar -- random ones and the
   six benchmark grammars. *)

open Helpers
module Gen = QCheck.Gen
module FF = Grammar.First_follow

(* ------------------------------------------------------------------ *)
(* Reference model: sorted deduplicated int lists *)

let model_of_list u xs =
  List.sort_uniq compare (List.filter (fun x -> x >= 0 && x < u) xs)

let arb_set =
  let gen =
    let open Gen in
    int_range 1 200 >>= fun u ->
    list_size (int_bound 40) (int_bound (u - 1)) >>= fun xs ->
    return (u, xs)
  in
  QCheck.make
    ~print:(fun (u, xs) ->
      Printf.sprintf "u=%d [%s]" u
        (String.concat ";" (List.map string_of_int xs)))
    gen

let arb_two_sets =
  let gen =
    let open Gen in
    int_range 1 200 >>= fun u ->
    list_size (int_bound 40) (int_bound (u - 1)) >>= fun xs ->
    list_size (int_bound 40) (int_bound (u - 1)) >>= fun ys ->
    return (u, xs, ys)
  in
  QCheck.make
    ~print:(fun (u, xs, ys) ->
      Printf.sprintf "u=%d [%s] [%s]" u
        (String.concat ";" (List.map string_of_int xs))
        (String.concat ";" (List.map string_of_int ys)))
    gen

let bitset_props =
  [
    qtest "of_list/elements round-trips through the sorted model" arb_set
      (fun (u, xs) ->
        Bitset.elements (Bitset.of_list ~universe:u xs) = model_of_list u xs);
    qtest "elements are ascending (iteration order)" arb_set (fun (u, xs) ->
        let e = Bitset.elements (Bitset.of_list ~universe:u xs) in
        e = List.sort compare e);
    qtest "cardinal agrees with elements" arb_set (fun (u, xs) ->
        let s = Bitset.of_list ~universe:u xs in
        Bitset.cardinal s = List.length (Bitset.elements s));
    qtest "mem agrees with the model" arb_set (fun (u, xs) ->
        let s = Bitset.of_list ~universe:u xs in
        let m = model_of_list u xs in
        List.for_all (fun i -> Bitset.mem s i = List.mem i m)
          (List.init u (fun i -> i)));
    qtest "union is the model union" arb_two_sets (fun (u, xs, ys) ->
        let a = Bitset.of_list ~universe:u xs
        and b = Bitset.of_list ~universe:u ys in
        Bitset.elements (Bitset.union a b) = model_of_list u (xs @ ys));
    qtest "inter is the model intersection" arb_two_sets (fun (u, xs, ys) ->
        let a = Bitset.of_list ~universe:u xs
        and b = Bitset.of_list ~universe:u ys in
        let m = model_of_list u ys in
        Bitset.elements (Bitset.inter a b)
        = List.filter (fun x -> List.mem x m) (model_of_list u xs));
    qtest "diff is the model difference" arb_two_sets (fun (u, xs, ys) ->
        let a = Bitset.of_list ~universe:u xs
        and b = Bitset.of_list ~universe:u ys in
        let m = model_of_list u ys in
        Bitset.elements (Bitset.diff a b)
        = List.filter (fun x -> not (List.mem x m)) (model_of_list u xs));
    qtest "complement partitions the universe" arb_set (fun (u, xs) ->
        let s = Bitset.of_list ~universe:u xs in
        let c = Bitset.complement s in
        Bitset.is_empty (Bitset.inter s c)
        && Bitset.cardinal s + Bitset.cardinal c = u
        && List.sort compare (Bitset.elements s @ Bitset.elements c)
           = List.init u (fun i -> i));
    qtest "complement is an involution" arb_set (fun (u, xs) ->
        let s = Bitset.of_list ~universe:u xs in
        Bitset.equal s (Bitset.complement (Bitset.complement s)));
    qtest "union_into merges in place and reports changes exactly"
      arb_two_sets (fun (u, xs, ys) ->
        let a = Bitset.of_list ~universe:u xs
        and b = Bitset.of_list ~universe:u ys in
        let before = Bitset.copy a in
        let changed = Bitset.union_into ~into:a b in
        Bitset.equal a (Bitset.union before b)
        && changed = not (Bitset.equal a before)
        && not (Bitset.union_into ~into:a b) (* second merge: no change *));
    qtest "subset and equal behave like the model" arb_two_sets
      (fun (u, xs, ys) ->
        let a = Bitset.of_list ~universe:u xs
        and b = Bitset.of_list ~universe:u ys in
        Bitset.subset a (Bitset.union a b)
        && Bitset.subset (Bitset.inter a b) a
        && Bitset.equal a b
           = (model_of_list u xs = model_of_list u ys));
    qtest "min/max/choose agree with elements" arb_set (fun (u, xs) ->
        let s = Bitset.of_list ~universe:u xs in
        match Bitset.elements s with
        | [] ->
            Bitset.min_elt_opt s = None
            && Bitset.max_elt_opt s = None
            && Bitset.choose_opt s = None
        | es ->
            Bitset.min_elt_opt s = Some (List.hd es)
            && Bitset.max_elt_opt s = Some (List.nth es (List.length es - 1))
            && Bitset.choose_opt s = Some (List.hd es));
    qtest "remove deletes exactly one element" arb_set (fun (u, xs) ->
        match model_of_list u xs with
        | [] -> true
        | x :: _ as m ->
            let s = Bitset.of_list ~universe:u xs in
            Bitset.remove s x;
            Bitset.elements s = List.filter (fun y -> y <> x) m);
    test "range checks: add/remove raise, mem answers false" (fun () ->
        let s = Bitset.create 10 in
        check bool "mem -1" false (Bitset.mem s (-1));
        check bool "mem 10" false (Bitset.mem s 10);
        let raises f =
          match f () with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        check bool "add 10 raises" true (raises (fun () -> Bitset.add s 10));
        check bool "add -1 raises" true (raises (fun () -> Bitset.add s (-1)));
        check bool "remove 10 raises" true
          (raises (fun () -> Bitset.remove s 10));
        check bool "union universe mismatch raises" true
          (raises (fun () ->
               ignore (Bitset.union s (Bitset.create 11)))));
  ]

let growable_tests =
  [
    test "growable resizes across granule boundaries" (fun () ->
        let g = Bitset.Growable.create ~initial:1 () in
        List.iter (Bitset.Growable.add g) [ 0; 63; 64; 500 ];
        check bool "mem 0" true (Bitset.Growable.mem g 0);
        check bool "mem 64" true (Bitset.Growable.mem g 64);
        check bool "mem 500" true (Bitset.Growable.mem g 500);
        check bool "mem 499" false (Bitset.Growable.mem g 499);
        check bool "universe grew" true (Bitset.Growable.universe g > 500);
        check int "cardinal" 4 (Bitset.Growable.cardinal g);
        check bool "elements ascending" true
          (Bitset.Growable.elements g = [ 0; 63; 64; 500 ]));
    qtest "growable agrees with fixed on any id sequence"
      (QCheck.list_of_size (Gen.int_bound 60) (QCheck.int_bound 1000))
      (fun ids ->
        let g = Bitset.Growable.create () in
        List.iter (Bitset.Growable.add g) ids;
        Bitset.Growable.elements g = model_of_list 1001 ids);
    test "snapshot drops ids beyond the frozen universe" (fun () ->
        let g = Bitset.Growable.create () in
        List.iter (Bitset.Growable.add g) [ 1; 99; 100; 200 ];
        let s = Bitset.Growable.snapshot ~universe:100 g in
        check int "universe" 100 (Bitset.universe s);
        check bool "elements" true (Bitset.elements s = [ 1; 99 ]));
  ]

(* ------------------------------------------------------------------ *)
(* First_follow against the definitions

   Each set is the least fixpoint of its definition, computed the plain
   way: every production is applied to the previous round's sets until a
   round changes nothing.  Sets are sorted lists of names. *)

module Bnf = Grammar.Bnf

let union a b = List.sort_uniq compare (a @ b)

(* Apply [step] to an assoc list of per-nonterminal values until a round
   changes nothing. *)
let rec lfp step cur =
  let next = step cur in
  if next = cur then cur else lfp step next

let per_nonterm (bnf : Bnf.t) v = List.map (fun n -> (n, v)) bnf.nonterms
let get tbl default n = Option.value ~default (List.assoc_opt n tbl)

(* [A] derives the empty string through some production whose symbols all
   do. *)
let def_nullable (bnf : Bnf.t) : string -> bool =
  let tbl =
    lfp
      (fun cur ->
        List.map
          (fun (n, _) ->
            ( n,
              List.exists
                (fun (p : Bnf.prod) ->
                  List.for_all
                    (function Bnf.T _ -> false | Bnf.N m -> get cur false m)
                    p.rhs)
                (Bnf.prods_of bnf n) ))
          cur)
      (per_nonterm bnf false)
  in
  get tbl false

(* The terminals that begin a string [syms] derives (first is a function
   giving a nonterminal's set), and whether [syms] derives the empty
   string. *)
let def_first_seq nullable first syms =
  let rec go acc = function
    | [] -> (acc, true)
    | Bnf.T a :: _ -> (union acc [ a ], false)
    | Bnf.N n :: rest ->
        let acc = union acc (first n) in
        if nullable n then go acc rest else (acc, false)
  in
  go [] syms

let def_first (bnf : Bnf.t) nullable : string -> string list =
  let tbl =
    lfp
      (fun cur ->
        List.map
          (fun (n, _) ->
            ( n,
              List.fold_left
                (fun acc (p : Bnf.prod) ->
                  union acc
                    (fst (def_first_seq nullable (get cur []) p.rhs)))
                [] (Bnf.prods_of bnf n) ))
          cur)
      (per_nonterm bnf [])
  in
  get tbl []

(* EOF follows the start symbol; for every production [A -> u B v],
   FIRST(v) follows [B], and so does FOLLOW(A) when [v] is nullable. *)
let def_follow (bnf : Bnf.t) nullable first : string -> string list =
  let tbl =
    lfp
      (fun cur ->
        List.map
          (fun (b, old) ->
            let from_prod (p : Bnf.prod) =
              let rec scan acc = function
                | [] -> acc
                | Bnf.N n :: v when n = b ->
                    let f, empty = def_first_seq nullable first v in
                    let acc = union acc f in
                    let acc =
                      if empty then union acc (get cur [] p.lhs) else acc
                    in
                    scan acc v
                | _ :: v -> scan acc v
              in
              scan [] p.rhs
            in
            let start = if b = bnf.start then [ FF.eof_name ] else [] in
            ( b,
              List.fold_left
                (fun acc p -> union acc (from_prod p))
                (union old start) bnf.prods ))
          cur)
      (per_nonterm bnf [])
  in
  get tbl []

(* FIRST_k by enumeration over derivation height: the sequences (length
   <= k) yielded by derivation trees of height at most h, for h = 1, 2,
   ... until a height adds nothing.  A terminal yields itself; a symbol
   sequence yields what its first symbol yields once that has k tokens,
   and otherwise that extended by what the rest yields, cut to k.  So the
   symbols after k tokens need derive nothing, as in [First_follow]. *)
let take k l = List.filteri (fun i _ -> i < k) l

let def_seq_yield k (yields : string -> string list list) syms =
  let rec go acc = function
    | [] -> acc
    | sym :: rest ->
        let s = match sym with Bnf.T a -> [ [ a ] ] | Bnf.N n -> yields n in
        let done_, open_ = List.partition (fun x -> List.length x >= k) acc in
        let ext =
          List.concat_map (fun x -> List.map (fun y -> take k (x @ y)) s) open_
        in
        let acc = List.sort_uniq compare (done_ @ ext) in
        if acc = [] || List.for_all (fun x -> List.length x >= k) acc then acc
        else go acc rest
  in
  go [ [] ] syms

let def_first_k_table (bnf : Bnf.t) k : (string * string list list) list =
  lfp
    (fun cur ->
      List.map
        (fun (n, _) ->
          ( n,
            List.sort_uniq compare
              (List.concat_map
                 (fun (p : Bnf.prod) ->
                   def_seq_yield k (get cur []) p.rhs)
                 (Bnf.prods_of bnf n)) ))
        cur)
    (per_nonterm bnf [])

(* [First_follow] on one BNF skeleton against the definitions:
   nullable/FIRST/FOLLOW per nonterminal, FIRST of every production's rhs
   and FIRST_k for each of [ks].  With a set bound equal to the largest
   nonterminal FIRST_k set, every query answers; one below it, every
   query raises [FF.Blowup] with that size. *)
let agree ?(ks = [ 1; 2; 3 ]) (bnf : Bnf.t) : bool =
  let ff = FF.compute bnf in
  let nullable = def_nullable bnf in
  let first = def_first bnf nullable in
  let follow = def_follow bnf nullable first in
  let ss = FF.SS.elements in
  let nt_ok n =
    FF.is_nullable ff n = nullable n
    && ss (FF.first_of ff n) = first n
    && ss (FF.follow_of ff n) = follow n
  in
  let firstk_ok k =
    let tbl = def_first_k_table bnf k in
    let largest = List.fold_left (fun m (_, s) -> max m (List.length s)) 0 tbl in
    List.for_all
      (fun (p : Bnf.prod) ->
        FF.SeqSet.elements (FF.first_k ~max_set_size:largest ff k p.rhs)
        = def_seq_yield k (get tbl []) p.rhs
        && (largest = 0
           ||
           match FF.first_k ~max_set_size:(largest - 1) ff k p.rhs with
           | _ -> false
           | exception FF.Blowup n -> n = largest))
      bnf.prods
  in
  let prod_ok (p : Bnf.prod) =
    let s, e = FF.first_seq ff p.rhs in
    (ss s, e) = def_first_seq nullable first p.rhs
  in
  List.for_all nt_ok bnf.nonterms
  && List.for_all prod_ok bnf.prods
  && List.for_all firstk_ok ks

let definition_tests =
  List.map
    (fun (spec : Bench_grammars.Workload.spec) ->
      test
        (Printf.sprintf "bitset FF agrees with reference on %s"
           spec.Bench_grammars.Workload.name) (fun () ->
          let ast =
            Grammar.Meta_parser.parse_exn
              spec.Bench_grammars.Workload.grammar_text
          in
          check bool "agree" true
            (agree ~ks:[ 1 ] (Bnf.convert ast))))
    Bench_grammars.Specs.all
  @ [
      qtest ~count:150 "bitset FF agrees with reference on random grammars"
        Test_props.arb_grammar (fun g -> agree (Bnf.convert g));
    ]

let suite =
  [
    ("bitset", bitset_props @ growable_tests);
    ("bitset-differential", definition_tests);
  ]
