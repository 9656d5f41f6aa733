(* Bitset laws (qcheck) and the bitset-vs-string-set differential:
   [First_follow] (interned-id bitsets) must agree exactly with the
   retained reference implementation [First_follow_ref] (Set.Make(String))
   on every grammar -- random ones and the six benchmark grammars. *)

open Helpers
module Gen = QCheck.Gen
module FF = Grammar.First_follow
module FFR = Grammar.First_follow_ref

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
(* Differential: First_follow vs First_follow_ref *)

let ss_elems s = FF.SS.elements s
let ssr_elems s = FFR.SS.elements s
let seq_elems s = FF.SeqSet.elements s
let seqr_elems s = FFR.SeqSet.elements s

(* Compare the two implementations exhaustively on one BNF skeleton:
   nullable/FIRST/FOLLOW per nonterminal, FIRST of every production's rhs,
   and FIRST_k (including identical blow-up behavior) for small k. *)
let agree ?(ks = [ 1; 2; 3 ]) ?(max_set_size = 5_000) (bnf : Grammar.Bnf.t) :
    bool =
  let ff = FF.compute bnf in
  let rf = FFR.compute bnf in
  let nt_ok n =
    FF.is_nullable ff n = FFR.is_nullable rf n
    && ss_elems (FF.first_of ff n) = ssr_elems (FFR.first_of rf n)
    && ss_elems (FF.follow_of ff n) = ssr_elems (FFR.follow_of rf n)
  in
  let prod_ok (p : Grammar.Bnf.prod) =
    let s1, n1 = FF.first_seq ff p.rhs in
    let s2, n2 = FFR.first_seq rf p.rhs in
    let firstk_ok k =
      match FF.first_k ~max_set_size ff k p.rhs with
      | s -> (
          match FFR.first_k ~max_set_size rf k p.rhs with
          | s' -> seq_elems s = seqr_elems s'
          | exception FFR.Blowup _ -> false)
      | exception FF.Blowup n -> (
          match FFR.first_k ~max_set_size rf k p.rhs with
          | _ -> false
          | exception FFR.Blowup n' -> n = n')
    in
    ss_elems s1 = ssr_elems s2 && n1 = n2 && List.for_all firstk_ok ks
  in
  List.for_all nt_ok bnf.Grammar.Bnf.nonterms
  && List.for_all prod_ok bnf.Grammar.Bnf.prods

let differential_tests =
  List.map
    (fun (spec : Bench_grammars.Workload.spec) ->
      test (Printf.sprintf "bitset FF agrees with reference on %s"
              spec.Bench_grammars.Workload.name) (fun () ->
          let ast =
            Grammar.Meta_parser.parse_exn
              spec.Bench_grammars.Workload.grammar_text
          in
          (* k is pinned to 1 here: the reference recomputes its whole
             FIRST_k fixpoint on every query, so per-production checks at
             k>=2 on these grammars cost minutes.  The random-grammar
             property below covers k up to 3. *)
          check bool "agree" true
            (agree ~ks:[ 1 ] ~max_set_size:2_000 (Grammar.Bnf.convert ast))))
    Bench_grammars.Specs.all
  @ [
      qtest ~count:150 "bitset FF agrees with reference on random grammars"
        Test_props.arb_grammar (fun g ->
          agree (Grammar.Bnf.convert g));
    ]

let suite =
  [
    ("bitset", bitset_props @ growable_tests);
    ("bitset-differential", differential_tests);
  ]
