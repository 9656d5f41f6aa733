(* The interpreter's program is the ATN (interp-program): every slot of
   [Atn.Program] is checked against the ATN edge it was built from, every
   successor against a plain walk over single-[Eps] non-decision states,
   and the program a cache load brings back against the fresh one.  The
   grammars are the six bench grammars, examples/grammars/{expr,json}.g, a
   grammar with every kind of edge, and random grammars. *)

open Helpers
module P = Atn.Program

(* The first state reached from [s] through non-decision states whose only
   edge is [Eps]: the definition the program's successors must meet. *)
let rec skip_eps (a : Atn.t) ~fuel s =
  if fuel < 0 then Alcotest.failf "epsilon cycle through state %d" s;
  match a.Atn.trans.(s) with
  | [| (Atn.Eps, tgt) |] when Atn.decision_of a s < 0 ->
      skip_eps a ~fuel:(fuel - 1) tgt
  | _ -> s

let op_name = function
  | P.Decide -> "decide"
  | P.Match -> "match"
  | P.Call -> "call"
  | P.Sem -> "sem"
  | P.Prec -> "prec"
  | P.Syn -> "syn"
  | P.Act -> "act"
  | P.Stop -> "stop"
  | P.Dead -> "dead"

(* The slot [s] should hold, from its own edges: (op, a, b, successor). *)
let expected_slot (a : Atn.t) (p : P.t) resolve s =
  let row = a.Atn.trans.(s) in
  let d = Atn.decision_of a s in
  if d >= 0 then (P.Decide, d, P.arg2 p s, -1)
  else if Atn.is_stop_state a s then (P.Stop, 0, 0, -1)
  else
    match row with
    | [||] -> (P.Dead, 0, 0, -1)
    | [| (edge, tgt) |] -> (
        let next = resolve tgt in
        match edge with
        | Atn.Eps -> Alcotest.failf "state %d: kept epsilon state" s
        | Atn.Term t -> (P.Match, t, 0, next)
        | Atn.Rule { rule; arg } ->
            (P.Call, rule, Option.value ~default:0 arg, next)
        | Atn.Pred (Atn.Sem _) -> (P.Sem, P.arg p s, 0, next)
        | Atn.Pred (Atn.Prec n) -> (P.Prec, n, 0, next)
        | Atn.Pred (Atn.Syn r) -> (P.Syn, r, 0, next)
        | Atn.Act { id; always } -> (P.Act, id, Bool.to_int always, next))
    | _ -> Alcotest.failf "state %d: a non-decision state with %d edges" s
             (Array.length row)

let slot p s = (P.op p s, P.arg p s, P.arg2 p s, P.next p s)

let pp_slot (op, x, y, n) = Printf.sprintf "%s %d %d -> %d" (op_name op) x y n

(* Checks [c]'s program against its ATN; returns the opcodes its slots
   use. *)
let check_program name (c : Llstar.Compiled.t) : P.op list =
  let a = c.Llstar.Compiled.atn and p = c.Llstar.Compiled.program in
  let n = a.Atn.nstates in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  if P.length p <> n then fail "%d slots for %d states" (P.length p) n;
  let resolve = skip_eps a ~fuel:n in
  let kept s = resolve s = s in
  for s = 0 to n - 1 do
    let want =
      if kept s then expected_slot a p resolve s else slot p (resolve s)
    in
    if slot p s <> want then
      fail "state %d: slot %s, want %s" s (pp_slot (slot p s))
        (pp_slot want);
    (match a.Atn.trans.(s) with
    | [| (Atn.Pred (Atn.Sem text), _) |] when kept s ->
        if p.P.sem.(P.arg p s) <> text then
          fail "state %d: predicate text %S, want %S" s
            p.P.sem.(P.arg p s) text
    | _ -> ());
    let d = Atn.decision_of a s in
    if d >= 0 then
      Array.iteri
        (fun i (_, tgt) ->
          if P.alt_next p s (i + 1) <> resolve tgt then
            fail "decision %d, alternative %d: successor %d, want %d" d
              (i + 1)
              (P.alt_next p s (i + 1))
              (resolve tgt))
        a.Atn.trans.(s)
  done;
  (* Every slot reachable from a rule's first slot is a kept state. *)
  let seen = Array.make n false in
  let rec visit s =
    if s >= 0 && not seen.(s) then begin
      seen.(s) <- true;
      if not (kept s) then fail "reachable slot %d is an epsilon step" s;
      match P.op p s with
      | P.Decide ->
          for alt = 1 to Array.length a.Atn.trans.(s) do
            visit (P.alt_next p s alt)
          done
      | _ -> visit (P.next p s)
    end
  in
  Array.iter
    (fun (ri : Atn.rule_info) ->
      let r = ri.Atn.r_id in
      if P.first p r <> resolve ri.Atn.r_entry then fail "rule %d: first" r;
      if P.entry p r <> ri.Atn.r_entry then fail "rule %d: entry" r;
      if P.is_synpred p r <> ri.Atn.r_is_synpred then fail "rule %d: synpred" r;
      visit (P.first p r))
    a.Atn.rules;
  List.sort_uniq compare (Array.to_list p.P.ops)

(* A grammar with every kind of edge: semantic, precedence (from the
   left-recursion rewrite) and syntactic predicates, both kinds of action,
   a wildcard, a parameterized call and every block shape. *)
let every_edge =
  "grammar Every; options { backtrack=true; }\n\
   s : {ok}? e ';' {act} | (A B)=> A B . {{always}} | (C | D)+ (A)? (B)* ;\n\
   e : e '*' e | e '+' e | INT ;"

let all_ops =
  P.[ Decide; Match; Call; Sem; Prec; Syn; Act; Stop; Dead ]

let grammars () =
  List.map
    (fun (spec : Bench_grammars.Workload.spec) ->
      let cw, cached = Test_cache.fresh_and_cached spec in
      (spec.Bench_grammars.Workload.name, cw.Bench_grammars.Workload.c,
       Some cached))
    Bench_grammars.Specs.all
  @ List.map
      (fun file ->
        let src = example_grammar file in
        let cached =
          Test_cache.with_dir (fun dir ->
              ignore (Test_cache.compile_cached ~dir src);
              fst (Test_cache.compile_cached ~dir src))
        in
        (file, compile src, Some cached))
      [ "expr.g"; "json.g" ]
  @ [ ("every-edge", compile every_edge, None) ]

let tests =
  [
    test "the program is the ATN: bench, example and every-edge grammars"
      (fun () ->
        let used =
          List.concat_map
            (fun (name, c, cached) ->
              (match cached with
              | Some (cached : Llstar.Compiled.t) ->
                  check bool (name ^ ": loaded from the cache") true
                    (Llstar.Compiled.from_cache cached);
                  check bool
                    (name ^ ": cache-loaded program equals the fresh one")
                    true
                    (cached.Llstar.Compiled.program = c.Llstar.Compiled.program)
              | None -> ());
              check_program name c)
            (grammars ())
        in
        List.iter
          (fun op ->
            check bool (op_name op ^ " slot covered") true (List.mem op used))
          all_ops);
    qtest ~count:150 "random grammars: the program is the ATN"
      Test_props.arb_grammar (fun g ->
        match Test_props.compile_rand g with
        | None -> QCheck.assume_fail ()
        | Some c ->
            ignore (check_program "random" c);
            true);
  ]

let suite = [ ("interp-program", tests) ]
