(* Cross-parser differential oracle.

   Independent recognizers exist for every benchmark grammar: the
   LL-star interpreter over the compiled ATN, the packrat/PEG interpreter
   over the surface grammar, the Earley chart parser over the BNF skeleton,
   (when the skeleton is conflict-free) the table-driven LL(1) parser,
   and the generated parser from lib/gen, which must agree with
   the interpreter not just on accept/reject but on error position and
   consumed-token count.
   Agreement between them is the correctness claim of the paper's sections
   6-7, so any *unexplained* disagreement on an input is a bug in one of
   them.  The oracle runs an input through every applicable backend and
   classifies the result.

   Expected (normalized) disagreements -- see DESIGN.md:

   - ordered choice: a PEG-mode or order-resolved grammar deliberately
     accepts a subset of its context-free language, so Earley accepting
     while LL-star/packrat reject is expected; the reverse direction (LL-star
     accepts, Earley rejects) is always a soundness bug;
   - predicates: semantic predicates are erased from the BNF skeleton and
     the packrat baseline cannot evaluate token-context predicates, so
     predicated grammars only get the Earley soundness check and the
     crash/termination guards;
   - fuel: the packrat and Earley baselines run under a step/item budget
     and the LL-star parser under a wall-clock cap, so nontermination and
     super-linear blow-ups surface as flagged guard trips rather than a
     hung fuzzer. *)

module Workload = Bench_grammars.Workload

type verdict = Accept | Reject | Crash of string | Gave_up

let pp_verdict ppf = function
  | Accept -> Fmt.string ppf "accept"
  | Reject -> Fmt.string ppf "reject"
  | Crash m -> Fmt.pf ppf "crash(%s)" m
  | Gave_up -> Fmt.string ppf "gave-up"

type divergence = {
  d_grammar : string;
  d_kind : string; (* machine-readable tag, e.g. "unsound", "peg-mismatch" *)
  d_detail : string;
  d_tokens : string list; (* the offending input, as terminal spellings *)
}

let pp_divergence ppf d =
  Fmt.pf ppf "[%s] %s: %s@.  input: %s" d.d_grammar d.d_kind d.d_detail
    (String.concat " " d.d_tokens)

type outcome = {
  o_llstar : verdict;
  o_packrat : verdict option; (* None: backend not applicable *)
  o_earley : verdict;
  o_ll1 : verdict option;
  o_recovery : verdict option; (* recovery-mode probe, rejected inputs only *)
  o_codegen : verdict option;
      (* generated parser (lib/gen), when one exists for the
         grammar; compared outcome-for-outcome against the interpreter *)
  o_stream : verdict;
      (* streaming LL-star leg ([stream_window]-token window), compared
         outcome-for-outcome against the materialized run *)
  o_explained : bool; (* an expected disagreement was normalized away *)
}

type t = {
  name : string;
  cw : Workload.compiled;
  env : Runtime.Interp.env;
  peg : bool; (* surface grammar is PEG-mode (backtrack=true) *)
  predicated : bool; (* grammar carries token-context semantic predicates *)
  order_resolved : bool; (* analysis resolved ambiguity by order somewhere *)
  packrat : Baselines.Packrat.t option;
  earley : Baselines.Earley.t;
  ll1 : Baselines.Ll1.t option;
  vocab : string array;
  fuel : int; (* packrat step / Earley item budget *)
  time_cap : float; (* per-backend wall-clock guard, seconds *)
  profile : Runtime.Profile.t option;
    (* when set, the LL-star backend's decision profile accumulates across
       every checked input (the fuzz CLI's --profile/--json) *)
}

(* Every input also runs through the streaming LL-star recognizer, pulled
   in chunks of this many tokens into a window of this size: small enough
   that the window slides and evicts on every input longer than it. *)
let stream_window = 16

(* Build an oracle around an already compiled workload; the fuzz driver
   compiles once per spec and shares [cw] across its shard oracles (the
   baseline backends stay shard-private -- they hold mutable parser
   state -- but the LL-star compilation is read-only, so safely
   shareable). *)
let create_with ?(fuel = 3_000_000) ?(time_cap = 2.0) ?profile
    (cw : Workload.compiled) : t =
  let spec = cw.Workload.spec in
  let surface = cw.Workload.c.Llstar.Compiled.surface in
  let peg = surface.Grammar.Ast.options.Grammar.Ast.backtrack in
  let predicated = spec.Workload.sem_preds <> [] in
  let order_resolved =
    Array.exists
      (fun (r : Llstar.Analysis.result) ->
        r.Llstar.Analysis.klass = Llstar.Analysis.Backtrack
        || r.Llstar.Analysis.warnings <> [])
      cw.Workload.c.Llstar.Compiled.results
  in
  let packrat =
    if predicated then None
    else Some (Baselines.Packrat.create ~memoize:true surface)
  in
  let ll1_t = Baselines.Ll1.of_grammar surface in
  let ll1 =
    if Baselines.Ll1.is_ll1 ll1_t && (not predicated) && not peg then
      Some ll1_t
    else None
  in
  {
    name = spec.Workload.name;
    cw;
    env = Workload.env_of_spec spec;
    peg;
    predicated;
    order_resolved;
    packrat;
    earley = Baselines.Earley.of_grammar surface;
    ll1;
    vocab = Array.of_list (Grammar.Sentence_gen.vocabulary cw.Workload.gen);
    fuel;
    time_cap;
    profile;
  }

let create ?fuel ?time_cap ?profile (spec : Workload.spec) :
    (t, Llstar.Compiled.error) result =
  match Workload.compile_result spec with
  | Error e -> Error e
  | Ok cw -> Ok (create_with ?fuel ?time_cap ?profile cw)

(* Render terminal spellings to a token array against the compiled
   vocabulary, the way corpus construction does: literals carry their raw
   text, token classes (ID, INT, ...) are rendered via the spec's
   [sample_lexeme] so token-context semantic predicates see realistic
   lexemes. *)
let tokens_of_names (t : t) (names : string list) : Runtime.Token.t array =
  let sym = Llstar.Compiled.sym t.cw.Workload.c in
  let occ = ref 0 in
  Array.of_list
    (List.mapi
       (fun i name ->
         let text =
           if Grammar.Sym.is_literal_name name then Grammar.Sym.unquote name
           else begin
             incr occ;
             t.cw.Workload.spec.Workload.sample_lexeme !occ name
           end
         in
         match Grammar.Sym.find_term sym name with
         | Some id -> Runtime.Token.make ~index:i id text
         | None ->
             (* a spelling outside the vocabulary: every backend must
                reject it, so give it an id no DFA edge can match *)
             Runtime.Token.make ~index:i 999_999 text)
       names)

(* Run [f], converting exceptions to [Crash] and noting a wall-clock cap
   trip. *)
let guarded (t : t) (slow : (string * float) list ref) (backend : string)
    (f : unit -> verdict) : verdict =
  let t0 = Unix.gettimeofday () in
  let v =
    try f () with
    | Stack_overflow -> Crash "stack overflow"
    | e -> Crash (Printexc.to_string e)
  in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > t.time_cap then slow := (backend, dt) :: !slow;
  v

let of_bool b = if b then Accept else Reject

(* Run one input (terminal spellings, no EOF) through every applicable
   backend and report the outcome plus any unexplained divergences. *)
let check (t : t) (names : string list) : outcome * divergence list =
  let toks = tokens_of_names t names in
  let name_arr = Array.of_list names in
  let slow = ref [] in
  let divs = ref [] in
  let diverge kind detail =
    divs :=
      { d_grammar = t.name; d_kind = kind; d_detail = detail; d_tokens = names }
      :: !divs
  in
  let llstar =
    guarded t slow "llstar" (fun () ->
        match
          Runtime.Interp.recognize ~env:t.env ?profile:t.profile
            t.cw.Workload.c toks
        with
        | Ok () -> Accept
        | Error _ -> Reject)
  in
  let earley =
    guarded t slow "earley" (fun () ->
        try of_bool (Baselines.Earley.recognize ~budget:t.fuel t.earley name_arr)
        with Baselines.Earley.Give_up -> Gave_up)
  in
  let packrat =
    Option.map
      (fun p ->
        guarded t slow "packrat" (fun () ->
            try
              of_bool
                (Baselines.Packrat.recognize ~budget:t.fuel p
                   (Llstar.Compiled.sym t.cw.Workload.c)
                   toks ())
            with Baselines.Packrat.Give_up -> Gave_up))
      t.packrat
  in
  let ll1 =
    Option.map
      (fun l -> guarded t slow "ll1" (fun () -> of_bool (Baselines.Ll1.recognize l name_arr)))
      t.ll1
  in
  (* Generated-parser differential: the emitted codegen output must
     reproduce the interpreter's accept/reject, error position and
     consumed-token count exactly -- not just the verdict.  A mismatch is
     always a codegen bug (or an emitter/interpreter drift), never an
     expected disagreement. *)
  let codegen =
    Option.map
      (fun (module P : Runtime.Generated.PARSER) ->
        guarded t slow "codegen" (fun () ->
            let got = P.outcome ~env:t.env toks in
            let want =
              Runtime.Generated.interp_outcome ~env:t.env t.cw.Workload.c toks
            in
            if not (Runtime.Generated.agree got want) then
              diverge "codegen-mismatch"
                (Printf.sprintf "generated=%s interp=%s"
                   (Runtime.Generated.describe got)
                   (Runtime.Generated.describe want));
            of_bool got.Runtime.Generated.ok))
      (Gen.Registry.find t.name)
  in
  (* Streaming differential: the same tokens re-parsed through a bounded
     window must reproduce the materialized run exactly -- verdict, error
     position and consumed-token count.  Any mismatch is a retention bug
     in the window/memo machinery, never an expected disagreement. *)
  let stream =
    guarded t slow "llstar-stream" (fun () ->
        let pos = ref 0 in
        let pull () =
          let n = Array.length toks in
          if !pos >= n then [||]
          else begin
            let len = min stream_window (n - !pos) in
            let a = Array.sub toks !pos len in
            pos := !pos + len;
            a
          end
        in
        let ts = Runtime.Token_stream.of_pull ~window:stream_window pull in
        let got =
          Runtime.Generated.interp_outcome_stream ~env:t.env t.cw.Workload.c
            ts
        in
        let want =
          Runtime.Generated.interp_outcome ~env:t.env t.cw.Workload.c toks
        in
        if not (Runtime.Generated.agree got want) then
          diverge "stream-mismatch"
            (Printf.sprintf "streamed=%s materialized=%s (window %d)"
               (Runtime.Generated.describe got)
               (Runtime.Generated.describe want)
               stream_window);
        of_bool got.Runtime.Generated.ok)
  in
  (* Recovery probe on rejected inputs: panic-mode resynchronization must
     neither crash nor hang, whatever it is fed. *)
  let recovery =
    if llstar = Reject then
      Some
        (guarded t slow "llstar-recovery" (fun () ->
             match
               Runtime.Interp.parse ~env:t.env ~recover:true t.cw.Workload.c
                 toks
             with
             | Ok _ -> Accept
             | Error _ -> Reject))
    else None
  in
  (* crashes: never expected, from any backend *)
  let crash backend = function
    | Some (Crash m) -> diverge "crash" (Printf.sprintf "%s: %s" backend m)
    | _ -> ()
  in
  crash "llstar" (Some llstar);
  crash "earley" (Some earley);
  crash "packrat" packrat;
  crash "ll1" ll1;
  crash "codegen" codegen;
  crash "llstar-stream" (Some stream);
  crash "llstar-recovery" recovery;
  (* fuel guard trips: flagged so blow-ups are visible in CI *)
  let fuel backend = function
    | Some Gave_up ->
        diverge "fuel" (Printf.sprintf "%s exhausted %d-step budget" backend t.fuel)
    | _ -> ()
  in
  fuel "earley" (Some earley);
  fuel "packrat" packrat;
  (* wall-clock guard: recovery-mode (and any other) nontermination *)
  List.iter
    (fun (backend, dt) ->
      diverge "slow" (Printf.sprintf "%s took %.2fs (cap %.2fs)" backend dt t.time_cap))
    !slow;
  (* acceptance comparisons *)
  let explained = ref false in
  (match (llstar, earley) with
  | Accept, Reject ->
      diverge "unsound" "LL-star accepted an input outside the CFG language"
  | Reject, Accept ->
      if t.peg || t.predicated || t.order_resolved then explained := true
      else
        diverge "incomplete"
          "LL-star rejected a CFG sentence of a non-PEG, non-predicated, \
           conflict-free grammar"
  | _ -> ());
  (match packrat with
  | Some pk -> (
      match (llstar, pk) with
      | Reject, Accept ->
          (* the one direction PEG-mode LL-star must dominate: everything
             the packrat interpreter accepts, the compiled parser accepts *)
          diverge "peg-mismatch"
            (Fmt.str "LL-star=%a packrat=%a on a PEG-comparable grammar"
               pp_verdict llstar pp_verdict pk)
      | Accept, Reject ->
          (* DFA lookahead resolved a decision PEG prefix-commits on:
             LL-star accepting strictly more is the paper's pitch *)
          explained := true
      | _ -> ())
  | None -> ());
  (match ll1 with
  | Some l1 -> (
      match (llstar, l1) with
      | Accept, Reject | Reject, Accept ->
          diverge "ll1-mismatch"
            (Fmt.str "LL-star=%a LL(1)=%a on an LL(1) grammar" pp_verdict llstar
               pp_verdict l1)
      | _ -> ())
  | None -> ());
  ( {
      o_llstar = llstar;
      o_packrat = packrat;
      o_earley = earley;
      o_ll1 = ll1;
      o_recovery = recovery;
      o_codegen = codegen;
      o_stream = stream;
      o_explained = !explained;
    },
    List.rev !divs )

let failing (t : t) (names : string list) : bool = snd (check t names) <> []

(* Greedy token-delta shrinker (ddmin-style): repeatedly remove the largest
   contiguous chunk that keeps the input failing, halving the chunk size
   when no removal applies.  Deterministic: positions are tried left to
   right. *)
let shrink ~(failing : string list -> bool) (names : string list) :
    string list =
  let rec go names chunk =
    if chunk < 1 then names
    else begin
      let n = List.length names in
      let removed = ref None in
      let i = ref 0 in
      while !removed = None && !i + chunk <= n do
        let cand = List.filteri (fun k _ -> k < !i || k >= !i + chunk) names in
        if failing cand then removed := Some cand;
        incr i
      done;
      match !removed with
      | Some cand -> go cand chunk
      | None -> go names (chunk / 2)
    end
  in
  match names with
  | [] -> []
  | _ -> go names (max 1 (List.length names / 2))
