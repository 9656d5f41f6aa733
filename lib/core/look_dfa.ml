(* Lookahead DFA (paper Definition 4): a DFA over the token alphabet,
   augmented with predicate transitions into accept states, whose accept
   states yield predicted production numbers.

   Frozen representation produced by the analysis; interpretation happens in
   the runtime's prediction engine.  [preds] transitions are ordered; an
   entry with [None] predicate is the gated default ("else") alternative,
   tested after all real predicates fail. *)

type pred_edge = {
  guard : int list;
    (* lookahead gate: terminals the alternative can actually start with at
       this state (the section-5.5 hoisting combines hoisted predicates with
       lookahead membership tests); [] means no gate *)
  pred : Atn.pred option; (* [None] on the gated default ("else") edge *)
  alt : int;
}

type t = {
  decision : int;
  start : int;
  nstates : int;
  edges : (int * int) array array;
    (* per state: (terminal, target), sorted by terminal for binary search *)
  accept : int array; (* per state: predicted alt, or 0 *)
  preds : pred_edge array array; (* per state: ordered predicate edges *)
  overflowed : bool array; (* per state: closure hit the recursion bound *)
  cyclic : bool;
  max_k : int option; (* longest terminal path to an accept; None if cyclic *)
  uses_synpred : bool; (* some predicate edge launches a speculative parse *)
  fallback : bool; (* produced by the LL(1) fallback, not full analysis *)
  start_row : int array;
    (* [start]'s terminal edges as a dense row over the token ids: the
       target state, or -1 (see [with_start_row]) *)
}

(* Rows are sorted by terminal id (the analysis freeze sorts them and the
   minimizer's remap keeps their order), so states with many outgoing
   terminals bisect instead of paying a full scan per lookahead token.
   Most rows stay tiny, and there a linear scan beats bisection, so small
   rows keep the scan.  The wildcard edge matches any terminal except EOF
   and, having id 1 (only EOF's 0 sorts below it), can only live in one of
   the first two slots -- the fallback checks those directly instead of
   re-walking the row.  [target] returns the target state, or -1 when
   [term] has no edge: it runs once per lookahead token of every
   prediction, so it allocates nothing. *)
let linear_cutoff = 8

let target (t : t) (state : int) (term : int) : int =
  let row = t.edges.(state) in
  let n = Array.length row in
  let found = ref (-1) in
  if n <= linear_cutoff then begin
    let i = ref 0 in
    while !found < 0 && !i < n do
      let sym, tgt = row.(!i) in
      if sym = term then found := tgt;
      incr i
    done
  end
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let sym, tgt = row.(mid) in
      if sym = term then found := tgt
      else if sym < term then lo := mid + 1
      else hi := mid - 1
    done
  end;
  if !found >= 0 || term = Grammar.Sym.eof then !found
  else if n > 0 && fst row.(0) = Grammar.Sym.wildcard then snd row.(0)
  else if n > 1 && fst row.(1) = Grammar.Sym.wildcard then snd row.(1)
  else -1

(* LL(finite) step one (Belcak): most predictions stop after one token,
   so the first edge of every walk -- from [start] -- is a dense-row read
   instead of a row scan.  Built once when the DFA is frozen and carried
   in the compilation cache, so a parse never builds one.  Its entries are
   [target]'s, wildcard edge included; the walk takes [target] for a token
   id beyond the row. *)
let with_start_row (t : t) ~(num_terms : int) : t =
  { t with start_row = Array.init num_terms (target t t.start) }

let accept_of t state = if t.accept.(state) = 0 then None else Some t.accept.(state)
let pred_edges_of t state = t.preds.(state)

let num_edges t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.edges

(* Longest terminal-edge path from [start] to any accepting or predicated
   state; [None] when the reachable graph is cyclic. *)
let compute_max_k (t : t) : int option =
  let visiting = Array.make t.nstates false in
  let memo = Array.make t.nstates (-1) in
  let exception Cyclic in
  let rec go s =
    if visiting.(s) then raise Cyclic;
    if memo.(s) >= 0 then memo.(s)
    else begin
      visiting.(s) <- true;
      let best = ref 0 in
      Array.iter
        (fun (_, tgt) -> best := max !best (1 + go tgt))
        t.edges.(s);
      visiting.(s) <- false;
      memo.(s) <- !best;
      !best
    end
  in
  match go t.start with
  | k -> Some (max 1 k)
  | exception Cyclic -> None

let pp_pred_edge sym ppf (e : pred_edge) =
  (match e.guard with
  | [] -> ()
  | g ->
      Fmt.pf ppf "LA in {%a} & "
        Fmt.(
          list ~sep:(any ", ") (fun ppf t ->
              Fmt.string ppf (Grammar.Sym.term_name sym t)))
        g);
  match e.pred with
  | None -> Fmt.string ppf "else"
  | Some p -> Atn.pp_pred sym ppf p

let pp ?(sym : Grammar.Sym.t option) ppf (t : t) =
  let term_name id =
    match sym with
    | Some s -> Grammar.Sym.term_name s id
    | None -> string_of_int id
  in
  Fmt.pf ppf "DFA d%d: %d states%s%s@." t.decision t.nstates
    (if t.cyclic then " (cyclic)" else "")
    (if t.fallback then " (LL(1) fallback)" else "");
  for s = 0 to t.nstates - 1 do
    let acc =
      if t.accept.(s) <> 0 then Printf.sprintf " => %d" t.accept.(s) else ""
    in
    Fmt.pf ppf "  s%d%s:@." s acc;
    Array.iter
      (fun (sym_id, tgt) ->
        Fmt.pf ppf "    --%s--> s%d@." (term_name sym_id) tgt)
      t.edges.(s);
    Array.iter
      (fun (e : pred_edge) ->
        match sym with
        | Some sy -> Fmt.pf ppf "    --%a--> :%d@." (pp_pred_edge sy) e e.alt
        | None -> Fmt.pf ppf "    --pred--> :%d@." e.alt)
      t.preds.(s)
  done

let to_string ?sym t = Fmt.str "%a" (pp ?sym) t
