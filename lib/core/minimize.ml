(* Lookahead-DFA minimization (Moore partition refinement).

   The subset construction deduplicates by configuration-set identity, which
   can leave behaviourally equivalent states apart (e.g. the start state of
   a cyclic scan and its loop state).  Minimization merges states with equal
   acceptance, equal predicate edges and equivalent successors.  It is an
   optional pass ([Analysis.options.minimize]): prediction correctness never
   depends on it, it only shrinks tables -- the practical-space concern the
   paper inherits from Charles' minimal acyclic LALR(k) DFAs (section 7). *)

(* Signature used for the initial partition: everything except the terminal
   transitions. *)
let state_signature (dfa : Look_dfa.t) (s : int) =
  (dfa.accept.(s), dfa.preds.(s), dfa.overflowed.(s))

let minimize (dfa : Look_dfa.t) : Look_dfa.t =
  let n = dfa.nstates in
  if n <= 1 then dfa
  else begin
    (* block.(s) = current partition block of state s *)
    let block = Array.make n 0 in
    let sigs = Hashtbl.create 16 in
    let nblocks = ref 0 in
    for s = 0 to n - 1 do
      let key = state_signature dfa s in
      match Hashtbl.find_opt sigs key with
      | Some b -> block.(s) <- b
      | None ->
          Hashtbl.add sigs key !nblocks;
          block.(s) <- !nblocks;
          incr nblocks
    done;
    (* refine until stable: two states stay together iff every terminal
       leads to the same block (missing edges must match too) *)
    let changed = ref true in
    while !changed do
      changed := false;
      let next = Hashtbl.create 16 in
      let nnext = ref 0 in
      let newblock = Array.make n 0 in
      for s = 0 to n - 1 do
        let succ =
          Array.map (fun (t, tgt) -> (t, block.(tgt))) dfa.edges.(s)
        in
        let key = (block.(s), succ) in
        match Hashtbl.find_opt next key with
        | Some b -> newblock.(s) <- b
        | None ->
            Hashtbl.add next key !nnext;
            newblock.(s) <- !nnext;
            incr nnext
      done;
      if !nnext <> !nblocks then begin
        changed := true;
        nblocks := !nnext;
        Array.blit newblock 0 block 0 n
      end
    done;
    if !nblocks = n then dfa
    else begin
      (* keep block numbering but renumber so the start state is 0 *)
      let remap = Array.make !nblocks (-1) in
      let fresh = ref 0 in
      let order = Array.make !nblocks 0 in
      let visit b =
        if remap.(b) < 0 then begin
          remap.(b) <- !fresh;
          order.(!fresh) <- b;
          incr fresh
        end
      in
      visit block.(dfa.start);
      for s = 0 to n - 1 do
        visit block.(s)
      done;
      (* representative original state per block *)
      let rep = Array.make !nblocks (-1) in
      for s = n - 1 downto 0 do
        rep.(remap.(block.(s))) <- s
      done;
      let edges =
        Array.init !nblocks (fun b ->
            Array.map
              (fun (t, tgt) -> (t, remap.(block.(tgt))))
              dfa.edges.(rep.(b)))
      in
      let accept = Array.init !nblocks (fun b -> dfa.accept.(rep.(b))) in
      let preds = Array.init !nblocks (fun b -> dfa.preds.(rep.(b))) in
      let overflowed =
        Array.init !nblocks (fun b -> dfa.overflowed.(rep.(b)))
      in
      ignore order;
      let t =
        {
          dfa with
          Look_dfa.start = 0;
          nstates = !nblocks;
          edges;
          accept;
          preds;
          overflowed;
        }
      in
      let max_k = Look_dfa.compute_max_k t in
      Look_dfa.with_start_row
        { t with Look_dfa.cyclic = max_k = None; max_k }
        ~num_terms:(Array.length dfa.Look_dfa.start_row)
    end
  end
