(* FIRST / FOLLOW / FIRST_k computation over the BNF skeleton.

   The fixpoints run over interned-id bitsets: every terminal and
   nonterminal of the BNF is interned into a dense integer space at
   [compute] time, productions are compiled to flat int arrays, and the
   FIRST/FOLLOW sets are [Bitset.t] vectors indexed by nonterminal id.
   Membership, union and the change-detection the fixpoints iterate on are
   allocation-free byte operations instead of [Set.Make(String)] tree
   merges.  test/test_bitset.ml checks every set against its definition.

   The string-keyed API ([first_of], [follow_of], [first_seq], [first_k])
   is retained as a thin compatibility view for validation, pretty-printing
   and tests; hot paths (LL(1)/LL(k) table construction, the interpreter's
   panic-mode sync sets) use the [_ids] API directly.

   FIRST_k works with sets of terminal-id sequences of length <= k,
   combined with the truncating concatenation x (+)_k y (Parr's thesis
   notation); it is the substrate for the fixed-k LL(k) baseline and the
   LPG-style exponential-blow-up demonstration (paper section 2). *)

module SS = Set.Make (String)

module SeqSet = Set.Make (struct
  type t = string list

  let compare = compare
end)

module IdSeqSet = Set.Make (struct
  type t = int list

  let compare = compare
end)

let eof_name = "EOF"
let eof = 0

(* Symbol codes in compiled productions: a terminal id [t] is coded as
   itself (>= 0), a nonterminal id [n] as [lnot n] (< 0).  [unknown_sym]
   codes a query-time nonterminal the grammar does not define (its FIRST_k
   contribution is the empty set, matching the reference semantics). *)
let code_of_term t = t
let code_of_nonterm n = lnot n
let is_term_code c = c >= 0
let nonterm_of_code c = lnot c
let unknown_sym = min_int

type t = {
  bnf : Bnf.t;
  term_ids : (string, int) Hashtbl.t;
  term_names : string array;
  nt_ids : (string, int) Hashtbl.t;
  nt_names : string array;
  nullable : bool array; (* per nonterm id *)
  first : Bitset.t array; (* per nonterm id, universe = num_terms *)
  follow : Bitset.t array;
  prod_lhs : int array; (* aligned with bnf.prods order *)
  prod_rhs : int array array; (* symbol codes *)
  (* FIRST_k fixpoint tables, memoized per (k, max_set_size): LL(k)
     analysis queries every production of a rule at the same k, and the
     table depends only on the grammar, not on the queried sequence *)
  firstk_cache : (int * int, IdSeqSet.t array) Hashtbl.t;
}

let num_terms t = Array.length t.term_names
let num_nonterms t = Array.length t.nt_names
let term_id t name = Hashtbl.find_opt t.term_ids name

let term_name t id =
  if id >= 0 && id < Array.length t.term_names then t.term_names.(id)
  else Printf.sprintf "<term:%d>" id

let nonterm_id t name = Hashtbl.find_opt t.nt_ids name

let nonterm_name t id =
  if id >= 0 && id < Array.length t.nt_names then t.nt_names.(id)
  else Printf.sprintf "<nonterm:%d>" id

let compute (bnf : Bnf.t) : t =
  (* Intern both universes: EOF is terminal 0; nonterminals cover every
     name appearing on either side of a production, so rhs references to
     undefined rules still get (empty, non-nullable) entries like the
     reference implementation gave them. *)
  let term_ids = Hashtbl.create 64 in
  let term_rev = ref [ eof_name ] in
  let term_count = ref 1 in
  Hashtbl.add term_ids eof_name eof;
  let intern_term name =
    match Hashtbl.find_opt term_ids name with
    | Some id -> id
    | None ->
        let id = !term_count in
        Hashtbl.add term_ids name id;
        term_rev := name :: !term_rev;
        incr term_count;
        id
  in
  let nt_ids = Hashtbl.create 64 in
  let nt_rev = ref [] in
  let nt_count = ref 0 in
  let intern_nt name =
    match Hashtbl.find_opt nt_ids name with
    | Some id -> id
    | None ->
        let id = !nt_count in
        Hashtbl.add nt_ids name id;
        nt_rev := name :: !nt_rev;
        incr nt_count;
        id
  in
  List.iter (fun n -> ignore (intern_nt n)) bnf.Bnf.nonterms;
  List.iter (fun a -> ignore (intern_term a)) bnf.Bnf.terms;
  let prods = Array.of_list bnf.Bnf.prods in
  let prod_lhs = Array.map (fun (p : Bnf.prod) -> intern_nt p.lhs) prods in
  let prod_rhs =
    Array.map
      (fun (p : Bnf.prod) ->
        Array.of_list
          (List.map
             (function
               | Bnf.T a -> code_of_term (intern_term a)
               | Bnf.N n -> code_of_nonterm (intern_nt n))
             p.rhs))
      prods
  in
  let nterms = !term_count in
  let nnts = !nt_count in
  let term_names = Array.of_list (List.rev !term_rev) in
  let nt_names = Array.of_list (List.rev !nt_rev) in
  let nullable = Array.make nnts false in
  let first = Array.init nnts (fun _ -> Bitset.create nterms) in
  let follow = Array.init nnts (fun _ -> Bitset.create nterms) in
  let nprods = Array.length prods in
  (* nullable fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to nprods - 1 do
      let lhs = prod_lhs.(i) in
      if not nullable.(lhs) then begin
        let rhs = prod_rhs.(i) in
        let all_nullable =
          let rec go j =
            j >= Array.length rhs
            || (let s = rhs.(j) in
                (not (is_term_code s)) && nullable.(nonterm_of_code s) && go (j + 1))
          in
          go 0
        in
        if all_nullable then begin
          nullable.(lhs) <- true;
          changed := true
        end
      end
    done
  done;
  (* FIRST fixpoint: accumulate straight into the lhs set ([union_into]
     reports changes, so no fresh sets or equality scans per pass) *)
  changed := true;
  while !changed do
    changed := false;
    for i = 0 to nprods - 1 do
      let fs = first.(prod_lhs.(i)) in
      let rhs = prod_rhs.(i) in
      let rec scan j =
        if j < Array.length rhs then
          let s = rhs.(j) in
          if is_term_code s then begin
            if not (Bitset.mem fs s) then begin
              Bitset.add fs s;
              changed := true
            end
          end
          else begin
            let n = nonterm_of_code s in
            if Bitset.union_into ~into:fs first.(n) then changed := true;
            if nullable.(n) then scan (j + 1)
          end
      in
      scan 0
    done
  done;
  (* FOLLOW fixpoint; EOF follows the start symbol. *)
  (match Hashtbl.find_opt nt_ids bnf.Bnf.start with
  | Some s -> Bitset.add follow.(s) eof
  | None -> ());
  changed := true;
  while !changed do
    changed := false;
    for i = 0 to nprods - 1 do
      let lhs = prod_lhs.(i) in
      let rhs = prod_rhs.(i) in
      let len = Array.length rhs in
      for j = 0 to len - 1 do
        let s = rhs.(j) in
        if not (is_term_code s) then begin
          let n = nonterm_of_code s in
          let fl = follow.(n) in
          let rec rest k =
            if k >= len then begin
              if Bitset.union_into ~into:fl follow.(lhs) then changed := true
            end
            else
              let s' = rhs.(k) in
              if is_term_code s' then begin
                if not (Bitset.mem fl s') then begin
                  Bitset.add fl s';
                  changed := true
                end
              end
              else begin
                let n' = nonterm_of_code s' in
                if Bitset.union_into ~into:fl first.(n') then changed := true;
                if nullable.(n') then rest (k + 1)
              end
          in
          rest (j + 1)
        end
      done
    done
  done;
  {
    bnf;
    term_ids;
    term_names;
    nt_ids;
    nt_names;
    nullable;
    first;
    follow;
    prod_lhs;
    prod_rhs;
    firstk_cache = Hashtbl.create 4;
  }

(* ------------------------------------------------------------------ *)
(* Id-based hot-path API *)

let nullable_id t n =
  n >= 0 && n < Array.length t.nullable && t.nullable.(n)

let empty_terms t = Bitset.create (num_terms t)

let first_ids t n =
  if n >= 0 && n < Array.length t.first then t.first.(n) else empty_terms t

let follow_ids t n =
  if n >= 0 && n < Array.length t.follow then t.follow.(n) else empty_terms t

let num_prods t = Array.length t.prod_lhs
let prod_lhs_id t i = t.prod_lhs.(i)
let prod_rhs_ids t i = t.prod_rhs.(i)

(* FIRST of a coded symbol-sequence suffix, plus whether it is nullable;
   the result set is freshly allocated and owned by the caller. *)
let first_seq_ids t (syms : int array) ~(pos : int) : Bitset.t * bool =
  let acc = empty_terms t in
  let len = Array.length syms in
  let rec scan j =
    if j >= len then true
    else
      let s = syms.(j) in
      if is_term_code s then begin
        Bitset.add acc s;
        false
      end
      else begin
        let n = nonterm_of_code s in
        ignore (Bitset.union_into ~into:acc (first_ids t n));
        if nullable_id t n then scan (j + 1) else false
      end
  in
  let nullable = scan pos in
  (acc, nullable)

(* ------------------------------------------------------------------ *)
(* String-keyed compatibility views *)

let to_string_set t (s : Bitset.t) : SS.t =
  Bitset.fold (fun id acc -> SS.add t.term_names.(id) acc) s SS.empty

let is_nullable t name =
  match nonterm_id t name with Some n -> t.nullable.(n) | None -> false

let first_of t name =
  match nonterm_id t name with
  | Some n -> to_string_set t t.first.(n)
  | None -> SS.empty

let follow_of t name =
  match nonterm_id t name with
  | Some n -> to_string_set t t.follow.(n)
  | None -> SS.empty

(* FIRST of a symbol sequence (string view). *)
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
(* FIRST_k: sets of terminal-id sequences of length <= k.

   A sequence shorter than k in the result means derivation ended (reached
   end of all contexts); sequences are truncated at k.  [max_set_size]
   guards the exponential blow-up: when any intermediate set exceeds it,
   [Blowup] is raised carrying the size reached, which the LPG-anecdote
   bench catches and reports. *)

exception Blowup of int

(* Truncating concatenation of id-sequence sets. *)
let concat_k_ids k (a : IdSeqSet.t) (b : IdSeqSet.t) : IdSeqSet.t =
  IdSeqSet.fold
    (fun x acc ->
      if List.length x >= k then IdSeqSet.add x acc
      else
        IdSeqSet.fold
          (fun y acc ->
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | z :: rest -> z :: take (n - 1) rest
            in
            IdSeqSet.add (x @ take (k - List.length x) y) acc)
          b acc)
    a IdSeqSet.empty

(* Truncating concatenation of string-sequence sets (compatibility). *)
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

(* The per-nonterminal FIRST_k fixpoint table, memoized per
   (k, max_set_size): it depends only on the grammar, so LL(k) analysis
   probing every production of a rule at the same k pays for it once.  A
   blow-up is never cached, so every query over the same parameters raises
   identically. *)
let firstk_table t ~max_set_size k : IdSeqSet.t array =
  match Hashtbl.find_opt t.firstk_cache (k, max_set_size) with
  | Some tbl -> tbl
  | None ->
      let nnts = num_nonterms t in
      let tbl = Array.make nnts IdSeqSet.empty in
      let seq_first (syms : int array) ~pos =
        let len = Array.length syms in
        let rec go acc j =
          if j >= len then acc
          else
            let s =
              let c = syms.(j) in
              if c = unknown_sym then IdSeqSet.empty
              else if is_term_code c then IdSeqSet.singleton [ c ]
              else tbl.(nonterm_of_code c)
            in
            let acc = concat_k_ids k acc s in
            if acc = IdSeqSet.empty then acc
            else if IdSeqSet.for_all (fun x -> List.length x >= k) acc then acc
            else go acc (j + 1)
        in
        go (IdSeqSet.singleton []) pos
      in
      let nprods = num_prods t in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to nprods - 1 do
          let lhs = t.prod_lhs.(i) in
          let cur = tbl.(lhs) in
          let nw = IdSeqSet.union cur (seq_first t.prod_rhs.(i) ~pos:0) in
          if IdSeqSet.cardinal nw > max_set_size then
            raise (Blowup (IdSeqSet.cardinal nw));
          if not (IdSeqSet.equal nw cur) then begin
            tbl.(lhs) <- nw;
            changed := true
          end
        done
      done;
      Hashtbl.replace t.firstk_cache (k, max_set_size) tbl;
      tbl

(* FIRST_k over coded symbols; sequences are terminal ids. *)
let first_k_ids ?(max_set_size = 200_000) t k (syms : int array) : IdSeqSet.t =
  let tbl = firstk_table t ~max_set_size k in
  let len = Array.length syms in
  let rec go acc j =
    if j >= len then acc
    else
      let s =
        let c = syms.(j) in
        if c = unknown_sym then IdSeqSet.empty
        else if is_term_code c then IdSeqSet.singleton [ c ]
        else tbl.(nonterm_of_code c)
      in
      let acc = concat_k_ids k acc s in
      if acc = IdSeqSet.empty then acc
      else if IdSeqSet.for_all (fun x -> List.length x >= k) acc then acc
      else go acc (j + 1)
  in
  go (IdSeqSet.singleton []) 0

(* String view of FIRST_k.  Query symbols the grammar never mentions are
   given transient ids so unknown terminals still appear in result
   sequences by name, and unknown nonterminals contribute the empty set --
   both matching the reference implementation. *)
let first_k ?max_set_size t k (syms : Bnf.symbol list) : SeqSet.t =
  let extra_ids : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let extra_names : (int, string) Hashtbl.t = Hashtbl.create 4 in
  let next_extra = ref (num_terms t) in
  let code_of = function
    | Bnf.T a -> (
        match term_id t a with
        | Some id -> code_of_term id
        | None -> (
            match Hashtbl.find_opt extra_ids a with
            | Some id -> code_of_term id
            | None ->
                let id = !next_extra in
                incr next_extra;
                Hashtbl.add extra_ids a id;
                Hashtbl.add extra_names id a;
                code_of_term id))
    | Bnf.N n -> (
        match nonterm_id t n with
        | Some id -> code_of_nonterm id
        | None -> unknown_sym)
  in
  let codes = Array.of_list (List.map code_of syms) in
  let ids = first_k_ids ?max_set_size t k codes in
  let name id =
    if id < num_terms t then t.term_names.(id)
    else match Hashtbl.find_opt extra_names id with Some n -> n | None -> term_name t id
  in
  IdSeqSet.fold
    (fun seq acc -> SeqSet.add (List.map name seq) acc)
    ids SeqSet.empty
