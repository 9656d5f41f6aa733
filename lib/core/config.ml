(* ATN configurations (paper section 5.1): a tuple (p, i, gamma, pi) of ATN
   state, predicted alternative, ATN call stack and optional predicate
   context collected from the alternative's left edge.

   The stack is a list of follow states, most recent call first.  Stack
   equivalence (Definition 6) treats an empty stack as a wildcard: analysis
   reached the state without static knowledge of the caller, so it stands
   for every possible context.

   The subset construction keys its tables (DFA-state dedup, the move-set
   memo, the closure memo, the closure walk's busy set) on configurations
   and configuration sets, so hashing and comparison here are on its hot
   path.  Stacks are hash-consed per analysis builder ([Stack.table]):
   each node carries a structural hash, an id and its depth, structurally
   equal stacks of one builder are physically equal, and hashing, equality
   and ordering of a stack are all O(1).  [hash] covers every field, so
   configuration sets that agree on their first few members (or stacks
   that differ only in deep frames) do not collide the way the polymorphic
   [Hashtbl.hash] -- which stops after ten meaningful words -- made
   them. *)

type sem_ctx = Atn.pred option

(* Final avalanche (the 64-bit finalizer of MurmurHash3, with constants
   truncated to OCaml's 63-bit ints): hash tables index buckets with the
   low bits, which a plain multiply-add fold leaves poorly mixed. *)
let avalanche h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let combine h x = (h * 0x100000001b3) + x

module Stack = struct
  type t =
    | Empty
    | Push of { top : int; rest : t; id : int; hash : int; depth : int }

  let empty = Empty
  let hash = function Empty -> 0 | Push p -> p.hash
  let id = function Empty -> 0 | Push p -> p.id
  let depth = function Empty -> 0 | Push p -> p.depth

  (* Within one table, equal stacks are the same node, so [==] is
     equality and ids order them. *)
  let compare a b = Int.compare (id a) (id b)

  module Nodes = Hashtbl.Make (struct
    type nonrec t = t

    let equal a b =
      match (a, b) with
      | Push x, Push y -> x.top = y.top && x.rest == y.rest
      | _ -> a == b

    let hash = hash
  end)

  (* A builder's intern table.  Ids count from 1 (0 is the empty stack) in
     interning order, so they are deterministic for a given construction
     but mean nothing across tables. *)
  type table = { nodes : t Nodes.t; mutable next : int }

  let create_table () = { nodes = Nodes.create 64; next = 1 }

  let push tbl top rest =
    let node =
      let hash = avalanche (combine (hash rest) top) in
      Push { top; rest; id = tbl.next; hash; depth = depth rest + 1 }
    in
    match Nodes.find_opt tbl.nodes node with
    | Some shared -> shared
    | None ->
        Nodes.add tbl.nodes node node;
        tbl.next <- tbl.next + 1;
        node

  (* Occurrences of follow state [f] on the stack: the recursion depth of
     the call that pushes [f]. *)
  let rec count f = function
    | Empty -> 0
    | Push p -> (if p.top = f then 1 else 0) + count f p.rest

  (* [short] is a top-first prefix of [long]. *)
  let rec is_prefix short long =
    short == long
    ||
    match (short, long) with
    | Empty, _ -> true
    | Push s, Push l -> s.top = l.top && is_prefix s.rest l.rest
    | Push _, Empty -> false
end

type t = {
  state : int;
  alt : int; (* 1-based alternative number *)
  stack : Stack.t; (* follow states, innermost first *)
  sem : sem_ctx;
  free : bool;
    (* the configuration escaped the decision's own derivation through an
       empty-stack pop (wildcard follow context); predicates found past this
       point belong to other alternatives and are never collected.  The flag
       persists across moves, unlike a value threaded through one closure. *)
  crossed : bool;
    (* the configuration passed through a nested decision state; syntactic
       predicates found past this point gate only that nested alternative
       and are not hoisted *)
}

let make ?sem ?(stack = Stack.empty) state alt =
  { state; alt; stack; sem; free = false; crossed = false }

let compare_pred (a : Atn.pred) (b : Atn.pred) =
  match (a, b) with
  | Sem x, Sem y -> String.compare x y
  | Prec x, Prec y | Syn x, Syn y -> Int.compare x y
  | Sem _, _ -> -1
  | _, Sem _ -> 1
  | Prec _, _ -> -1
  | _, Prec _ -> 1

let compare_sem (a : sem_ctx) (b : sem_ctx) =
  if a == b then 0 else Option.compare compare_pred a b

let hash_sem : sem_ctx -> int = function
  | None -> 0
  | Some (Sem s) -> combine 1 (Hashtbl.hash s)
  | Some (Prec n) -> combine 2 n
  | Some (Syn r) -> combine 3 r

(* Monomorphic ordering: [Int.compare] on the scalar fields, stacks by
   interned id.  The order is total within one builder, which is all
   [canonicalize] needs. *)
let compare (a : t) (b : t) =
  if a == b then 0
  else
    let c = Int.compare a.state b.state in
    if c <> 0 then c
    else
      let c = Int.compare a.alt b.alt in
      if c <> 0 then c
      else
        let c = Stack.compare a.stack b.stack in
        if c <> 0 then c
        else
          let c = compare_sem a.sem b.sem in
          if c <> 0 then c
          else
            let c = Bool.compare a.free b.free in
            if c <> 0 then c else Bool.compare a.crossed b.crossed

let equal (a : t) (b : t) =
  a == b
  || a.state = b.state && a.alt = b.alt && a.stack == b.stack
     && a.free = b.free && a.crossed = b.crossed
     && compare_sem a.sem b.sem = 0

let hash (c : t) =
  let h = combine c.state c.alt in
  let h = combine h (Stack.hash c.stack) in
  let h = combine h (hash_sem c.sem) in
  avalanche (combine h ((Bool.to_int c.free lsl 1) lor Bool.to_int c.crossed))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* A set of configurations whose [add] hashes once and reports whether the
   configuration was new: the closure walk's busy set, which tests and
   inserts on every step.  Buckets are a power of two and double past two
   members per bucket, as [Hashtbl] does. *)
module Busy = struct
  type set = { mutable buckets : t list array; mutable size : int }

  let create n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    { buckets = Array.make (pow2 16) []; size = 0 }

  let length s = s.size

  let rec mem_bucket c = function
    | [] -> false
    | c' :: rest -> equal c c' || mem_bucket c rest

  let resize s =
    let old = s.buckets in
    let mask = (2 * Array.length old) - 1 in
    let buckets = Array.make (mask + 1) [] in
    Array.iter
      (List.iter (fun c ->
           let i = hash c land mask in
           buckets.(i) <- c :: buckets.(i)))
      old;
    s.buckets <- buckets

  (* Insert [c]; false when it was already present. *)
  let add s c =
    let i = hash c land (Array.length s.buckets - 1) in
    let bucket = s.buckets.(i) in
    if mem_bucket c bucket then false
    else begin
      s.buckets.(i) <- c :: bucket;
      s.size <- s.size + 1;
      if s.size > 2 * Array.length s.buckets then resize s;
      true
    end

  (* Empty the set; [clear] keeps the buckets, [reset] shrinks them back to
     [n] (both cost the bucket count). *)
  let clear s =
    if s.size > 0 then begin
      Array.fill s.buckets 0 (Array.length s.buckets) [];
      s.size <- 0
    end

  let reset s n =
    s.buckets <- (create n).buckets;
    s.size <- 0
end

(* Hash of a canonical configuration set: every member contributes. *)
let hash_list (configs : t list) =
  avalanche (List.fold_left (fun h c -> combine h (hash c)) 0 configs)

(* Definition 6: stacks are equivalent if equal, if at least one is empty, or
   if one is a suffix of the other (with the stack written top-first, the
   shared recent context is a common prefix). *)
let stacks_equivalent (g1 : Stack.t) (g2 : Stack.t) =
  match (g1, g2) with
  | Empty, _ | _, Empty -> true
  | _ -> Stack.is_prefix g1 g2 || Stack.is_prefix g2 g1

(* Definition 7: two configurations conflict when they share the ATN state,
   have equivalent stacks, and predict different alternatives.  The
   reference that [Analysis.conflict_info], which never compares pairs of
   configurations, is tested against. *)
let conflicts (a : t) (b : t) =
  a.state = b.state && a.alt <> b.alt && stacks_equivalent a.stack b.stack

(* Canonical form of a configuration set: sorted, deduplicated.  Used as the
   DFA-state identity for subset-construction dedup (Definition 6 state
   equivalence). *)
let canonicalize (configs : t list) : t list = List.sort_uniq compare configs

(* The canonical union of canonical sets, merged pairwise in rounds: n log k
   comparisons for k sets of n configurations in all, where sorting their
   concatenation takes n log n. *)
let union (sets : t list list) : t list =
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
        let c = compare x y in
        if c < 0 then x :: merge a' b
        else if c > 0 then y :: merge a b'
        else x :: merge a' b'
  in
  let rec pairs = function
    | a :: b :: rest -> merge a b :: pairs rest
    | rest -> rest
  in
  let rec rounds = function
    | [] -> []
    | [ set ] -> set
    | sets -> rounds (pairs sets)
  in
  rounds sets
