(* Symbol vocabulary: interning of terminals (token types) and nonterminals
   (rule names).

   Terminal ids and nonterminal ids live in separate dense integer spaces so
   that both can index arrays directly.  Terminal id 0 is always EOF; terminal
   id 1 is the wildcard placeholder used by the [.] grammar element.

   Terminals come in two flavours:
   - named token types, written with an uppercase initial in the metalanguage
     (e.g. [ID], [INT]);
   - literal tokens, written single-quoted (e.g. ['int'], ['+=']).  A literal
     is interned under its quoted spelling and remembers its raw text so the
     lexer engine can build its keyword/operator tables from the vocabulary. *)

type t = {
  mutable term_names : string array;
  mutable nterm_names : string array;
  term_ids : (string, int) Hashtbl.t;
  nterm_ids : (string, int) Hashtbl.t;
  mutable nterms : int;
  mutable nterms_cap : int;
  mutable terms : int;
  mutable terms_cap : int;
  literal_text : (int, string) Hashtbl.t; (* literal terminal id -> raw text *)
  mutable frozen : bool;
    (* interning is closed: any attempt to add a *new* symbol raises.
       Compilation freezes the vocabulary after ATN construction, before
       analysis work fans out across domains, so the table is provably
       read-only while workers share it (lookups never mutate). *)
}

let eof = 0
let wildcard = 1
let eof_name = "EOF"
let wildcard_name = "."

let create () =
  let t =
    {
      term_names = Array.make 16 "";
      nterm_names = Array.make 16 "";
      term_ids = Hashtbl.create 64;
      nterm_ids = Hashtbl.create 64;
      nterms = 0;
      nterms_cap = 16;
      terms = 0;
      terms_cap = 16;
      literal_text = Hashtbl.create 16;
      frozen = false;
    }
  in
  (* Reserve EOF and the wildcard so their ids are stable. *)
  Hashtbl.add t.term_ids eof_name eof;
  t.term_names.(eof) <- eof_name;
  Hashtbl.add t.term_ids wildcard_name wildcard;
  t.term_names.(wildcard) <- wildcard_name;
  t.terms <- 2;
  t

let grow arr cap used v =
  if used < cap then (arr, cap)
  else begin
    let cap' = cap * 2 in
    let arr' = Array.make cap' v in
    Array.blit arr 0 arr' 0 used;
    (arr', cap')
  end

let is_literal_name name = String.length name >= 2 && name.[0] = '\''

(* ['foo'] -> [foo]; assumes a well-formed quoted spelling. *)
let unquote name =
  if is_literal_name name then String.sub name 1 (String.length name - 2)
  else name

let freeze t = t.frozen <- true
let is_frozen t = t.frozen

let frozen_failure kind name =
  invalid_arg
    (Printf.sprintf
       "Sym: intern of new %s %S after freeze (the vocabulary is closed \
        once analysis begins; pre-intern every symbol before fan-out)"
       kind name)

let intern_term t name =
  match Hashtbl.find_opt t.term_ids name with
  | Some id -> id
  | None when t.frozen -> frozen_failure "terminal" name
  | None ->
      let id = t.terms in
      let arr, cap = grow t.term_names t.terms_cap t.terms "" in
      t.term_names <- arr;
      t.terms_cap <- cap;
      t.term_names.(id) <- name;
      Hashtbl.add t.term_ids name id;
      t.terms <- id + 1;
      if is_literal_name name then Hashtbl.add t.literal_text id (unquote name);
      id

let intern_nonterm t name =
  match Hashtbl.find_opt t.nterm_ids name with
  | Some id -> id
  | None when t.frozen -> frozen_failure "nonterminal" name
  | None ->
      let id = t.nterms in
      let arr, cap = grow t.nterm_names t.nterms_cap t.nterms "" in
      t.nterm_names <- arr;
      t.nterms_cap <- cap;
      t.nterm_names.(id) <- name;
      Hashtbl.add t.nterm_ids name id;
      t.nterms <- id + 1;
      id

let find_term t name = Hashtbl.find_opt t.term_ids name

let term_name t id =
  if id >= 0 && id < t.terms then t.term_names.(id)
  else Printf.sprintf "<term:%d>" id

let nonterm_name t id =
  if id >= 0 && id < t.nterms then t.nterm_names.(id)
  else Printf.sprintf "<rule:%d>" id

let num_terms t = t.terms
let num_nonterms t = t.nterms
let literal_text t id = Hashtbl.find_opt t.literal_text id
let is_literal t id = Hashtbl.mem t.literal_text id

(* All literal terminals as (raw text, id), for lexer-table construction. *)
let literals t =
  Hashtbl.fold (fun id text acc -> (text, id) :: acc) t.literal_text []
  |> List.sort compare
