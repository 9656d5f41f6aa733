(* Parse trees: one node per rule invocation, recording which alternative the
   decision engine predicted; leaves are the matched tokens. *)

type t =
  | Node of { rule : int; alt : int; children : t list }
  | Leaf of Token.t

let rec leaves = function
  | Leaf tok -> [ tok ]
  | Node { children; _ } -> List.concat_map leaves children

let rec count_nodes = function
  | Leaf _ -> 1
  | Node { children; _ } ->
      1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 children

let rec depth = function
  | Leaf _ -> 1
  | Node { children; _ } ->
      1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children

let rec pp (sym : Grammar.Sym.t) ppf = function
  | Leaf tok ->
      if Token.is_eof tok then Fmt.string ppf "<EOF>"
      else Fmt.string ppf tok.Token.text
  | Node { rule; children; _ } ->
      Fmt.pf ppf "@[<hov 2>(%s%a)@]"
        (Grammar.Sym.nonterm_name sym rule)
        (fun ppf cs -> List.iter (fun c -> Fmt.pf ppf "@ %a" (pp sym) c) cs)
        children

let to_string sym t = Fmt.str "%a" (pp sym) t

(* Token text of all leaves, space-separated: handy in tests. *)
let yield t = String.concat " " (List.map (fun tok -> tok.Token.text) (leaves t))
