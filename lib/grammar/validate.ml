(* Static sanity checks on grammars, run before analysis:

   - every referenced rule is defined;
   - no rule is defined twice;
   - no left recursion (immediate or indirect) remains -- LL-star shares PEG's
     restriction (paper section 1.1); the left-recursion rewrite must be
     applied first for immediate cases;
   - warnings: unreachable rules, structurally duplicate alternatives (dead
     productions under ordered-alternative semantics). *)

open Ast

type issue =
  | Undefined_rule of { referenced_in : string; name : string }
  | Duplicate_rule of string
  | Left_recursion of string list (* cycle of rule names *)
  | Unreachable_rule of string
  | Duplicate_alt of { rule : string; alt1 : int; alt2 : int }
  | Empty_grammar

let is_error = function
  | Undefined_rule _ | Duplicate_rule _ | Left_recursion _ | Empty_grammar ->
      true
  | Unreachable_rule _ | Duplicate_alt _ -> false

let pp_issue ppf = function
  | Undefined_rule { referenced_in; name } ->
      Fmt.pf ppf "rule '%s' referenced in '%s' is not defined" name
        referenced_in
  | Duplicate_rule r -> Fmt.pf ppf "rule '%s' is defined more than once" r
  | Left_recursion cycle ->
      Fmt.pf ppf "left recursion: %s" (String.concat " -> " cycle)
  | Unreachable_rule r ->
      Fmt.pf ppf "rule '%s' is unreachable from the start rule" r
  | Duplicate_alt { rule; alt1; alt2 } ->
      Fmt.pf ppf
        "rule '%s': alternative %d duplicates alternative %d and can never \
         match"
        rule alt2 alt1
  | Empty_grammar -> Fmt.pf ppf "grammar has no rules"

(* ------------------------------------------------------------------ *)
(* Nullability: can a construct derive the empty string?  Predicates,
   actions and syntactic predicates consume no input. *)

let compute_nullable (g : t) : (string, bool) Hashtbl.t =
  let nullable = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace nullable r.name false) g.rules;
  let rule_nullable name =
    match Hashtbl.find_opt nullable name with Some b -> b | None -> false
  in
  let rec elem_nullable = function
    | Term _ | Wild -> false
    | Nonterm { name; _ } -> rule_nullable name
    | Sem_pred _ | Prec_pred _ | Syn_pred _ | Action _ -> true
    | Block { suffix = Opt | Star; _ } -> true
    | Block { alts; suffix = One | Plus } -> List.exists alt_nullable alts
  and alt_nullable a = List.for_all elem_nullable a.elems in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if not (rule_nullable r.name) then
          if List.exists alt_nullable r.rule_alts then begin
            Hashtbl.replace nullable r.name true;
            changed := true
          end)
      g.rules
  done;
  nullable

(* ------------------------------------------------------------------ *)
(* Leftmost rule references: rules reachable at the left edge of a rule,
   through nullable prefixes.  Used for left-recursion detection. *)

let leftmost_refs nullable (r : rule) : string list =
  let acc = ref [] in
  let add n = if not (List.mem n !acc) then acc := n :: !acc in
  let rule_nullable name =
    match Hashtbl.find_opt nullable name with Some b -> b | None -> false
  in
  let rec elem_nullable = function
    | Term _ | Wild -> false
    | Nonterm { name; _ } -> rule_nullable name
    | Sem_pred _ | Prec_pred _ | Syn_pred _ | Action _ -> true
    | Block { suffix = Opt | Star; _ } -> true
    | Block { alts; suffix = One | Plus } -> List.exists alt_nullable alts
  and alt_nullable a = List.for_all elem_nullable a.elems in
  let rec scan_elems = function
    | [] -> ()
    | e :: rest ->
        scan_elem e;
        if elem_nullable e then scan_elems rest
  and scan_elem = function
    | Term _ | Wild | Sem_pred _ | Prec_pred _ | Action _ -> ()
    | Nonterm { name; _ } -> add name
    | Block { alts; _ } -> List.iter (fun a -> scan_elems a.elems) alts
    | Syn_pred alts ->
        (* A syntactic predicate speculatively invokes its fragment, so a
           left-recursive fragment still loops at parse time. *)
        List.iter (fun a -> scan_elems a.elems) alts
  in
  List.iter (fun a -> scan_elems a.elems) r.rule_alts;
  List.rev !acc

let find_left_recursion (g : t) : string list option =
  let nullable = compute_nullable g in
  let edges = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace edges r.name (leftmost_refs nullable r))
    g.rules;
  (* DFS cycle detection with path reconstruction. *)
  let color = Hashtbl.create 16 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let cycle = ref None in
  let rec dfs path name =
    if !cycle = None then
      match Hashtbl.find_opt color name with
      | Some 1 ->
          (* Found a cycle: slice [path] from the first occurrence. *)
          let rec slice = function
            | x :: rest when x = name -> x :: rest
            | _ :: rest -> slice rest
            | [] -> []
          in
          cycle := Some (slice (List.rev (name :: path)))
      | Some _ -> ()
      | None ->
          Hashtbl.replace color name 1;
          let succs =
            match Hashtbl.find_opt edges name with Some s -> s | None -> []
          in
          List.iter (dfs (name :: path)) succs;
          Hashtbl.replace color name 2
  in
  List.iter (fun r -> dfs [] r.name) g.rules;
  !cycle

(* ------------------------------------------------------------------ *)

let reachable_rules (g : t) : (string, unit) Hashtbl.t =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match find_rule g name with
      | None -> ()
      | Some r ->
          let refs = ref [] in
          List.iter
            (fun a ->
              iter_elements_alt
                (function
                  | Nonterm { name = n; _ } -> refs := n :: !refs
                  | _ -> ())
                a)
            r.rule_alts;
          List.iter visit !refs
    end
  in
  visit g.start;
  seen

let check (g : t) : issue list =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if g.rules = [] then add Empty_grammar
  else begin
    (* duplicate definitions *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun r ->
        if Hashtbl.mem seen r.name then add (Duplicate_rule r.name)
        else Hashtbl.add seen r.name ())
      g.rules;
    (* undefined references *)
    List.iter
      (fun r ->
        List.iter
          (fun a ->
            iter_elements_alt
              (function
                | Nonterm { name; _ } when not (Hashtbl.mem seen name) ->
                    add (Undefined_rule { referenced_in = r.name; name })
                | _ -> ())
              a)
          r.rule_alts)
      g.rules;
    (* only run recursion/reachability analyses on well-formed grammars *)
    if List.for_all (fun i -> not (is_error i)) !issues then begin
      (match find_left_recursion g with
      | Some cycle -> add (Left_recursion cycle)
      | None -> ());
      let reach = reachable_rules g in
      List.iter
        (fun r ->
          if not (Hashtbl.mem reach r.name) then add (Unreachable_rule r.name))
        g.rules;
      (* structurally duplicate alternatives *)
      List.iter
        (fun r ->
          let alts = Array.of_list r.rule_alts in
          for i = 0 to Array.length alts - 1 do
            for j = i + 1 to Array.length alts - 1 do
              if equal_alt alts.(i) alts.(j) then
                add (Duplicate_alt { rule = r.name; alt1 = i + 1; alt2 = j + 1 })
            done
          done)
        g.rules
    end
  end;
  List.rev !issues

let errors g = List.filter is_error (check g)
let warnings g = List.filter (fun i -> not (is_error i)) (check g)
