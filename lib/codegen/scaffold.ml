(* Workspace scaffolding: wrap an emitted parser module in a buildable
   dune project with a driver executable.

   The driver embeds everything it needs to run standalone: the lexer
   configuration (when the grammar was compiled with one), the surface
   grammar text, and -- through the parser module's metadata arrays --
   the vocabulary, rebuilt id-for-id by {!Runtime.Generated.rebuild_sym}.
   Its [--check] mode recompiles the embedded grammar and replays every
   input through both the generated parser and the ATN interpreter,
   failing loudly on any accept/reject, error-position or consumed-count
   disagreement; CI's codegen-diff job drives exactly that.  A bench
   grammar's driver runs both under the spec's semantic predicates
   ({!Bench_grammars.Workload.env_of_spec}): its samples parse only under
   them. *)

let spf = Printf.sprintf

(* "MiniJava" -> "minijava": a valid lowercase OCaml module/file stem. *)
let sanitize_module (name : string) : string =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> Buffer.add_char b '_')
    name;
  let s = Buffer.contents b in
  let s = if s = "" then "parser" else s in
  match s.[0] with 'a' .. 'z' -> s | _ -> "p" ^ s

let capitalize = String.capitalize_ascii

let lexer_config_literal (cfg : Runtime.Lexer_engine.config) : string =
  let so = function None -> "None" | Some s -> spf "Some %S" s in
  let sl l = spf "[ %s ]" (String.concat "; " (List.map (spf "%S") l)) in
  let sl l = if l = [] then "[]" else sl l in
  let pl l =
    spf "[ %s ]"
      (String.concat "; " (List.map (fun (a, b) -> spf "(%S, %S)" a b) l))
  in
  let pl l = if l = [] then "[]" else pl l in
  String.concat "\n"
    [
      "  {";
      spf "    Runtime.Lexer_engine.ident_token = %s;"
        (so cfg.Runtime.Lexer_engine.ident_token);
      spf "    int_token = %s;" (so cfg.Runtime.Lexer_engine.int_token);
      spf "    float_token = %s;" (so cfg.Runtime.Lexer_engine.float_token);
      spf "    string_token = %s;" (so cfg.Runtime.Lexer_engine.string_token);
      spf "    string_quote = %C;" cfg.Runtime.Lexer_engine.string_quote;
      spf "    char_token = %s;" (so cfg.Runtime.Lexer_engine.char_token);
      spf "    at_ident_token = %s;"
        (so cfg.Runtime.Lexer_engine.at_ident_token);
      spf "    newline_token = %s;" (so cfg.Runtime.Lexer_engine.newline_token);
      spf "    line_comments = %s;" (sl cfg.Runtime.Lexer_engine.line_comments);
      spf "    block_comments = %s;"
        (pl cfg.Runtime.Lexer_engine.block_comments);
      spf "    case_insensitive_keywords = %b;"
        cfg.Runtime.Lexer_engine.case_insensitive_keywords;
      spf "    extra_ident_start = %S;"
        cfg.Runtime.Lexer_engine.extra_ident_start;
      spf "    extra_ident_cont = %S;" cfg.Runtime.Lexer_engine.extra_ident_cont;
      "  }";
    ]

let driver_ml ?bench (ir : Ir.t) ~(module_name : string) : string =
  let b = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let p = capitalize module_name in
  line "(* Driver for the generated %s parser -- emitted by [antlrkit codegen]."
    ir.Ir.grammar_name;
  line "   DO NOT EDIT: regenerate instead.";
  line "";
  line "   usage: main.exe [--check] FILE...";
  line "";
  line "   Parses each FILE with the generated parser and prints the outcome.";
  line "   With [--check], additionally recompiles the embedded grammar and";
  line "   replays each input through the ATN/DFA interpreter, exiting";
  line "   nonzero if the two parsers disagree on accept/reject, error";
  line "   position or consumed-token count. *)";
  line "";
  line "module P = %s" p;
  line "module Rt = Runtime.Generated";
  line "";
  (match ir.Ir.grammar_text with
  | Some src -> line "let grammar_source = Some %S" src
  | None -> line "let grammar_source : string option = None");
  line "";
  (match ir.Ir.lexer_hint with
  | Some cfg ->
      line "let lexer_config : Runtime.Lexer_engine.config =";
      Buffer.add_string b (lexer_config_literal cfg);
      Buffer.add_char b '\n'
  | None ->
      line "let lexer_config : Runtime.Lexer_engine.config =";
      line "  Runtime.Lexer_engine.default_config");
  line "";
  line "let sym =";
  line "  Rt.rebuild_sym ~token_names:P.token_names ~rule_names:P.rule_names";
  line "";
  (match bench with
  | Some name ->
      line "let env =";
      line "  Bench_grammars.Workload.env_of_spec";
      line "    (Option.get (Bench_grammars.Specs.find %S))" name
  | None -> line "let env = Runtime.Interp.default_env");
  line "";
  line "let read_file path =";
  line "  let ic = open_in_bin path in";
  line "  let n = in_channel_length ic in";
  line "  let s = really_input_string ic n in";
  line "  close_in ic;";
  line "  s";
  line "";
  line "let lex path text =";
  line "  match Runtime.Lexer_engine.tokenize lexer_config sym text with";
  line "  | Ok toks -> toks";
  line "  | Error e ->";
  line "      Printf.eprintf \"%%s: lex error: %%s\\n\" path";
  line "        (Fmt.str \"%%a\" Runtime.Lexer_engine.pp_error e);";
  line "      exit 1";
  line "";
  line "let () =";
  line "  let args = List.tl (Array.to_list Sys.argv) in";
  line "  let check = List.mem \"--check\" args in";
  line "  let files = List.filter (fun a -> a <> \"--check\") args in";
  line "  if files = [] then begin";
  line "    Printf.eprintf \"usage: %%s [--check] FILE...\\n\" Sys.argv.(0);";
  line "    exit 2";
  line "  end;";
  line "  let oracle =";
  line "    if not check then None";
  line "    else";
  line "      match grammar_source with";
  line "      | None ->";
  line "          Printf.eprintf \"--check: no grammar source was embedded\\n\";";
  line "          exit 2";
  line "      | Some src ->";
  line "          let c = Llstar.Compiled.of_source_exn src in";
  line "          let cs = Llstar.Compiled.sym c in";
  line "          Array.iteri";
  line "            (fun i name ->";
  line "              if Grammar.Sym.term_name cs i <> name then begin";
  line "                Printf.eprintf";
  line "                  \"--check: vocabulary drift at token %%d (%%s)\\n\" i name;";
  line "                exit 2";
  line "              end)";
  line "            P.token_names;";
  line "          Some c";
  line "  in";
  line "  let failures = ref 0 in";
  line "  List.iter";
  line "    (fun path ->";
  line "      let toks = lex path (read_file path) in";
  line "      let got = P.outcome ~env toks in";
  line "      Printf.printf \"%%s: %%s\\n\" path (Rt.describe got);";
  line "      match oracle with";
  line "      | None -> ()";
  line "      | Some c ->";
  line "          let want = Rt.interp_outcome ~env c toks in";
  line "          if not (Rt.agree got want) then begin";
  line "            incr failures;";
  line "            Printf.printf";
  line "              \"%%s: DISAGREEMENT generated=%%s interp=%%s\\n\" path";
  line "              (Rt.describe got) (Rt.describe want)";
  line "          end)";
  line "    files;";
  line "  if !failures > 0 then begin";
  line "    Printf.printf \"%%d disagreement(s)\\n\" !failures;";
  line "    exit 1";
  line "  end";
  Buffer.contents b

let dune_file ?bench ~(module_name : string) () : string =
  String.concat "\n"
    ([
       (* dune's own canonical formatting, so an in-tree generated
          workspace stays clean under `dune build @fmt` *)
       "(executable";
       " (name main)";
       spf " (modules main %s)" module_name;
       " (libraries";
       "  antlrkit.runtime";
       "  antlrkit.llstar";
       "  antlrkit.atn";
       "  antlrkit.grammar";
       "  antlrkit.obs";
     ]
    @ (if bench = None then [] else [ "  antlrkit.bench_grammars" ])
    @ [ "  fmt))"; "" ])

let dune_project_file : string =
  String.concat "\n" [ "(lang dune 3.0)"; "" ]

(* The full workspace as (relative path, contents) pairs, deterministic
   order.  [samples] become numbered files under samples/; [bench] names
   the bench grammar whose environment the driver runs under. *)
let workspace ?module_name ?(standalone = false) ?(samples = []) ?bench
    (ir : Ir.t) : (string * string) list =
  let module_name =
    match module_name with
    | Some m -> sanitize_module m
    | None -> sanitize_module ir.Ir.grammar_name ^ "_parser"
  in
  let files =
    [
      (module_name ^ ".ml", Emit_ocaml.emit ir);
      ("main.ml", driver_ml ?bench ir ~module_name);
      ("dune", dune_file ?bench ~module_name ());
    ]
  in
  let files =
    if standalone then files @ [ ("dune-project", dune_project_file) ]
    else files
  in
  files
  @ List.mapi
      (fun i text -> (spf "samples/%02d.txt" (i + 1), text))
      samples

let write_all ~(dir : string) (files : (string * string) list) : unit =
  let rec mkdirs d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir;
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat dir rel in
      mkdirs (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc)
    files
