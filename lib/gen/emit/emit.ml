(* Build-time emitter for the lib/gen parsers: [emit.exe NAME] prints the
   parser module for bench grammar NAME to stdout.  Same lowering as
   [antlrkit codegen --bench NAME --print]. *)

module Workload = Bench_grammars.Workload

let () =
  let name = Sys.argv.(1) in
  match Bench_grammars.Specs.find name with
  | None -> failwith ("emit: unknown bench grammar " ^ name)
  | Some spec -> (
      let cw = Workload.compile spec in
      match
        Codegen.Lower.lower ~lexer:spec.Workload.lexer_config
          ~grammar_text:spec.Workload.grammar_text cw.Workload.c
      with
      | Error msg -> failwith ("emit: " ^ name ^ ": " ^ msg)
      | Ok ir -> print_string (Codegen.Emit_ocaml.emit ir))
