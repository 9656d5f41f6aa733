(* Registry of the generated parsers, one per bench grammar.

   The parser modules in this directory are build products: the rules in
   ./dune run emit/emit.exe, which lowers each bench grammar through
   lib/codegen, so the fuzz oracle, the benches and the tests exercise
   the emitter's current output.  Read one at
   _build/default/lib/gen/gen_mini_java.ml, or print it with

     dune exec antlrkit -- codegen --bench MiniJava --print *)

let parsers : (string * (module Runtime.Generated.PARSER)) list =
  [
    ("MiniJava", (module Gen_mini_java));
    ("RatsC", (module Gen_rats_c));
    ("RatsJava", (module Gen_rats_java));
    ("MiniVB", (module Gen_mini_vb));
    ("MiniSQL", (module Gen_mini_sql));
    ("MiniCSharp", (module Gen_mini_csharp));
  ]

let find (name : string) : (module Runtime.Generated.PARSER) option =
  List.assoc_opt name parsers
