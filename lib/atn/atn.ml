(* Facade for the ATN library: [Atn.t] is the machine; [Atn.Build.build]
   constructs it from a prepared grammar; [Atn.Program.of_atn] flattens it
   into the interpreter's epsilon-free program; [Atn.Dot.to_dot] exports
   Graphviz. *)

include Machine
module Build = Build
module Program = Program
module Dot = Atn_dot
