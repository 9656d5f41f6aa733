(* The six bench grammars, in Figure 12 order.  Everything that iterates
   or looks up the bench suite -- the build-time parser emitter, the
   fuzzer, the daemon's preloads, the benches and the tests -- uses this
   one list. *)

let all : Workload.spec list =
  [
    Mini_java.spec;
    Rats_c.spec;
    Rats_java.spec;
    Mini_vb.spec;
    Mini_sql.spec;
    Mini_csharp.spec;
  ]

let find (name : string) : Workload.spec option =
  List.find_opt (fun (s : Workload.spec) -> s.Workload.name = name) all
