(* Profile counters: the DFA depth and speculation depth are recorded
   separately (the old [record] folded speculation into the DFA depth,
   double-counting it), and the cached and retired lazy DFA-state
   counters. *)

open Helpers

let suite =
  [
    ( "profile_counters",
      [
        test "dfa depth and speculation depth tracked separately" (fun () ->
            let p = Runtime.Profile.create () in
            (* (dfa depth, backtracked, speculation reach) *)
            Runtime.Profile.record p ~decision:0 ~depth:1 ~backtracked:false
              ~spec_depth:0;
            Runtime.Profile.record p ~decision:1 ~depth:2 ~backtracked:true
              ~spec_depth:5;
            Runtime.Profile.record p ~decision:1 ~depth:3 ~backtracked:true
              ~spec_depth:1;
            (* effective depths (Table 3): 1, max(2,5)=5, max(3,1)=3 *)
            check (Alcotest.float 1e-9) "avg k" 3.0 (Runtime.Profile.avg_k p);
            (* DFA-only depths: 1, 2, 3 *)
            check (Alcotest.float 1e-9) "avg dfa k" 2.0
              (Runtime.Profile.avg_dfa_k p);
            (* speculation depths over backtracking events: 5, 1 *)
            check (Alcotest.float 1e-9) "back k" 3.0
              (Runtime.Profile.back_k p);
            check int "max k" 5 (Runtime.Profile.max_k p);
            check int "dfa max k" 3 (Runtime.Profile.dfa_max_k p);
            check int "covered" 2 (Runtime.Profile.decisions_covered p));
        test "non-backtracking events ignore spec_depth" (fun () ->
            let p = Runtime.Profile.create () in
            (* a stale spec_depth must not leak into the effective depth
               when the event did not backtrack *)
            Runtime.Profile.record p ~decision:0 ~depth:2 ~backtracked:false
              ~spec_depth:9;
            check (Alcotest.float 1e-9) "avg k" 2.0 (Runtime.Profile.avg_k p);
            check int "max k" 2 (Runtime.Profile.max_k p);
            check (Alcotest.float 1e-9) "back k" 0.0
              (Runtime.Profile.back_k p));
        test "cached DFA-state counter" (fun () ->
            let p = Runtime.Profile.create () in
            Runtime.Profile.record_cached_states p ~decision:1 ~n:7;
            Runtime.Profile.record_cached_states p ~decision:0 ~n:0;
            check int "cached" 7 (Runtime.Profile.cached_dfa_states p);
            Runtime.Profile.reset p;
            check int "cached after reset" 0
              (Runtime.Profile.cached_dfa_states p));
        test "a fresh compile credits no cached or lazy DFA states" (fun () ->
            let c = compile "grammar T; s : A B C | A B D | E ;" in
            let p = Runtime.Profile.create () in
            List.iter
              (fun input ->
                match Runtime.Interp.parse ~profile:p c (lex c input) with
                | Ok _ -> ()
                | Error _ -> Alcotest.failf "parse of %S failed" input)
              [ "A B C"; "A B D"; "E" ];
            check int "decision events" 3 (Runtime.Profile.events p);
            check int "cached" 0 (Runtime.Profile.cached_dfa_states p);
            check int "lazy" 0 (Runtime.Profile.lazy_dfa_states p);
            (* the retired counter stays in the JSON document *)
            check bool "lazy_dfa_states field" true
              (Obs.Json.member "lazy_dfa_states" (Runtime.Profile.to_json p)
              = Some (Obs.Json.int 0)));
      ] );
  ]
