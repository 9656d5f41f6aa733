(* Command line: run one workload and print its metrics, the last line
   being the JSON result.

     main.exe --workload corpus --seed 1 --seconds 12 --trace 0 *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (corpus|backtrack-stream) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 12.0 and trace = ref false in
  let rec scan = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; scan rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        scan rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        scan rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; scan rest
    | _ -> usage ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload E2e.Workloads.names) then usage ();
  let r =
    E2e.Workloads.run
      { E2e.Workloads.workload = !workload; seed = !seed; seconds = !seconds;
        traced = !trace; tiny = false }
  in
  if !trace then begin
    let dir = Filename.concat "e2ebench" "_out" in
    E2e.Util.mkdir_p dir;
    E2e.Spans.write
      (Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
  end;
  print_string (E2e.Report.render ~workload:!workload ~seed:!seed r);
  if r.E2e.Workloads.tally.E2e.Util.failed > 0 then exit 1
