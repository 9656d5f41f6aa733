(* Clocks, order statistics and the metric record every workload fills. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds of the whole process (all threads), for work that runs on
   one thread with nothing else busy: unlike wall time it does not count
   the time the host takes the CPU away (steal), which on a shared
   virtual machine is the largest source of run-to-run spread. *)
let cpu_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile (xs : float list) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

(* The median is the mean of the two middle values on even counts, so a
   two-sample median is not just the larger sample. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum (xs : float list) : float = List.fold_left ( +. ) 0.0 xs

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Peak resident set of this process (VmHWM), in MiB.  Falls back to the
   GC's top heap size where /proc is unavailable. *)
let peak_rss_mb () : float =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.0))
              else go ()
        in
        go ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* A scratch directory inside the working directory (the benchmark never
   writes outside its checkout), removed with its contents at exit. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let work_dir : string Lazy.t =
  lazy
    (let dir =
       Filename.concat "e2ebench"
         (Filename.concat "_work" (string_of_int (Unix.getpid ())))
     in
     mkdir_p dir;
     at_exit (fun () ->
         rm_rf dir;
         try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error (_, _, _) -> ());
     dir)

(* Attempted/failed bookkeeping shared by every check in a run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check (t : tally) ~(what : string) (ok : bool) : unit =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("e2ebench: failed: " ^ what)
  end
