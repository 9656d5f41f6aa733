(* Host-speed calibration.

   On a shared virtual machine the same single-threaded work takes from
   1x to 1.5x as long from one few-second stretch to the next, in CPU
   time as well as wall time: neighbours' load slows the core and its
   caches without showing as steal.  A fixed piece of work, timed right
   before and right after each timed measurement, tells how fast the host
   was at the time.  [scaled] divides the measurement's CPU time by the
   mean of the two calibration times and multiplies it by [reference_s],
   so it reads as on a host that runs the calibration in [reference_s].
   The benchmark reports medians of these scaled times.

   The work is the benchmark's own code, the same on every commit, and
   uses the machine as the parsers do: hash-table inserts of fresh
   strings at random keys and a list sort, so allocation, the minor GC
   and cache misses.  Its live data stays near two megabytes.  It runs
   under the program's GC settings; nothing in the program changes
   them. *)

(* The calibration's CPU time on the 2-vCPU x86-64 virtual machine the
   benchmark was defined on, at a quiet time. *)
let reference_s = 0.020

let work () : unit =
  let rng = Random.State.make [| 42 |] in
  let t = Hashtbl.create 16 in
  for i = 0 to 40_000 do
    Hashtbl.replace t (Random.State.int rng 20_000) (string_of_int i)
  done;
  let l = List.init 20_000 (fun _ -> Random.State.float rng 1.0) in
  ignore (Sys.opaque_identity (List.sort compare l, t))

let samples : float list ref = ref []

let reset () = samples := []

(* One timed run of the calibration work, in CPU seconds. *)
let sample () : float =
  let (), dt = Util.cpu_time work in
  samples := dt :: !samples;
  dt

(* [f ()] and its CPU time scaled to the reference host. *)
let scaled (f : unit -> 'a) : 'a * float =
  let c0 = sample () in
  let v, dt = Util.cpu_time f in
  let c1 = sample () in
  (v, dt *. reference_s /. ((c0 +. c1) /. 2.0))

(* Median calibration time of the run. *)
let median_s () : float =
  match !samples with [] -> reference_s | s -> Util.median s
