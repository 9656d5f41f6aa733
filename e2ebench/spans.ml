(* Spans for the traced run.

   The benchmark wraps each call into a layer's public function in a span
   (name, start, end, parent, and the id of the input or request it
   served).  Spans stay in memory and are written out when the run ends.
   A span's self time is its duration minus the time its child spans
   cover, accumulated per name as spans close.

   The interpreter's own trace events (decision and synpred enter/exit)
   open and close frames on the same stack, so prediction and speculation
   get self times too; they are aggregated, not stored, because there is
   one per decision.  In-process phases are single-threaded and use the
   stack; serve client threads record flat spans under a lock. *)

type span = {
  seq : int;
  name : string;
  id : int;
  start : float;
  stop : float;
  parent : int; (* seq of the enclosing span, -1 at the root *)
}

type frame = {
  f_seq : int;
  f_name : string;
  f_id : int;
  f_start : float;
  f_store : bool;
  mutable f_child : float;
}

let enabled = ref false
let stack : frame list ref = ref []
let next_seq = ref 0
let stored : span list ref = ref []
let n_stored = ref 0
let max_stored = 400_000
let lock = Mutex.create ()

(* Self time per (context, name); the context names the grammar, path
   and pass kind, so lex shares can be read per grammar and backend. *)
let context = ref ""
let self_s : (string * string, float ref) Hashtbl.t = Hashtbl.create 64
let count : (string, int ref) Hashtbl.t = Hashtbl.create 32

let bump key v =
  match Hashtbl.find_opt self_s key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add self_s key (ref v)

let incr_count name n =
  match Hashtbl.find_opt count name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add count name (ref n)

let reset () =
  stack := [];
  stored := [];
  n_stored := 0;
  Hashtbl.reset self_s;
  Hashtbl.reset count

let store (s : span) =
  if !n_stored < max_stored then begin
    stored := s :: !stored;
    incr n_stored
  end

let enter_at ?(store = true) name id t : int =
  let seq = !next_seq in
  incr next_seq;
  stack :=
    { f_seq = seq; f_name = name; f_id = id; f_start = t; f_store = store;
      f_child = 0.0 }
    :: !stack;
  seq

(* Close frames up to and including [seq]; frames left open above it (an
   exception escaped a library span) are closed at the same instant. *)
let exit_at (seq : int) t : unit =
  let rec go () =
    match !stack with
    | [] -> ()
    | f :: rest ->
        stack := rest;
        let dur = t -. f.f_start in
        bump (!context, f.f_name) (dur -. f.f_child);
        let parent =
          match rest with
          | p :: _ ->
              p.f_child <- p.f_child +. dur;
              p.f_seq
          | [] -> -1
        in
        if f.f_store then
          store
            { seq = f.f_seq; name = f.f_name; id = f.f_id; start = f.f_start;
              stop = t; parent };
        if f.f_seq <> seq then go ()
  in
  go ()

let with_span name id (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let seq = enter_at name id (Util.now ()) in
    match f () with
    | v ->
        exit_at seq (Util.now ());
        v
    | exception e ->
        exit_at seq (Util.now ());
        raise e
  end

(* A finished span recorded from a client thread: no nesting. *)
let record_flat name id ~start ~stop : unit =
  if !enabled then begin
    Mutex.lock lock;
    let seq = !next_seq in
    incr next_seq;
    bump ("serve", name) (stop -. start);
    store { seq; name; id; start; stop; parent = -1 };
    Mutex.unlock lock
  end

(* The interpreter's trace events as frames on the span stack, plus the
   counts the per-layer metrics need.  Synpred exits carry the verdict,
   so useful/attempted speculation is counted here. *)
let tracer () : Obs.Trace.t =
  let open_frames : int list ref = ref [] in
  let push name t = open_frames := enter_at ~store:false name 0 t :: !open_frames in
  let pop t =
    match !open_frames with
    | seq :: rest ->
        open_frames := rest;
        (* the frame may already be closed by an unwinding bench span *)
        if List.exists (fun f -> f.f_seq = seq) !stack then exit_at seq t
    | [] -> ()
  in
  Obs.Trace.make ~clock:Util.now (fun t ev ->
      match ev with
      | Obs.Trace.Decision_enter _ -> push "interp.predict" t
      | Obs.Trace.Decision_exit _ -> pop t
      | Obs.Trace.Synpred_enter _ -> push "interp.speculate" t
      | Obs.Trace.Synpred_exit { ok; _ } ->
          incr_count "interp.synpreds" 1;
          if ok then incr_count "interp.synpreds_ok" 1;
          pop t
      | Obs.Trace.Memo_hit _ -> incr_count "interp.memo_hits" 1
      | Obs.Trace.Memo_miss _ -> incr_count "interp.memo_misses" 1
      | Obs.Trace.Lazy_sprout _ -> incr_count "lazy_dfa.sprouts" 1
      | Obs.Trace.Cache_load { hit; _ } ->
          incr_count "cache.probes" 1;
          if hit then incr_count "cache.hits" 1
      | Obs.Trace.Dfa_edge _ | Obs.Trace.Dfa_rebuild _ | Obs.Trace.Backtrack _
      | Obs.Trace.Error_sync _ | Obs.Trace.Lexer_mode_enter _
      | Obs.Trace.Lexer_mode_exit _ | Obs.Trace.Serve_request _ ->
          ())

let count_of name = match Hashtbl.find_opt count name with Some r -> !r | None -> 0

(* Self time of [name] summed over the contexts that pass [keep]. *)
let self ?(keep = fun _ -> true) name =
  Hashtbl.fold
    (fun (ctx, n) r a -> if n = name && keep ctx then a +. !r else a)
    self_s 0.0

(* Self time of every name in the contexts that pass [keep]. *)
let self_sum ~keep =
  Hashtbl.fold (fun (ctx, _) r a -> if keep ctx then a +. !r else a) self_s 0.0

(* Spans as JSON lines, oldest first, times relative to the first span. *)
let write (path : string) : unit =
  let spans = List.rev !stored in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"seq\":%d,\"name\":%S,\"id\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"parent\":%d}\n"
        s.seq s.name s.id
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6)
        s.parent)
    spans;
  close_out oc
