(* Exec.Pool: submit/await over a fixed set of workers with deterministic
   result ordering.

   The implementation lives in [Pool_backend], selected at build time by a
   dune rule: OCaml >= 5 gets worker domains ("domains" backend), older
   compilers get an inline sequential implementation ("sequential"
   backend) with the same signature.  [create ~jobs:1] and the sequential
   backend are the same code path, so results never depend on which
   backend (or job count) ran the work -- parallelism only changes
   wall-clock time.

   Determinism contract: [map_array]/[map_list] submit one task per
   element and await them in element order, so the output ordering is the
   input ordering regardless of completion order, and a task exception
   surfaces at the index that raised it.  Tasks must not mutate state
   shared with other tasks; see DESIGN.md (Execution layer) for the
   sharing discipline the analysis, batch and fuzz drivers follow. *)

type t = Pool_backend.t
type 'a task = 'a Pool_backend.task

(* "domains" or "sequential"; telemetry records it alongside results. *)
let backend = Pool_backend.backend_name

(* Cores the runtime recommends (1 on the sequential backend). *)
let available_cores = Pool_backend.available_cores

(* Resolve a user-facing job count: 0 means "all available cores".
   Negative counts are rejected here with a clear message instead of
   leaking into [create], which would raise about its own [jobs]
   argument; the CLI validates earlier still, at the Cmdliner layer. *)
let resolve_jobs n =
  if n < 0 then
    invalid_arg
      (Printf.sprintf
         "Exec.Pool.resolve_jobs: job count must be >= 0 (0 = all cores), \
          got %d" n)
  else if n = 0 then max 1 (available_cores ())
  else n

let create ~jobs = Pool_backend.create ~jobs
let jobs = Pool_backend.jobs
let submit = Pool_backend.submit
let await = Pool_backend.await
let shutdown = Pool_backend.shutdown

(* Queued-but-unstarted job count: a point-in-time observability gauge
   (exported by the serve daemon's ready/stats/metrics surfaces), not a
   scheduling primitive.  0 whenever tasks run inline (jobs=1 or the
   sequential backend). *)
let pending = Pool_backend.pending

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* Map with deterministic result ordering.  [jobs p = 1] short-circuits to
   a plain [Array.map]: byte-for-byte the sequential code path. *)
let map_array (p : t) (f : 'a -> 'b) (arr : 'a array) : 'b array =
  if jobs p = 1 then Array.map f arr
  else
    let tasks = Array.map (fun x -> submit p (fun () -> f x)) arr in
    Array.map await tasks

let map_list (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if jobs p = 1 then List.map f xs
  else
    let tasks = List.map (fun x -> submit p (fun () -> f x)) xs in
    List.map await tasks

(* Split [0 .. n-1] into up to [shards] contiguous ranges [(start, stop))]
   of near-equal size, in ascending order; empty ranges are dropped.  The
   batch drivers give each shard to one task so per-shard state (metrics
   registries, interpreters) stays task-local and is merged on join. *)
let shard_ranges ~shards n : (int * int) list =
  if shards < 1 then invalid_arg "Exec.Pool.shard_ranges: shards must be >= 1";
  if n <= 0 then []
  else begin
    let shards = min shards n in
    let base = n / shards and extra = n mod shards in
    let rec go i start acc =
      if i >= shards then List.rev acc
      else
        let len = base + if i < extra then 1 else 0 in
        go (i + 1) (start + len) ((start, start + len) :: acc)
    in
    go 0 0 []
  end

(* Chunk-queue scheduling: split [0 .. n-1] into several chunks per
   worker rather than one contiguous shard each.  Every chunk is its own
   task in the pool's shared run queue, so a worker that finishes early
   pulls the next pending chunk instead of idling behind the slowest
   shard -- work stealing at chunk granularity, with no new machinery:
   the shared queue already load-balances whatever is submitted; the old
   one-shard-per-worker split simply never gave it anything to balance.
   [granularity] is the chunks-per-worker factor: higher values smooth
   more unevenness but pay more per-chunk overhead (task bookkeeping,
   chunk-local state such as a metrics registry).

   Determinism: chunk boundaries depend only on [n], [jobs] and
   [granularity] -- never on timing -- and callers await/merge in chunk
   order, so results are identical for any interleaving or job count. *)
let default_chunks_per_worker = 8

let chunk_ranges ?(granularity = default_chunks_per_worker) ~jobs n :
    (int * int) list =
  if jobs < 1 then invalid_arg "Exec.Pool.chunk_ranges: jobs must be >= 1";
  if granularity < 1 then
    invalid_arg "Exec.Pool.chunk_ranges: granularity must be >= 1";
  shard_ranges ~shards:(jobs * granularity) n
