(** Shared machinery for the paper-reproduction experiments.

    A {!spec} fully determines a simulated run; results are memoized for
    the lifetime of the process because the experiments reuse each
    other's configurations heavily (e.g. the Figure-4 breakdown uses the
    same runs as the Figure-3 speedups). *)

type spec = {
  app : string;
  vg : bool;
  scale : float;
  variant : Shasta_core.Config.variant;
  nprocs : int;
  clustering : int;
  checks : bool;
  smp_sync : bool;  (** hierarchical-barrier extension (5) *)
  share_directory : bool;  (** shared-directory extension (5) *)
}

val base : ?vg:bool -> ?scale:float -> string -> int -> spec
(** Base-Shasta run at the given processor count. *)

val smp : ?vg:bool -> ?scale:float -> string -> int -> clustering:int -> spec
(** SMP-Shasta run. *)

val sequential : ?scale:float -> string -> spec
(** One processor, inline checks disabled — the "original sequential
    code" baseline. *)

type result = {
  spec : spec;
  workload : string;
  parallel_cycles : int;
  stats : Shasta_core.Stats.t;  (** aggregated over processors *)
  per_proc : Shasta_core.Stats.t array;
  local_msgs : int;  (** intra-node messages, excluding downgrades *)
  remote_msgs : int;
  downgrade_msgs : int;
  verdict : Shasta_apps.App.verdict;
}

val run : spec -> result
(** Execute (or fetch from the cache). Raises [Failure] if the
    application's result verification fails — every experiment run is
    also a correctness check. *)

val run_batch : ?jobs:int -> spec list -> unit
(** Warm the cache for a list of specs: dedupe the list against itself
    and against the cache, execute the misses concurrently on a
    {!Shasta_util.Pool} of [jobs] domains ([Pool.default_jobs ()] when
    omitted — the [SHASTA_JOBS] environment variable or the machine's
    core count), and publish the results. [jobs = 1] executes in place,
    with no domains spawned. Every individual simulation is
    deterministic and self-contained, so subsequent {!run} calls — and
    tables rendered from them — are byte-identical whatever [jobs] was.
    A failed run re-raises after the whole batch has finished; completed
    results of the batch are still cached. Must be called from the
    coordinating (main) domain, never from inside another batch. *)

val seconds : int -> float
(** Simulated seconds from a cycle count (300 MHz clock). *)

val speedup : spec -> float
(** [parallel_cycles (sequential app)] / [parallel_cycles spec], the
    paper's definition (relative to the original sequential code). *)

val cache_size : unit -> int

val simulated_cycles : unit -> int
(** Cumulative [parallel_cycles] over all runs actually executed so far
    (cache hits contribute nothing). Difference across a span to
    attribute simulated work to it. *)

val fastpath_totals : unit -> int * int
(** [(checks, fast_hits)] summed over all runs actually executed so far
    (cache hits contribute nothing). Difference across a span for the
    bench JSON's [hit_fastpath_rate]. *)

val crash_totals : unit -> int * int
(** [(crashes, recovery_cycles)] summed over all runs actually executed
    so far (cache hits contribute nothing): node crashes absorbed and
    the virtual cycles their recoveries charged. Difference across a
    span for the bench JSON's [crashes] / [recovery_cycles] fields —
    both zero unless a run scheduled crash events. *)

val fastpath_by_app : unit -> (string * (int * int * int * int)) list
(** [(app, (checks, fast_hits, accesses, prog_accesses))] summed over
    the cached results of each application, sorted by name — the
    per-app fused-hit rate and access-program coverage the CLI's
    [report] prints to stderr. *)

val traced_runs : unit -> int
(** Runs executed with the metrics observer attached
    ([Config.trace > 0], i.e. [SHASTA_TRACE=1]). *)

val metrics_snapshot : unit -> Shasta_trace.Metrics.t
(** A copy of the global metrics aggregate over every traced run so far
    (empty when tracing was never on). Aggregation is commutative, so
    the snapshot is independent of the [run_batch] jobs count. *)
