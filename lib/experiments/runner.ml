module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module App = Shasta_apps.App

type spec = {
  app : string;
  vg : bool;
  scale : float;
  variant : Config.variant;
  nprocs : int;
  clustering : int;
  checks : bool;
  smp_sync : bool;
  share_directory : bool;
}

let base ?(vg = false) ?(scale = 1.0) app nprocs =
  {
    app;
    vg;
    scale;
    variant = Config.Base;
    nprocs;
    clustering = 1;
    checks = true;
    smp_sync = false;
    share_directory = false;
  }

let smp ?(vg = false) ?(scale = 1.0) app nprocs ~clustering =
  {
    app;
    vg;
    scale;
    variant = Config.Smp;
    nprocs;
    clustering;
    checks = true;
    smp_sync = false;
    share_directory = false;
  }

let sequential ?(scale = 1.0) app =
  {
    app;
    vg = false;
    scale;
    variant = Config.Base;
    nprocs = 1;
    clustering = 1;
    checks = false;
    smp_sync = false;
    share_directory = false;
  }

type result = {
  spec : spec;
  workload : string;
  parallel_cycles : int;
  stats : Stats.t;
  per_proc : Stats.t array;
  local_msgs : int;
  remote_msgs : int;
  downgrade_msgs : int;
  verdict : App.verdict;
}

(* The memo cache is read and filled from the coordinating domain and —
   during [run_batch] — observed while worker domains execute misses, so
   every access goes through [cache_mutex]. Results themselves are
   immutable once constructed. *)
let cache : (spec, result) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()
let with_cache f = Mutex.protect cache_mutex f

(* Cumulative parallel cycles over every run actually executed (cache
   misses only), so callers can attribute simulated work to a span of
   host time by differencing. Atomic: executions may happen on worker
   domains. *)
let executed_cycles = Atomic.make 0
let simulated_cycles () = Atomic.get executed_cycles

(* Cumulative inline-check counters over executed runs, mirroring
   [executed_cycles]: the bench JSON derives its fused-hit rate from a
   difference across a target's span. *)
let executed_checks = Atomic.make 0
let executed_fast_hits = Atomic.make 0
let fastpath_totals () =
  (Atomic.get executed_checks, Atomic.get executed_fast_hits)

(* Cumulative crash-fault counters over executed runs, same differencing
   discipline: the bench JSON reports how many node crashes a target's
   runs absorbed and the virtual cycles its recoveries charged. Both stay
   zero unless a run schedules crash events. *)
let executed_crashes = Atomic.make 0
let executed_recovery_cycles = Atomic.make 0
let crash_totals () =
  (Atomic.get executed_crashes, Atomic.get executed_recovery_cycles)

(* Global metrics aggregate over every traced run (SHASTA_TRACE=1).
   Filled under [metrics_mutex] as worker domains complete; merging is
   commutative, so the aggregate is independent of the jobs count and
   completion order. *)
let metrics_mutex = Mutex.create ()
let metrics_agg = Shasta_trace.Metrics.create ()
let metrics_runs = Atomic.make 0

let traced_runs () = Atomic.get metrics_runs

let metrics_snapshot () =
  Mutex.protect metrics_mutex (fun () ->
      let copy = Shasta_trace.Metrics.create () in
      Shasta_trace.Metrics.merge_into ~into:copy metrics_agg;
      copy)

let execute spec =
  let maker = Shasta_apps.Registry.find spec.app in
  let inst = maker ~vg:spec.vg ~scale:spec.scale () in
  let heap = max (1 lsl 22) inst.App.heap_bytes in
  (* Round up to a page multiple. *)
  let heap = (heap + 4095) / 4096 * 4096 in
  let cfg =
    Config.create ~variant:spec.variant ~nprocs:spec.nprocs
      ~clustering:spec.clustering ~checks_enabled:spec.checks ~heap_bytes:heap
      ~smp_sync:spec.smp_sync ~share_directory:spec.share_directory ()
  in
  let h = Dsm.create cfg in
  (* SHASTA_SANITIZE=1 attaches the online invariant sanitizer (and =2
     additionally the happens-before race detector) to every experiment
     run; Config.create reads the variable when [?sanitize] is omitted.
     A violation or race fails the run like a verification failure. *)
  let san =
    if cfg.Config.sanitize > 0 then Some (Shasta_check.Sanitizer.attach (Dsm.machine h))
    else None
  in
  let rd =
    if cfg.Config.sanitize > 1 then Some (Shasta_check.Races.attach (Dsm.machine h))
    else None
  in
  (* SHASTA_TRACE=1 attaches the metrics observer; per-run instances
     merge into the global aggregate below. Cycle-neutral, like every
     observer. *)
  let mx =
    if cfg.Config.trace > 0 then
      Some (Shasta_trace.Metrics.attach (Dsm.machine h))
    else None
  in
  (* SHASTA_CKPT=N (virtual cycles, N > 0) attaches the checkpointing
     observer so experiment runs pay its logging overhead; with the knob
     off no observer is installed and simulated time is bit-identical. *)
  if cfg.Config.ckpt > 0 then
    ignore (Shasta_recover.Checkpoint.attach (Dsm.machine h)
              ~interval:cfg.Config.ckpt);
  let body, verify = inst.App.setup h in
  Dsm.run h body;
  (match mx with
  | Some mx ->
    Atomic.incr metrics_runs;
    Mutex.protect metrics_mutex (fun () ->
        Shasta_trace.Metrics.merge_into ~into:metrics_agg mx)
  | None -> ());
  (match san with
  | Some san when Shasta_check.Sanitizer.violation_count san > 0 ->
    failwith
      (Printf.sprintf "experiment run violated protocol invariants: %s (%s)"
         spec.app
         (String.concat "; "
            (List.map Shasta_core.Inspect.describe
               (Shasta_check.Sanitizer.violations san))))
  | _ -> ());
  (match rd with
  | Some rd when Shasta_check.Races.race_count rd > 0 ->
    failwith
      (Printf.sprintf "experiment run raced: %s (%s)" spec.app
         (String.concat "; "
            (List.map Shasta_check.Races.describe
               (Shasta_check.Races.races rd))))
  | _ -> ());
  let verdict = verify h in
  if not verdict.App.ok then
    failwith
      (Printf.sprintf "experiment run failed verification: %s (%s)" spec.app
         verdict.App.detail);
  let downgrade_msgs = Dsm.downgrade_messages h in
  ignore (Atomic.fetch_and_add executed_cycles (Dsm.parallel_cycles h));
  (let agg = Dsm.aggregate_stats h in
   ignore (Atomic.fetch_and_add executed_checks agg.Shasta_core.Stats.checks);
   ignore
     (Atomic.fetch_and_add executed_fast_hits
        agg.Shasta_core.Stats.fast_hits));
  (let m = Dsm.machine h in
   ignore (Atomic.fetch_and_add executed_crashes m.Shasta_core.Machine.crashes);
   ignore
     (Atomic.fetch_and_add executed_recovery_cycles
        m.Shasta_core.Machine.recovery_cycles));
  {
    spec;
    workload = inst.App.workload;
    parallel_cycles = Dsm.parallel_cycles h;
    stats = Dsm.aggregate_stats h;
    per_proc = Dsm.proc_stats h;
    local_msgs = Dsm.messages_local h - downgrade_msgs;
    remote_msgs = Dsm.messages_remote h;
    downgrade_msgs;
    verdict;
  }

let run spec =
  match with_cache (fun () -> Hashtbl.find_opt cache spec) with
  | Some r -> r
  | None ->
    let r = execute spec in
    with_cache (fun () -> Hashtbl.replace cache spec r);
    r

(* Batch execution: dedupe the request list against itself and the
   cache, execute the misses on a domain pool, publish under the mutex.
   Per-spec once-semantics holds because (a) duplicates within the batch
   are collapsed here, and (b) batches and [run] are issued sequentially
   by the coordinating domain, so a spec cached by an earlier batch is
   filtered out before any worker sees the later one. Each [execute] is
   self-contained (fresh machine, no cross-run state — DESIGN.md §3c),
   and its result is independent of which domain runs it, so the cache
   contents — and everything rendered from them — are identical to
   [jobs = 1] in-place execution. *)
let run_batch ?jobs specs =
  let jobs = match jobs with Some j -> j | None -> Shasta_util.Pool.default_jobs () in
  let misses =
    with_cache (fun () ->
        let seen = Hashtbl.create 64 in
        List.filter
          (fun spec ->
            if Hashtbl.mem cache spec || Hashtbl.mem seen spec then false
            else begin
              Hashtbl.add seen spec ();
              true
            end)
          specs)
  in
  if misses <> [] then
    Shasta_util.Pool.with_pool ~jobs (fun pool ->
        misses
        |> List.map (fun spec ->
               Shasta_util.Pool.submit pool (fun () ->
                   let r = execute spec in
                   with_cache (fun () -> Hashtbl.replace cache spec r)))
        |> List.iter Shasta_util.Pool.await)

let seconds cycles = float_of_int cycles /. 3.0e8

let speedup spec =
  let seq = run (sequential ~scale:spec.scale spec.app) in
  let par = run spec in
  float_of_int seq.parallel_cycles /. float_of_int par.parallel_cycles

let cache_size () = with_cache (fun () -> Hashtbl.length cache)

let fastpath_by_app () =
  let tbl = Hashtbl.create 16 in
  with_cache (fun () ->
      Hashtbl.iter
        (fun spec r ->
          let st = r.stats in
          let c, fh, a, pa =
            match Hashtbl.find_opt tbl spec.app with
            | Some t -> t
            | None -> (0, 0, 0, 0)
          in
          Hashtbl.replace tbl spec.app
            ( c + st.Shasta_core.Stats.checks,
              fh + st.Shasta_core.Stats.fast_hits,
              a + st.Shasta_core.Stats.accesses,
              pa + st.Shasta_core.Stats.prog_accesses ))
        cache);
  Hashtbl.fold (fun app t acc -> (app, t) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
