(* The benchmark's workloads, driven through the simulator's public
   layers with every call timed from outside the library.

   Figure 3 runs go Registry -> App.setup -> Dsm.run -> verify in
   Runner.execute's order, but without Runner's process-lifetime memo
   cache: a repeated spec in one process would otherwise time a cache
   hit. check_harness.ml checks that this harness reproduces Runner.run. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module Msg = Shasta_core.Msg
module App = Shasta_apps.App
module Kv = Shasta_apps.Kv
module Registry = Shasta_apps.Registry
module Runner = Shasta_experiments.Runner
module Ycsb = Shasta_workload.Ycsb
module Sampler = Shasta_workload.Sampler
module Histogram = Shasta_util.Histogram

let now = Unix.gettimeofday

(* Every environment knob the library reads, pinned before the first
   Config.create: one scheduler shard and one job, tracing, sanitizing
   and checkpointing off, the fused fast path on (their defaults).
   Shards are pinned here rather than through Config.create's [~shards]
   so the benchmark keeps working once that argument goes away. *)
let pinned_env =
  [
    ("SHASTA_SHARDS", "1");
    ("SHASTA_JOBS", "1");
    ("SHASTA_TRACE", "0");
    ("SHASTA_SANITIZE", "0");
    ("SHASTA_CKPT", "0");
    ("SHASTA_FASTPATH", "1");
  ]

let pin_env () = List.iter (fun (k, v) -> Unix.putenv k v) pinned_env

(* The values the library actually resolved from the pinned environment. *)
let effective_env () =
  let c = Config.create () in
  [
    ("shards", string_of_int c.Config.shards);
    ("jobs", string_of_int (Shasta_util.Pool.default_jobs ()));
    ("trace", string_of_int c.Config.trace);
    ("sanitize", string_of_int c.Config.sanitize);
    ("ckpt", string_of_int c.Config.ckpt);
    ("fastpath", string_of_bool c.Config.fastpath);
  ]

type workload = Fig3_smp | Fig3_base | Ycsb_a

let workloads =
  [ ("fig3-smp", Fig3_smp); ("fig3-base", Fig3_base); ("ycsb-a", Ycsb_a) ]

let workload_of_string s = List.assoc_opt s workloads
let default_seed = 42

(* Quick Figure 3: half the default problem scale. *)
let scale = 0.5

(* One protocol row of quick Figure 3 with every app's sequential
   baseline, in Exp_speedup's order. The two rows together are exactly
   the quick fig3 target. *)
let fig3_specs variant =
  List.filter
    (fun (s : Runner.spec) -> (not s.Runner.checks) || s.Runner.variant = variant)
    (Shasta_experiments.Exp_speedup.specs ~scale ())

let label (s : Runner.spec) =
  if not s.Runner.checks then s.Runner.app ^ "/seq"
  else
    match s.Runner.variant with
    | Config.Base -> Printf.sprintf "%s/base-%d" s.Runner.app s.Runner.nprocs
    | Config.Smp ->
      Printf.sprintf "%s/smp-%dx%d" s.Runner.app s.Runner.nprocs
        s.Runner.clustering

(* One executed Figure 3 spec: host spans of each layer call and the
   simulated results. *)
type run = {
  spec : Runner.spec;
  registry_s : float;  (** Registry.find + the app's maker *)
  create_s : float;  (** Config.create + Dsm.create *)
  app_setup_s : float;  (** App.setup: allocate and initialize shared data *)
  run_s : float;  (** Dsm.run *)
  verify_s : float;  (** the app's result verifier *)
  cycles : int;
  stats : Stats.t;
  local_msgs : int;  (** intra-node, excluding downgrades *)
  remote_msgs : int;
  downgrade_msgs : int;
  switches : int;  (** performed scheduler yields *)
  elided : int;  (** yields elided by run-ahead *)
  verdict : App.verdict;
}

let execute ?(observe = fun (_ : Dsm.handle) -> ()) ~seed (spec : Runner.spec)
    =
  let t0 = now () in
  let maker = Registry.find spec.Runner.app in
  let inst = maker ~vg:spec.Runner.vg ~scale:spec.Runner.scale () in
  let t1 = now () in
  let heap = max (1 lsl 22) inst.App.heap_bytes in
  let heap = (heap + 4095) / 4096 * 4096 in
  let cfg =
    Config.create ~variant:spec.Runner.variant ~nprocs:spec.Runner.nprocs
      ~clustering:spec.Runner.clustering ~checks_enabled:spec.Runner.checks
      ~heap_bytes:heap ~smp_sync:spec.Runner.smp_sync
      ~share_directory:spec.Runner.share_directory ~seed ()
  in
  let h = Dsm.create cfg in
  let t2 = now () in
  observe h;
  let body, verify = inst.App.setup h in
  let t3 = now () in
  Dsm.run h body;
  let t4 = now () in
  let verdict = verify h in
  let t5 = now () in
  let downgrade_msgs = Dsm.downgrade_messages h in
  let switches, elided = Dsm.sched_counts h in
  {
    spec;
    registry_s = t1 -. t0;
    create_s = t2 -. t1;
    app_setup_s = t3 -. t2;
    run_s = t4 -. t3;
    verify_s = t5 -. t4;
    cycles = Dsm.parallel_cycles h;
    stats = Dsm.aggregate_stats h;
    local_msgs = Dsm.messages_local h - downgrade_msgs;
    remote_msgs = Dsm.messages_remote h;
    downgrade_msgs;
    switches;
    elided;
    verdict;
  }

(* Every Stats counter as a flat name -> value list, for equality checks
   and the benchmark's output. *)
let stats_fields (st : Stats.t) =
  let miss kind three_hop =
    Stats.miss_count st { Stats.kind; three_hop }
  in
  let kinds = [ (Msg.Read, "read"); (Msg.Readex, "readex"); (Msg.Upgrade, "upgrade") ] in
  List.map
    (fun c -> ("cycles_" ^ Stats.category_name c, Stats.cycles st c))
    Stats.categories
  @ List.concat_map
      (fun (k, n) ->
        [ ("misses_" ^ n ^ "_2hop", miss k false); ("misses_" ^ n ^ "_3hop", miss k true) ])
      kinds
  @ [
      ("private_upgrades", st.Stats.private_upgrades);
      ("false_misses", st.Stats.false_misses);
      ("read_latency_cycles", st.Stats.read_latency_cycles);
      ("read_latency_count", st.Stats.read_latency_count);
      ("downgrades_sent", st.Stats.downgrades_sent);
      ("checks", st.Stats.checks);
      ("fast_hits", st.Stats.fast_hits);
      ("accesses", st.Stats.accesses);
      ("prog_accesses", st.Stats.prog_accesses);
    ]
  @ List.map
      (fun k ->
        (Printf.sprintf "downgrade_events_%d" k,
         Histogram.count st.Stats.downgrade_events k))
      (Histogram.keys st.Stats.downgrade_events)

(* YCSB workload A on the KV store: zipfian 0.99 keys, SMP-Shasta with
   16 processors in 4-processor nodes, compiled access programs. *)
let ycsb_records = 6_000
let ycsb_ops = 24_000

let ycsb_spec ~seed =
  Ycsb.spec ~mix:Ycsb.A ~records:ycsb_records ~ops:ycsb_ops
    ~dist:Sampler.Zipfian ~theta:0.99 ~variant:Config.Smp ~nprocs:16
    ~clustering:4 ~seed ~progs:true ()

(* The set-up half of Ycsb.run (Config.create + Dsm.create + Kv.create
   with its table geometry), which Ycsb.run does not expose on its own.
   Returns the seconds spent in Config.create + Dsm.create and in
   Kv.create, and the table geometry, which the caller checks against
   the run's result so a drift from Ycsb.run shows. *)
let ycsb_setup (spec : Ycsb.spec) =
  let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2) in
  let t0 = now () in
  let records = spec.Ycsb.records in
  let nbuckets = next_pow2 (max 16 (records / 6)) 16 in
  let slack = 2 in
  let plan = Kv.plan ~slack ~nbuckets ~records () in
  let heap = plan.Kv.bytes + (1 lsl 16) in
  let heap = max (1 lsl 22) ((heap + 4095) / 4096 * 4096) in
  let cfg =
    Config.create ~variant:spec.Ycsb.variant ~nprocs:spec.Ycsb.nprocs
      ~clustering:spec.Ycsb.clustering ~heap_bytes:heap ~seed:spec.Ycsb.seed ()
  in
  let h = Dsm.create cfg in
  let t1 = now () in
  let t =
    Kv.create h ~slack ~nbuckets ~records ~extra_keys:0
      ~value0:(fun k -> float_of_int ((k * 7) + 3))
      ()
  in
  (t1 -. t0, now () -. t1, Kv.nbuckets t, Kv.bcap t)
