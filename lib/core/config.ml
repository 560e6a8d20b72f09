type variant = Base | Smp
type fault = Skip_private_downgrade | Skip_flag_stamp

(* SHASTA_SANITIZE is read once per [create] so the toggle works on any
   harness that builds its configs after the environment is set (the
   bench harness, the experiment runner, the CLI). *)
let env_sanitize () =
  match Sys.getenv_opt "SHASTA_SANITIZE" with
  | None | Some "" | Some "0" -> 0
  | Some "1" -> 1
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> 2 | _ -> 1)

(* SHASTA_TRACE follows the same once-per-[create] discipline. *)
let env_trace () =
  match Sys.getenv_opt "SHASTA_TRACE" with
  | None | Some "" | Some "0" -> 0
  | Some _ -> 1

(* SHASTA_FASTPATH gates the fused inline-check fast path; it defaults
   to on and exists so CI can diff fast-path vs. reference runs
   byte-for-byte. *)
let env_fastpath () =
  match Sys.getenv_opt "SHASTA_FASTPATH" with
  | Some "0" -> false
  | None | Some _ -> true

(* SHASTA_CKPT: checkpoint interval in simulated cycles, 0 (the default)
   means checkpointing off. *)
let env_ckpt () =
  match Sys.getenv_opt "SHASTA_CKPT" with
  | None | Some "" | Some "0" -> 0
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg "SHASTA_CKPT: expected 0|interval>=1")

type t = {
  variant : variant;
  nprocs : int;
  procs_per_node : int;
  clustering : int;
  line_size : int;
  heap_bytes : int;
  checks_enabled : bool;
  timing : Timing.t;
  link : Shasta_net.Link.t;
  max_cycles : int;
  seed : int;
  smp_sync : bool;
  share_directory : bool;
  sanitize : int;
  trace : int;
  shards : int;
  fastpath : bool;
  ckpt : int;
  fault : fault option;
}

let create ?(variant = Base) ?(nprocs = 1) ?(procs_per_node = 4)
    ?(clustering = 1) ?(line_size = 64) ?(heap_bytes = 8 * 1024 * 1024)
    ?(checks_enabled = true) ?(timing = Timing.default)
    ?(link = Shasta_net.Link.default) ?(max_cycles = 2_000_000_000)
    ?(seed = 42) ?(smp_sync = false) ?(share_directory = false)
    ?sanitize ?trace ?fastpath ?ckpt ?fault () =
  let sanitize =
    match sanitize with Some s -> max 0 s | None -> env_sanitize ()
  in
  let trace = match trace with Some v -> max 0 v | None -> env_trace () in
  let fastpath =
    match fastpath with Some b -> b | None -> env_fastpath ()
  in
  let ckpt = match ckpt with Some n -> max 0 n | None -> env_ckpt () in
  if nprocs <= 0 then invalid_arg "Config.create: nprocs";
  if procs_per_node <= 0 then invalid_arg "Config.create: procs_per_node";
  if clustering <= 0 then invalid_arg "Config.create: clustering";
  (match variant with
  | Base ->
    if clustering <> 1 then
      invalid_arg "Config.create: Base-Shasta requires clustering = 1"
  | Smp ->
    if procs_per_node mod clustering <> 0 then
      invalid_arg "Config.create: clustering must divide procs_per_node");
  {
    variant;
    nprocs;
    procs_per_node;
    clustering;
    line_size;
    heap_bytes;
    checks_enabled;
    timing;
    link;
    max_cycles;
    seed;
    smp_sync;
    share_directory;
    sanitize;
    trace;
    shards = 1;
    fastpath;
    ckpt;
    fault;
  }

let nnodes t = (t.nprocs + t.clustering - 1) / t.clustering
let node_of_proc t p = p / t.clustering

let procs_of_node t n =
  let lo = n * t.clustering in
  let hi = min t.nprocs (lo + t.clustering) - 1 in
  List.init (hi - lo + 1) (fun i -> lo + i)
