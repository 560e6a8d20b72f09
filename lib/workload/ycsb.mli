(** YCSB-style traffic generator over the DSM-backed KV store
    ({!Shasta_apps.Kv}).

    A {!spec} fully determines a run: the standard workload mixes A-F,
    a key-popularity distribution ({!Sampler}), record/op counts and a
    machine shape. Every processor draws its own deterministic op
    stream from seeded samplers, so a run is reproducible per seed and
    — like every simulation here — bit-identical in virtual time
    whatever the host scheduling.

    Measurement is per {e op class} (read / update / rmw / insert /
    scan): each op's latency (cycles between entering and leaving the
    op, timed with [Dsm.now]) lands in a per-processor histogram, and
    every protocol message is attributed via an [on_send] hook to the
    class its sending processor is currently executing — hooks charge
    no cycles, so measuring is free. Per-processor series are merged in
    pid order after the run, keeping results independent of host
    scheduling.

    Correctness is checked like the registered apps: a host shadow copy
    is maintained inside the same bucket critical sections (per-key
    sequential consistency: every read must return the last value
    written in lock order, and the final table must equal the shadow),
    and [SHASTA_SANITIZE] attaches the sanitizer / race detector
    exactly as the experiment runner does. *)

module Histogram := Shasta_util.Histogram

type mix = A | B | C | D | E | F

val mix_of_string : string -> mix option
val mix_to_string : mix -> string

val mix_describe : mix -> string
(** E.g. ["50% read / 50% update"]. *)

type op_class = Read | Update | Rmw | Insert | Scan | Other

val class_name : op_class -> string

val class_order : op_class list
(** Fixed rendering/merge order. [Other] holds messages a processor
    sends while outside any op; it never counts ops. *)

type spec = {
  mix : mix;
  records : int;  (** preloaded keys, >= 2 *)
  ops : int;  (** total ops, split round-robin over processors *)
  dist : Sampler.dist;
  theta : float;
  scan_max : int;  (** scan length is uniform in [1, scan_max] *)
  variant : Shasta_core.Config.variant;
  nprocs : int;
  clustering : int;
  seed : int;
  progs : bool;
      (** compile get/put/rmw probes to checked access programs when the
          mix allows it (no inserts); cycle-identical to the closure
          path *)
}

val spec :
  ?mix:mix ->
  ?records:int ->
  ?ops:int ->
  ?dist:Sampler.dist ->
  ?theta:float ->
  ?scan_max:int ->
  ?variant:Shasta_core.Config.variant ->
  ?nprocs:int ->
  ?clustering:int ->
  ?seed:int ->
  ?progs:bool ->
  unit ->
  spec
(** Defaults: workload A, 10_000 records, 40_000 ops, zipfian 0.99,
    scan_max 16, Smp 16 processors clustered 4, seed 42, progs on. *)

type class_stats = {
  cls : op_class;
  count : int;  (** ops completed (scan = one op) *)
  latency : Histogram.t;  (** per-op cycles *)
  msgs : int;  (** protocol messages attributed to the class *)
}

type result = {
  spec : spec;
  nbuckets : int;
  bcap : int;
  compiled : bool;  (** the access-program path was used *)
  parallel_cycles : int;
  remote_msgs : int;
  local_msgs : int;  (** excluding downgrades *)
  downgrade_msgs : int;
  dropped_inserts : int;  (** full-bucket inserts (deterministic) *)
  classes : class_stats list;  (** classes with activity, in order *)
  oracle_ok : bool;
  oracle : string;
}

val run : spec -> result
(** Execute the run. Raises [Failure] on a sanitizer violation or a
    detected race (like the experiment runner); an oracle failure is
    reported in [oracle_ok]/[oracle] instead so callers can render the
    result before failing. *)

val render : result -> string
(** The per-op-class table (count, p50/p99/p999 latency cycles,
    messages/op) plus totals — virtual-time quantities only, so the
    output is bit-identical across host runs. A class with no ops
    prints [-] as its messages/op. *)

val totals :
  unit -> (int * (op_class * int * Histogram.t * int) list) option
(** [(runs, per-class (ops, merged latency, msgs))] aggregated over
    every {!run} in this process; [None] before the first. Guarded for
    concurrent runs. *)

val totals_json : unit -> string option
(** The aggregate as a JSON object (per class: ops, p50/p99/p999,
    msgs_per_op) for [bench --json]. [msgs_per_op] is [null] for a
    class with no ops. *)

val msgs_per_op : ops:int -> msgs:int -> float option
(** [msgs / ops], or [None] when [ops = 0]. *)
