(** Public API of the simulated Shasta distributed shared memory.

    Usage is in two phases. In the {e setup phase}, create a machine from
    a {!Config.t} and allocate shared data, locks and barriers. In the
    {e parallel phase}, {!run} executes one body per simulated processor;
    the body accesses shared memory through the checked [load]/[store]
    operations (each of which performs the inline access-control check of
    the real system, charging its cycle cost, and drops into the
    coherence protocol on a miss), synchronizes with locks and barriers,
    and models local computation with {!compute}.

    All values live in the simulated shared heap as 8-byte cells (floats
    or 63-bit integers); addresses are byte offsets and must be 8-byte
    aligned. *)

type handle
(** A configured machine (setup phase + post-run inspection). *)

val create : Config.t -> handle
val config : handle -> Config.t
val machine : handle -> Machine.t

(** {1 Setup phase} *)

val alloc : handle -> ?block_size:int -> ?home:int -> int -> int
(** Allocate bytes of shared memory; see {!Machine.alloc}. *)

val alloc_floats : handle -> ?block_size:int -> ?home:int -> int -> int
(** Allocate an array of [n] 8-byte cells; element [i] lives at
    [base + 8*i]. *)

val place : handle -> addr:int -> len:int -> proc:int -> unit
(** Home-placement optimization; see {!Machine.place}. *)

val alloc_lock : handle -> int
val alloc_barrier : handle -> int

val add_observer : handle -> Observer.t -> unit
(** Install analysis hooks ({!Machine.add_observer}) before {!run}. *)

val poke_float : handle -> int -> float -> unit
(** Setup phase: write an initial value directly into the home node's
    copy (data is born initialized at its home, so the parallel phase
    starts with the cold-miss behaviour of the real system). *)

val poke_int : handle -> int -> int -> unit

(** {1 Parallel phase} *)

type ctx

val run :
  ?run_ahead:bool ->
  ?events:(int * (kill:(int -> unit) -> now:int -> unit)) list ->
  ?choose:(int array -> int) ->
  handle ->
  (ctx -> unit) ->
  unit
(** Execute the body on every simulated processor and drain the
    protocol. May be called once per handle. [run_ahead] (default
    [true]) enables the slack-based run-ahead scheduler; disabling it
    forces a full scheduler round-trip at every charged scheduling
    point, which must produce the identical simulation. The run is
    scheduled on the calling domain.

    [events] schedules virtual-time callbacks — the crash-injection
    surface, see {!Shasta_sim.Engine.run} and {!Shasta_recover.Crash}.
    Each [(at, f)] fires once, at a scheduler decision point, before
    any processor executes at or past cycle [at]; [f] may kill
    processors and mutate machine state atomically. Passing [[]]
    (the default) is bit-identical to the previous behaviour.

    [choose] runs under an external scheduler, for the litmus model
    checker and the schedule fuzzer: run-ahead is disabled, every
    scheduling point performs, and at each one [choose] picks the next
    processor from the runnable set (sorted by virtual time, ties by
    pid — index 0 reproduces the default schedule). Accesses then take
    the reference per-access path, so every scheduling point is a
    decision. See {!Shasta_sim.Engine.run}. *)

val pid : ctx -> int
val nprocs : ctx -> int
val prng : ctx -> Shasta_util.Prng.t
(** Per-processor deterministic random stream. *)

val now : ctx -> int
(** This processor's current virtual cycle clock. *)

val compute : ctx -> int -> unit
(** Model [n] cycles of local computation (includes a loop-backedge poll
    at the configured interval). *)

val load_float : ctx -> int -> float
val store_float : ctx -> int -> float -> unit

val load_int : ctx -> int -> int
val store_int : ctx -> int -> int -> unit

(** {1 Batched access (§3.4.4)}

    [batch ctx ranges f] performs one combined check for all the (addr,
    len, access) ranges, then runs [f], inside which the [Batch] raw
    operations may touch exactly those ranges without further checks. *)

type access = R | W

val batch : ctx -> (int * int * access) list -> (unit -> 'a) -> 'a

module Batch : sig
  val load_float : ctx -> int -> float
  val store_float : ctx -> int -> float -> unit
  val load_int : ctx -> int -> int
  val store_int : ctx -> int -> int -> unit
end

(** {1 Access programs}

    A hot per-block access sequence compiled once into a flat int array
    and interpreted in a tight loop — the §3.4.1 batched-check idea
    applied to the simulator's own hot path, replacing per-access
    closure dispatch. A program is {e raw} (uses {!instr.Ldf}/[Stf];
    must run inside a {!batch} whose ranges cover every address it
    touches) or {e checked} (uses [Cldf]/[Cstf]; runs outside batches,
    each access going through the ordinary checked load/store); mixing
    both in one program is rejected at {!compile} time. The
    interpretation is cycle-identical to the equivalent closure
    formulation: with an observer installed every op charges and fires
    its hook individually; without one a raw program's cycles are
    charged in a single fused charge at the end (same total and finish
    time; a [Cycle_limit] that would have fired mid-program fires at the
    program's end clock). Programs are per-processor scratch (they carry
    a register file) — build one per [ctx], not shared across bodies. *)
module Prog : sig
  type instr =
    | Ldf of int * int * int
        (** [Ldf (r, b, off)]: reg [r] <- raw in-batch float load at
            base [b] + byte offset [off] ([b] selects [base0..base2] of
            {!run}) *)
    | Stf of int * int * int  (** raw in-batch float store of reg [r] *)
    | Cldf of int * int * int  (** checked float load (outside batch) *)
    | Cstf of int * int * int  (** checked float store *)
    | Fms of int * int
        (** [Fms (a, b)]: [r(a) <- r(a) -. s *. r(b)] with {!run}'s
            scalar [s] *)
    | Add of int * int * int  (** [r(a) <- r(b) +. r(c)] *)
    | Sub of int * int * int  (** [r(a) <- r(b) -. r(c)] *)
    | Mul of int * int * int  (** [r(a) <- r(b) *. r(c)] *)
    | Mulk of int * int * int  (** [r(a) <- r(b) *. consts.(k)] *)
    | Movk of int * int  (** [r(a) <- consts.(k)] *)
    | Auxld of int * int  (** [r(a) <- aux.(i)] from {!run}'s scratch *)
    | Auxst of int * int  (** [aux.(i) <- r(a)] *)
    | Wrap of int * int
        (** [Wrap (a, k)]: periodic wrap of [r(a)] into
            [\[0, consts.(k))] — adds or subtracts one period, the
            water-kernel boundary condition *)
    | Charge of int  (** model [n] cycles of local computation *)

  type t

  exception Prog_violation of { op : string; pc : int; detail : string }
  (** An impossible program configuration reached during interpretation
      or decoding (e.g. an unknown opcode in a hand-forged code array) —
      the access-program counterpart of [Protocol.Protocol_violation].
      [pc] is the instruction index (code offset / 4). *)

  val compile : ?consts:float array -> nregs:int -> instr list -> t
  (** Validate and flatten a program. Raises [Invalid_argument] on a
      register/base/constant index out of range or a program mixing raw
      and checked accesses. *)

  val decode : t -> instr list
  (** Recover the instruction list a program was compiled from
      ([compile] is a bijection up to the flat encoding) — the input to
      the static verifier. Raises {!Prog_violation} on an unknown
      opcode. *)

  val nregs : t -> int
  val consts : t -> float array
  val uses_raw : t -> bool
  val uses_checked : t -> bool

  val no_aux : float array
  (** Empty scratch array for programs without [Auxld]/[Auxst]. *)

  val fms_row : len:int -> cost:int -> t
  (** The daxpy row kernel [dst.(c) <- dst.(c) -. s *. src.(c)] for
      [c] in [0, len), charging [cost] cycles of compute per element —
      ops emitted in the evaluation order of the closure formulation
      (src load, dst load, multiply-subtract, dst store, charge). *)

  val run :
    ctx -> t -> s:float -> aux:float array -> base0:int -> base1:int ->
    base2:int -> unit
  (** Interpret a program with scalar [s], host-side scratch [aux]
      (pass {!no_aux} when unused) and the three base addresses bound
      ([base0] = dst row, [base1] = src row for {!fms_row}; unused bases
      may be [0]). A raw program must run inside a {!batch} whose ranges
      cover every address it touches; a checked program must run outside
      any batch. *)
end

(** {1 Synchronization} *)

val lock : ctx -> int -> unit
val unlock : ctx -> int -> unit
val barrier : ctx -> int -> unit

(** {1 Post-run results} *)

val parallel_cycles : handle -> int
(** Wall-clock of the parallel phase: max over processors of the cycle
    count when the body returned. *)

val proc_stats : handle -> Stats.t array
val aggregate_stats : handle -> Stats.t

val peek_float : handle -> int -> float
(** Post-run: read a value from a currently valid copy (owner-preferred)
    without going through any protocol — for result verification. *)

val peek_int : handle -> int -> int

val messages_local : handle -> int
(** Intra-node protocol messages sent, including downgrades. *)

val messages_remote : handle -> int
val downgrade_messages : handle -> int

val sched_counts : handle -> int * int
(** (performed, elided) yield-effect counts of this handle's {!run} —
    the per-run scheduler observability of {!Shasta_sim.Engine.outcome}.
    [(0, 0)] before [run]. *)
