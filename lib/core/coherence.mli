(** The per-block coherence handlers, defined once.

    Directory service (read / read-exclusive / upgrade requests and the
    busy-queue drain), sharing writebacks and ownership acks, forwarded
    requests and invalidations, the §3.4.3 intra-node downgrade (start,
    sibling acks, the deferred action), data and upgrade replies,
    invalidation acks and miss-entry completion — written over a
    {!SUBSTRATE} that supplies the state they read and write.

    {!Protocol} instantiates {!Make} over the simulated {!Machine} (cycle
    charges, statistics, node images, observer hooks, the network);
    [Shasta_verify.Model] instantiates it over its abstract 2x2 state, so
    the model checker explores exactly the handlers the simulator runs.
    Synchronization traffic (locks, barriers) is not per-block state and
    stays in {!Protocol}. *)

val rank : Shasta_mem.State_table.base -> int
(** Invalid 0 < Shared 1 < Exclusive 2. *)

val coherence_tags : int
(** 13: the coherence messages are {!Msg} tags [0 .. coherence_tags - 1];
    the rest are synchronization traffic. *)

val branches : string list
(** Every branch label the handlers report through {!SUBSTRATE.branch},
    in handler order: ["msg:<tag>"] for each coherence message tag, then
    one label per handler branch. *)

(** What the handlers need from the system they run in. A [ctx] names
    the processor executing a handler; every block-taking operation
    concerns that processor's coherence node. *)
module type SUBSTRATE = sig
  type ctx

  (** {2 Geometry} *)

  val pid : ctx -> int
  val node : ctx -> int
  val node_of : ctx -> int -> int
  val procs_of_node : ctx -> int -> int list
  val home_of : ctx -> int -> int
  (** Home processor of a block. *)

  val fault : ctx -> Config.fault option
  (** Test-only injected protocol fault, applied by the handlers. *)

  (** {2 Costs and statistics} *)

  val smp : ctx -> bool
  (** SMP-Shasta: every coherence message also pays [smp_lock]. *)

  val timing : ctx -> Timing.t
  val charge : ctx -> int -> unit
  val record_downgrade : ctx -> int -> unit
  (** A downgrade started, sending this many sibling messages. *)

  val record_miss : ctx -> kind:Msg.req_kind -> three_hop:bool -> unit
  val record_read_latency : ctx -> start:int -> unit

  (** {2 Node state}

      The node's shared-table entry for a block, the private entries of
      its processors, and its copy of the block's data. Setters report
      their transitions to whatever observes the substrate. *)

  val base : ctx -> int -> Shasta_mem.State_table.base
  val pending : ctx -> int -> bool
  val pending_downgrade : ctx -> int -> bool
  val set_base : ctx -> int -> Shasta_mem.State_table.base -> unit
  val set_pending : ctx -> int -> bool -> unit
  val set_pending_downgrade : ctx -> int -> bool -> unit

  val private_state : ctx -> int -> int -> Shasta_mem.State_table.base
  (** [private_state ctx proc block]. *)

  val raise_private : ctx -> int -> int -> Shasta_mem.State_table.base -> unit
  (** [raise_private ctx proc block st]: never lowers. *)

  val lower_private : ctx -> int -> int -> Shasta_mem.State_table.base -> unit
  (** [lower_private ctx proc block st]: never raises. *)

  val stamp_flag : ctx -> int -> unit
  (** Write the invalid-flag pattern over the node's copy (or defer it
      behind an active batch). *)

  val bump_epoch : ctx -> unit
  (** The node downgraded some block (batch replay detection). *)

  val snapshot : ctx -> int -> Bytes.t
  (** The node's copy of a block, for a data reply. *)

  val apply_data : ctx -> int -> Miss_table.entry -> Bytes.t -> unit
  (** Install reply data for the entry's block, around the entry's
      merged store ranges. *)

  (** {2 Protocol entries} *)

  val dir_entry : ctx -> int -> Directory.entry
  (** The block's directory entry at its home. *)

  val find_miss : ctx -> int -> Miss_table.entry option
  val retire_miss : ctx -> Miss_table.entry -> unit
  (** Drop a completed miss entry. *)

  val find_downgrade : ctx -> int -> Downgrade.entry option

  val add_downgrade :
    ctx ->
    int ->
    target:Shasta_mem.State_table.base ->
    deferred:Downgrade.deferred ->
    remaining:int ->
    unit

  val remove_downgrade : ctx -> Downgrade.entry -> unit

  (** {2 Transport, hooks and failures} *)

  val transmit : ctx -> int -> Msg.t -> unit
  (** Send to another processor ([deliver] runs self-sends inline). *)

  val on_downgrade_queued : ctx -> block:int -> src:int -> Msg.t -> unit
  val on_downgrade_replay : ctx -> block:int -> src:int -> Msg.t -> unit
  val on_downgrade_ack : ctx -> block:int -> unit
  val on_downgrade_done : ctx -> block:int -> unit

  val branch : ctx -> string -> unit
  (** A handler took the named branch (one of {!branches}). *)

  val violation : ctx -> block:int -> string -> 'a
  (** An impossible protocol configuration was reached; must raise. *)
end

module Make (S : SUBSTRATE) : sig
  val deliver : S.ctx -> int -> Msg.t -> unit
  (** Send a coherence message; a self-destined one is handled inline. *)

  val handle : S.ctx -> src:int -> Msg.t -> unit
  (** Dispatch one coherence message at the processor [ctx] names,
      charging the handler's base cost. A synchronization message is a
      {!SUBSTRATE.violation}. *)
end
