module State_table = Shasta_mem.State_table
module Bitset = Shasta_util.Bitset

let rank = function
  | State_table.Invalid -> 0
  | State_table.Shared -> 1
  | State_table.Exclusive -> 2

let coherence_tags = 13
let msg_branches = Array.map (fun n -> "msg:" ^ n) Msg.tag_names

let branches =
  Array.to_list (Array.sub msg_branches 0 coherence_tags)
  @ [
      "dir.busy_queue"; "dir.upgrade_as_readex"; "dir.read.serve_shared";
      "dir.read.home_exclusive"; "dir.read.forward"; "dir.readex.home_valid";
      "dir.readex.forward"; "dir.upgrade.serve"; "dir.drain";
      "inval.inline"; "inval.queued_on_downgrade"; "inval.mark_after_reply";
      "inval.kill_current_copy"; "inval.downgrade"; "inval.stale_ack";
      "fwd.queued_on_downgrade"; "fwd.queued_on_miss"; "fwd.read.exclusive";
      "fwd.read.shared"; "fwd.readex";
      "downgrade.immediate"; "downgrade.sibling"; "downgrade.complete";
      "downgrade.replay";
      "deferred.reply_read"; "deferred.reply_readex"; "deferred.inval_done";
      "deferred.recovered";
      "entry.retire"; "entry.serve_early"; "entry.inval_after_reply";
      "entry.chain_ownership";
    ]

module type SUBSTRATE = sig
  type ctx

  val pid : ctx -> int
  val node : ctx -> int
  val node_of : ctx -> int -> int
  val procs_of_node : ctx -> int -> int list
  val home_of : ctx -> int -> int
  val fault : ctx -> Config.fault option
  val smp : ctx -> bool
  val timing : ctx -> Timing.t
  val charge : ctx -> int -> unit
  val record_downgrade : ctx -> int -> unit
  val record_miss : ctx -> kind:Msg.req_kind -> three_hop:bool -> unit
  val record_read_latency : ctx -> start:int -> unit
  val base : ctx -> int -> State_table.base
  val pending : ctx -> int -> bool
  val pending_downgrade : ctx -> int -> bool
  val set_base : ctx -> int -> State_table.base -> unit
  val set_pending : ctx -> int -> bool -> unit
  val set_pending_downgrade : ctx -> int -> bool -> unit
  val private_state : ctx -> int -> int -> State_table.base
  val raise_private : ctx -> int -> int -> State_table.base -> unit
  val lower_private : ctx -> int -> int -> State_table.base -> unit
  val stamp_flag : ctx -> int -> unit
  val bump_epoch : ctx -> unit
  val snapshot : ctx -> int -> Bytes.t
  val apply_data : ctx -> int -> Miss_table.entry -> Bytes.t -> unit
  val dir_entry : ctx -> int -> Directory.entry
  val find_miss : ctx -> int -> Miss_table.entry option
  val retire_miss : ctx -> Miss_table.entry -> unit
  val find_downgrade : ctx -> int -> Downgrade.entry option

  val add_downgrade :
    ctx ->
    int ->
    target:State_table.base ->
    deferred:Downgrade.deferred ->
    remaining:int ->
    unit

  val remove_downgrade : ctx -> Downgrade.entry -> unit
  val transmit : ctx -> int -> Msg.t -> unit
  val on_downgrade_queued : ctx -> block:int -> src:int -> Msg.t -> unit
  val on_downgrade_replay : ctx -> block:int -> src:int -> Msg.t -> unit
  val on_downgrade_ack : ctx -> block:int -> unit
  val on_downgrade_done : ctx -> block:int -> unit
  val branch : ctx -> string -> unit
  val violation : ctx -> block:int -> string -> 'a
end

module Make (S : SUBSTRATE) = struct
  let stamp_invalid ctx block =
    match S.fault ctx with
    | Some Config.Skip_flag_stamp ->
      (* Test-only fault: leave stale application data behind where the
         invalid-flag pattern belongs. *)
      ()
    | Some Config.Skip_private_downgrade | None -> S.stamp_flag ctx block

  let node_has_valid ctx block =
    S.base ctx block <> State_table.Invalid
    && (not (S.pending ctx block))
    && not (S.pending_downgrade ctx block)

  (* [deliver] runs the handler inline when the destination is this very
     processor (a processor never sends itself a message; this is the
     requester-is-home fast path of Base-Shasta), and otherwise hands
     the message to the substrate's transport. *)
  let rec deliver ctx dst msg =
    if dst = S.pid ctx then handle ctx ~src:dst msg else S.transmit ctx dst msg

  and handle ctx ~src msg =
    let t = S.timing ctx in
    S.charge ctx t.Timing.handler_base;
    if S.smp ctx then S.charge ctx t.Timing.smp_lock;
    S.branch ctx msg_branches.(Msg.tag msg);
    match msg with
    | Msg.Req { kind; block } -> handle_dir_request ctx ~src ~kind ~block
    | Msg.Fwd { kind; block; requester; inval_acks } ->
      handle_fwd ctx ~src ~kind ~block ~requester ~inval_acks msg
    | Msg.Data_reply { kind; block; data; from_home; inval_acks } ->
      handle_data_reply ctx ~kind ~block ~data ~from_home ~inval_acks
    | Msg.Upgrade_reply { block; inval_acks } ->
      handle_upgrade_reply ctx ~block ~inval_acks
    | Msg.Invalidate { block; requester } ->
      handle_invalidate ctx ~src ~block ~requester msg
    | Msg.Inval_ack { block } -> handle_inval_ack ctx ~block
    | Msg.Sharing_wb { block; new_sharer } ->
      handle_sharing_wb ctx ~block ~new_sharer
    | Msg.Own_ack { block } -> handle_own_ack ctx ~block
    | Msg.Downgrade { block; target } -> handle_downgrade_msg ctx ~block ~target
    | Msg.Lock_req _ | Msg.Lock_grant _ | Msg.Lock_release _
    | Msg.Barrier_arrive _ | Msg.Barrier_release _ ->
      S.violation ctx ~block:0
        ("synchronization message in the coherence dispatcher: "
        ^ Msg.describe msg)

  (* ---------------- Directory (home) side ---------------- *)

  and handle_dir_request ctx ~src ~kind ~block =
    S.charge ctx (S.timing ctx).Timing.handler_home;
    let e = S.dir_entry ctx block in
    if e.Directory.busy then begin
      S.branch ctx "dir.busy_queue";
      Directory.push_queued e ~src (Msg.Req { kind; block })
    end
    else serve_request ctx ~src ~kind ~block e

  and serve_request ctx ~src ~kind ~block e =
    match kind with
    | Msg.Read -> handle_read_request ctx ~src ~block e
    | Msg.Readex -> handle_readex_request ctx ~src ~block e
    | Msg.Upgrade ->
      if Bitset.mem src e.Directory.sharers then
        handle_upgrade_request ctx ~src ~block e
      else begin
        (* The requester's copy was invalidated while its upgrade was in
           flight: supply data as for a read-exclusive. *)
        S.branch ctx "dir.upgrade_as_readex";
        handle_readex_request ctx ~src ~block e
      end

  and handle_read_request ctx ~src ~block e =
    if node_has_valid ctx block then begin
      match S.base ctx block with
      | State_table.Shared ->
        (* Home has a clean copy: serve directly (2 hops). *)
        S.branch ctx "dir.read.serve_shared";
        e.Directory.sharers <-
          Bitset.add src (Bitset.add (S.pid ctx) e.Directory.sharers);
        send_data ctx ~dst:src ~kind:Msg.Read ~block ~inval_acks:0
          (S.snapshot ctx block)
      | State_table.Exclusive ->
        S.branch ctx "dir.read.home_exclusive";
        e.Directory.busy <- true;
        start_node_downgrade ctx ~block ~target:State_table.Shared
          ~deferred:(Downgrade.Reply_read { requester = src })
      | State_table.Invalid ->
        S.violation ctx ~block "read request: home node valid yet state Invalid"
    end
    else begin
      S.branch ctx "dir.read.forward";
      e.Directory.busy <- true;
      deliver ctx e.Directory.owner
        (Msg.Fwd { kind = Msg.Read; block; requester = src; inval_acks = 0 })
    end

  (* Send an invalidation to a sharer — except that a sharer on this
     very node must be invalidated inline: the home has already
     serialized the invalidating transaction, and leaving its own node's
     copy valid until a sibling polls the message would let a later
     request be served from the dead copy. *)
  and send_invalidate ctx ~block ~requester q =
    if S.node_of ctx q = S.node ctx then begin
      S.branch ctx "inval.inline";
      handle_invalidate ctx ~src:(S.pid ctx) ~block ~requester
        (Msg.Invalidate { block; requester })
    end
    else deliver ctx q (Msg.Invalidate { block; requester })

  (* Invalidate every sharer on a node other than [keep_a] and [keep_b],
     acknowledgements flowing to [requester]; returns how many were
     sent. *)
  and invalidate_sharers ctx ~block ~requester ~keep_a ~keep_b e =
    let invals =
      List.filter
        (fun q ->
          let n = S.node_of ctx q in
          n <> keep_a && n <> keep_b)
        (Bitset.elements e.Directory.sharers)
    in
    List.iter (send_invalidate ctx ~block ~requester) invals;
    List.length invals

  and handle_readex_request ctx ~src ~block e =
    if node_has_valid ctx block then begin
      (* The home node supplies the data and is itself invalidated;
         sharers on other nodes (except the requester's) are invalidated
         with acknowledgements flowing to the requester. *)
      S.branch ctx "dir.readex.home_valid";
      let acks =
        invalidate_sharers ctx ~block ~requester:src
          ~keep_a:(S.node ctx) ~keep_b:(S.node_of ctx src) e
      in
      e.Directory.owner <- src;
      e.Directory.sharers <- Bitset.singleton src;
      e.Directory.busy <- true;
      start_node_downgrade ctx ~block ~target:State_table.Invalid
        ~deferred:(Downgrade.Reply_readex { requester = src; inval_acks = acks })
    end
    else begin
      S.branch ctx "dir.readex.forward";
      let owner = e.Directory.owner in
      let acks =
        invalidate_sharers ctx ~block ~requester:src
          ~keep_a:(S.node_of ctx owner) ~keep_b:(S.node_of ctx src) e
      in
      e.Directory.owner <- src;
      e.Directory.sharers <- Bitset.singleton src;
      e.Directory.busy <- true;
      deliver ctx owner
        (Msg.Fwd { kind = Msg.Readex; block; requester = src; inval_acks = acks })
    end

  and handle_upgrade_request ctx ~src ~block e =
    S.branch ctx "dir.upgrade.serve";
    let src_node = S.node_of ctx src in
    let acks =
      invalidate_sharers ctx ~block ~requester:src ~keep_a:src_node
        ~keep_b:src_node e
    in
    e.Directory.owner <- src;
    e.Directory.sharers <- Bitset.singleton src;
    deliver ctx src (Msg.Upgrade_reply { block; inval_acks = acks })

  and drain_dir_queue ctx block =
    let e = S.dir_entry ctx block in
    let rec loop () =
      if not e.Directory.busy then
        match Directory.pop_queued e with
        | Some (src, Msg.Req { kind; block = b }) ->
          if b <> block then
            S.violation ctx ~block
              (Printf.sprintf "directory queue held a request for block %#x" b);
          S.branch ctx "dir.drain";
          serve_request ctx ~src ~kind ~block e;
          loop ()
        | Some (_, m) ->
          S.violation ctx ~block
            ("directory queue held a non-request message: " ^ Msg.describe m)
        | None -> ()
    in
    loop ()

  and handle_sharing_wb ctx ~block ~new_sharer =
    let e = S.dir_entry ctx block in
    e.Directory.sharers <-
      Bitset.add new_sharer (Bitset.add e.Directory.owner e.Directory.sharers);
    e.Directory.busy <- false;
    drain_dir_queue ctx block

  and handle_own_ack ctx ~block =
    let e = S.dir_entry ctx block in
    e.Directory.busy <- false;
    drain_dir_queue ctx block

  (* ---------------- Owner / sharer side ---------------- *)

  and send_data ctx ~dst ~kind ~block ~inval_acks data =
    let from_home = S.pid ctx = S.home_of ctx block in
    deliver ctx dst (Msg.Data_reply { kind; block; data; from_home; inval_acks })

  (* A request or invalidation landing inside an open downgrade window
     waits on the downgrade entry and replays once it completes. *)
  and queue_on_downgrade ctx ~block ~src dg msg =
    Downgrade.push_queued dg ~src msg;
    S.on_downgrade_queued ctx ~block ~src msg

  and handle_fwd ctx ~src ~kind ~block ~requester ~inval_acks msg =
    match S.find_downgrade ctx block with
    | Some dg ->
      S.branch ctx "fwd.queued_on_downgrade";
      queue_on_downgrade ctx ~block ~src dg msg
    | None -> (
      match S.find_miss ctx block with
      | Some e
        when (not e.Miss_table.data_ready)
             && S.base ctx block = State_table.Invalid ->
        (* Our data is genuinely in flight: defer until it lands. When
           the pending request is an upgrade the node still holds a
           valid (shared) copy and the forwarded request — serialized
           before our upgrade at the home — must be served immediately
           instead; deferring it would deadlock against the home's busy
           queue. *)
        S.branch ctx "fwd.queued_on_miss";
        e.Miss_table.queued_fwds <- (src, msg) :: e.Miss_table.queued_fwds
      | Some _ | None -> (
        let base = S.base ctx block in
        match kind with
        | Msg.Read -> (
          match base with
          | State_table.Exclusive ->
            S.branch ctx "fwd.read.exclusive";
            start_node_downgrade ctx ~block ~target:State_table.Shared
              ~deferred:(Downgrade.Reply_read { requester })
          | State_table.Shared ->
            S.branch ctx "fwd.read.shared";
            execute_deferred ctx ~block ~target:State_table.Shared
              ~deferred:(Downgrade.Reply_read { requester })
          | State_table.Invalid ->
            S.violation ctx ~block "read forwarded to an owner with no copy")
        | Msg.Readex ->
          if base = State_table.Invalid then
            S.violation ctx ~block "readex forwarded to an owner with no copy";
          S.branch ctx "fwd.readex";
          start_node_downgrade ctx ~block ~target:State_table.Invalid
            ~deferred:(Downgrade.Reply_readex { requester; inval_acks })
        | Msg.Upgrade ->
          S.violation ctx ~block
            "upgrade forwarded to an owner (upgrades are home-served)"))

  and handle_invalidate ctx ~src ~block ~requester msg =
    match S.find_downgrade ctx block with
    | Some dg ->
      S.branch ctx "inval.queued_on_downgrade";
      queue_on_downgrade ctx ~block ~src dg msg
    | None -> (
      match S.find_miss ctx block with
      | Some e when not e.Miss_table.data_ready ->
        (* The invalidation raced with our refetch and targets the copy
           we held when the home serialized the invalidating write —
           always before our own request. For a pure read fetch the
           reply data is therefore already stale: apply it, wake
           waiters, invalidate immediately. For an ownership fetch
           (read-exclusive, upgrade, or a read with a chained ownership
           request) the reply grants fresh exclusive ownership
           serialized after the invalidation — but the node's CURRENT
           (shared) copy must die right now, or sibling processors could
           keep reading it after the invalidating writer's release
           completes. *)
        if e.Miss_table.kind = Msg.Read then begin
          (* Applies to chained-upgrade reads too: the
             invalidation-aware apply path stamps before the chained
             ownership request picks its kind, so the chain fetches
             fresh data. *)
          S.branch ctx "inval.mark_after_reply";
          e.Miss_table.inval_after_reply <- true
        end
        else begin
          S.branch ctx "inval.kill_current_copy";
          if S.base ctx block <> State_table.Invalid then begin
            S.bump_epoch ctx;
            stamp_invalid ctx block;
            (* Privates drop before the node entry so that no observer
               (and no sibling in real memory order) ever sees a private
               entry exceeding the node's; there is no scheduling point
               in between, so the order is otherwise invisible. *)
            List.iter
              (fun q -> S.lower_private ctx q block State_table.Invalid)
              (S.procs_of_node ctx (S.node ctx));
            S.set_base ctx block State_table.Invalid
          end
        end;
        deliver ctx requester (Msg.Inval_ack { block })
      | Some _ | None -> (
        match S.base ctx block with
        | State_table.Shared | State_table.Exclusive ->
          S.branch ctx "inval.downgrade";
          start_node_downgrade ctx ~block ~target:State_table.Invalid
            ~deferred:(Downgrade.Inval_done { requester })
        | State_table.Invalid ->
          (* Stale invalidation; nothing to do but acknowledge. *)
          S.branch ctx "inval.stale_ack";
          deliver ctx requester (Msg.Inval_ack { block })))

  (* ---------------- Downgrades (§3.4.3) ---------------- *)

  and start_node_downgrade ctx ~block ~target ~deferred =
    let t = S.timing ctx in
    S.charge ctx t.Timing.downgrade_initiate;
    let me = S.pid ctx in
    let targets =
      List.filter
        (fun q -> q <> me && rank (S.private_state ctx q block) > rank target)
        (S.procs_of_node ctx (S.node ctx))
    in
    S.lower_private ctx me block target;
    let n = List.length targets in
    S.record_downgrade ctx n;
    if n = 0 then begin
      S.branch ctx "downgrade.immediate";
      execute_deferred ctx ~block ~target ~deferred
    end
    else begin
      S.branch ctx "downgrade.sibling";
      (match S.find_downgrade ctx block with
      | Some _ ->
        S.violation ctx ~block "downgrade started with one already in progress"
      | None -> ());
      S.add_downgrade ctx block ~target ~deferred ~remaining:n;
      S.set_pending_downgrade ctx block true;
      List.iter
        (fun q ->
          S.charge ctx t.Timing.downgrade_send;
          deliver ctx q (Msg.Downgrade { block; target }))
        targets
    end

  and handle_downgrade_msg ctx ~block ~target =
    S.charge ctx (S.timing ctx).Timing.handler_downgrade;
    (match S.fault ctx with
    | Some Config.Skip_private_downgrade -> ()
    | Some Config.Skip_flag_stamp | None ->
      S.lower_private ctx (S.pid ctx) block target);
    S.on_downgrade_ack ctx ~block;
    match S.find_downgrade ctx block with
    | None ->
      S.violation ctx ~block "downgrade message with no downgrade in progress"
    | Some dg ->
      dg.Downgrade.remaining <- dg.Downgrade.remaining - 1;
      if dg.Downgrade.remaining = 0 then begin
        S.branch ctx "downgrade.complete";
        S.remove_downgrade ctx dg;
        S.set_pending_downgrade ctx block false;
        execute_deferred ctx ~block ~target:dg.Downgrade.target
          ~deferred:dg.Downgrade.deferred;
        List.iter
          (fun (src, msg) ->
            S.branch ctx "downgrade.replay";
            S.on_downgrade_replay ctx ~block ~src msg;
            handle ctx ~src msg)
          (Downgrade.take_queued dg)
      end

  and execute_deferred ctx ~block ~target ~deferred =
    S.bump_epoch ctx;
    S.on_downgrade_done ctx ~block;
    (match S.find_downgrade ctx block with
    | Some _ ->
      S.violation ctx ~block "deferred action ran with a downgrade still pending"
    | None -> ());
    (* The snapshot is taken and this node's state fully downgraded
       BEFORE any message is sent: a reply to a requester on this very
       node is handled inline, and it must observe the downgraded state
       (otherwise installing its fresh copy would be undone below). *)
    match deferred with
    | Downgrade.Reply_read { requester } ->
      if target <> State_table.Shared then
        S.violation ctx ~block "read downgrade with a non-Shared target";
      S.branch ctx "deferred.reply_read";
      let data = S.snapshot ctx block in
      S.set_base ctx block State_table.Shared;
      send_data ctx ~dst:requester ~kind:Msg.Read ~block ~inval_acks:0 data;
      let home = S.home_of ctx block in
      if S.pid ctx = home then handle_sharing_wb ctx ~block ~new_sharer:requester
      else deliver ctx home (Msg.Sharing_wb { block; new_sharer = requester })
    | Downgrade.Reply_readex { requester; inval_acks } ->
      if target <> State_table.Invalid then
        S.violation ctx ~block "readex downgrade with a non-Invalid target";
      S.branch ctx "deferred.reply_readex";
      let data = S.snapshot ctx block in
      stamp_invalid ctx block;
      S.set_base ctx block State_table.Invalid;
      (* The home's busy bit is cleared by the REQUESTER's Own_ack when
         it applies this data: forwarding a later request to the new
         owner before its data has landed would let it serve stale
         bytes. *)
      send_data ctx ~dst:requester ~kind:Msg.Readex ~block ~inval_acks data
    | Downgrade.Inval_done { requester } ->
      if target <> State_table.Invalid then
        S.violation ctx ~block "inval downgrade with a non-Invalid target";
      S.branch ctx "deferred.inval_done";
      stamp_invalid ctx block;
      S.set_base ctx block State_table.Invalid;
      deliver ctx requester (Msg.Inval_ack { block })
    | Downgrade.Recovered ->
      (* The requester of the original deferred action died; recovery
         rewrote the entry. Complete the downgrade locally so the node
         state matches the already-lowered sibling private entries, and
         send nothing. *)
      S.branch ctx "deferred.recovered";
      if target = State_table.Invalid then stamp_invalid ctx block;
      S.set_base ctx block target

  (* ---------------- Requester side: replies ---------------- *)

  and complete_if_ready ctx e =
    if Miss_table.complete e then begin
      S.branch ctx "entry.retire";
      let fwds = List.rev e.Miss_table.queued_fwds in
      e.Miss_table.queued_fwds <- [];
      S.retire_miss ctx e;
      List.iter (fun (src, msg) -> handle ctx ~src msg) fwds
    end
    else if e.Miss_table.data_ready then begin
      (* Still awaiting acks, but the data is valid: serve queued
         forwarded requests now. *)
      let fwds = List.rev e.Miss_table.queued_fwds in
      e.Miss_table.queued_fwds <- [];
      match fwds with
      | [] -> ()
      | _ ->
        S.branch ctx "entry.serve_early";
        List.iter (fun (src, msg) -> handle ctx ~src msg) fwds
    end

  (* The miss entry a reply lands on: it must exist and still be
     waiting for its data. *)
  and awaiting_entry ctx ~block what =
    match S.find_miss ctx block with
    | None -> S.violation ctx ~block (what ^ " with no outstanding miss")
    | Some e ->
      if e.Miss_table.data_ready then
        S.violation ctx ~block (what ^ " on an already-ready entry");
      e

  and handle_data_reply ctx ~kind ~block ~data ~from_home ~inval_acks =
    S.charge ctx (S.timing ctx).Timing.handler_data_apply;
    let e = awaiting_entry ctx ~block "data reply" in
    S.apply_data ctx block e data;
    let new_state =
      match kind with
      | Msg.Read -> State_table.Shared
      | Msg.Readex | Msg.Upgrade -> State_table.Exclusive
    in
    S.set_base ctx block new_state;
    S.set_pending ctx block false;
    S.raise_private ctx (S.pid ctx) block new_state;
    e.Miss_table.data_ready <- true;
    e.Miss_table.acks_expected <- inval_acks;
    if kind = Msg.Readex then begin
      (* Completion acknowledgement of the ownership transfer. *)
      let home = S.home_of ctx block in
      if S.pid ctx = home then handle_own_ack ctx ~block
      else deliver ctx home (Msg.Own_ack { block })
    end;
    S.record_miss ctx ~kind:e.Miss_table.kind ~three_hop:(not from_home);
    if e.Miss_table.kind = Msg.Read then
      S.record_read_latency ctx ~start:e.Miss_table.start_cycles;
    if e.Miss_table.inval_after_reply then begin
      (* Stalled accesses observe [data_ready] and re-run their checks;
         the block is already gone again. *)
      S.branch ctx "entry.inval_after_reply";
      e.Miss_table.inval_after_reply <- false;
      stamp_invalid ctx block;
      S.lower_private ctx (S.pid ctx) block State_table.Invalid;
      S.set_base ctx block State_table.Invalid
    end;
    if e.Miss_table.upgrade_after_reply && e.Miss_table.kind = Msg.Read then begin
      (* A store merged into this read entry while it was pending: chain
         an ownership request, keeping the entry (and its merged store
         ranges) alive so that release operations wait for it. *)
      S.branch ctx "entry.chain_ownership";
      e.Miss_table.upgrade_after_reply <- false;
      e.Miss_table.data_ready <- false;
      e.Miss_table.acks_expected <- -1;
      let kind2 =
        if S.base ctx block = State_table.Shared then Msg.Upgrade
        else Msg.Readex
      in
      e.Miss_table.kind <- kind2;
      S.set_pending ctx block true;
      S.charge ctx (S.timing ctx).Timing.miss_setup;
      deliver ctx (S.home_of ctx block) (Msg.Req { kind = kind2; block })
    end
    else complete_if_ready ctx e

  and handle_upgrade_reply ctx ~block ~inval_acks =
    S.charge ctx (S.timing ctx).Timing.handler_data_apply;
    let e = awaiting_entry ctx ~block "upgrade reply" in
    S.set_base ctx block State_table.Exclusive;
    S.set_pending ctx block false;
    S.raise_private ctx (S.pid ctx) block State_table.Exclusive;
    e.Miss_table.data_ready <- true;
    e.Miss_table.acks_expected <- inval_acks;
    S.record_miss ctx ~kind:Msg.Upgrade ~three_hop:false;
    complete_if_ready ctx e

  and handle_inval_ack ctx ~block =
    match S.find_miss ctx block with
    | None ->
      S.violation ctx ~block "invalidation ack with no outstanding miss"
    | Some e ->
      e.Miss_table.acks_received <- e.Miss_table.acks_received + 1;
      complete_if_ready ctx e
end
