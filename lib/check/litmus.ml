module Machine = Shasta_core.Machine
module Config = Shasta_core.Config
module Dsm = Shasta_core.Dsm
module Inspect = Shasta_core.Inspect
module Protocol = Shasta_core.Protocol
module Observer = Shasta_core.Observer
module Network = Shasta_net.Network
module Engine = Shasta_sim.Engine

(* ------------------------------------------------------------------ *)
(* Scenarios: 2 coherence nodes x 2 processors, all targeting the
   intra-node downgrade window of §3.4.3 — the paper's race-prone spot:
   a request arriving for a block while a downgrade for it is pending
   must queue on the downgrade entry and replay in arrival order. *)

type instance = {
  handle : Dsm.handle;
  body : Dsm.ctx -> unit;
  final : unit -> string option;  (** outcome check after a clean run *)
  crash_final : live:(int -> bool) -> string option;
      (** outcome check after a run with a scheduled crash: dead
          processors never ran their final loads, and recovery may
          legitimately roll a lost block back to an older (or zeroed)
          value, so each live processor's observation need only be in
          the scenario's reachable-value set *)
}

type scenario = {
  name : string;
  what : string;
  make : fault:Config.fault option -> instance;
}

(* Tiny heap and a low cycle ceiling: thousands of machines are built
   per exploration, and a schedule that livelocks must fail fast. *)
let make_cfg fault =
  Config.create ~variant:Smp ~nprocs:4 ~procs_per_node:2 ~clustering:2
    ~heap_bytes:(64 * 1024) ~max_cycles:2_000_000 ~sanitize:1 ?fault ()

(* Crash-aware outcome helper: every live processor's recorded value
   must be in [allowed] (which always includes the zero a recovery
   re-initialization can surface). *)
let live_values ~live got allowed =
  let bad = ref [] in
  Array.iteri
    (fun p v -> if live p && not (List.mem v allowed) then bad := (p, v) :: !bad)
    got;
  match List.rev !bad with
  | [] -> None
  | l ->
    Some
      (Printf.sprintf "live values outside {%s}: [%s]"
         (String.concat ";" (List.map string_of_int allowed))
         (String.concat ";"
            (List.map (fun (p, v) -> Printf.sprintf "p%d=%d" p v) l)))

(* Two sharers on one node, then an upgrade from the home node: the
   invalidation reaches one processor of node 0 (sibling misses
   coalesce, so the directory registers one sharer per node) and its
   handler must downgrade the sibling's private copy before
   acknowledging — delaying either the invalidate or the intra-node
   downgrade message stretches the §3.4.3 window across the barrier
   release. *)
let two_sharer_upgrade =
  {
    name = "two-sharer-upgrade";
    what = "2 sharers on one node invalidated by an upgrade";
    make =
      (fun ~fault ->
        let h = Dsm.create (make_cfg fault) in
        let x = Dsm.alloc h ~home:2 8 in
        let b0 = Dsm.alloc_barrier h and b1 = Dsm.alloc_barrier h in
        let got = Array.make 4 (-1) in
        let body ctx =
          let p = Dsm.pid ctx in
          if p < 2 then got.(p) <- Dsm.load_int ctx x;
          Dsm.barrier ctx b0;
          if p = 2 then Dsm.store_int ctx x 42;
          Dsm.barrier ctx b1;
          got.(p) <- Dsm.load_int ctx x
        in
        let final () =
          if Array.for_all (fun v -> v = 42) got then None
          else
            Some
              (Printf.sprintf "expected 42 everywhere, got [%s]"
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int got))))
        in
        let crash_final ~live = live_values ~live got [ 0; 42 ] in
        { handle = h; body; final; crash_final })
  }

(* Both processors of node 0 write (distinct words of) a block, so both
   hold private state; reads from the other node then force an
   exclusive-to-shared downgrade with a sibling target, and the second
   read forward can arrive during the pending downgrade. *)
let exclusive_handoff =
  {
    name = "exclusive-handoff";
    what = "E->S downgrade with sibling private state, racing read forwards";
    make =
      (fun ~fault ->
        let h = Dsm.create (make_cfg fault) in
        let x = Dsm.alloc h ~home:2 16 in
        let b0 = Dsm.alloc_barrier h in
        let sum = Array.make 4 0 in
        let body ctx =
          let p = Dsm.pid ctx in
          if p = 0 then Dsm.store_int ctx x 7;
          if p = 1 then Dsm.store_int ctx (x + 8) 9;
          Dsm.barrier ctx b0;
          sum.(p) <- Dsm.load_int ctx x + Dsm.load_int ctx (x + 8)
        in
        let final () =
          if Array.for_all (fun v -> v = 16) sum then None
          else
            Some
              (Printf.sprintf "expected 16 everywhere, got [%s]"
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int sum))))
        in
        (* each word is 0 or its written value, independently *)
        let crash_final ~live = live_values ~live sum [ 0; 7; 9; 16 ] in
        { handle = h; body; final; crash_final })
  }

(* Ownership stolen from a node whose processors both touched the block:
   the ->Invalid downgrade must lower both private entries and stamp the
   invalid-flag pattern (the two injectable faults live exactly here). *)
let store_steal =
  {
    name = "store-steal";
    what = "->Invalid downgrade (readex forward) with sibling private state";
    make =
      (fun ~fault ->
        let h = Dsm.create (make_cfg fault) in
        let x = Dsm.alloc h ~home:2 8 in
        let bpre = Dsm.alloc_barrier h in
        let b0 = Dsm.alloc_barrier h and b1 = Dsm.alloc_barrier h in
        let got = Array.make 4 (-1) in
        let body ctx =
          let p = Dsm.pid ctx in
          if p = 0 then Dsm.store_int ctx x 1;
          Dsm.barrier ctx bpre;
          if p = 1 then ignore (Dsm.load_int ctx x);
          Dsm.barrier ctx b0;
          if p = 2 then Dsm.store_int ctx x 2;
          Dsm.barrier ctx b1;
          got.(p) <- Dsm.load_int ctx x
        in
        let final () =
          if Array.for_all (fun v -> v = 2) got then None
          else
            Some
              (Printf.sprintf "expected 2 everywhere, got [%s]"
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int got))))
        in
        let crash_final ~live = live_values ~live got [ 0; 1; 2 ] in
        { handle = h; body; final; crash_final })
  }

(* Lock-serialized increments ping-ponging a block between the nodes:
   ownership transfer under contention, with downgrades on both sides. *)
let lock_counter =
  {
    name = "lock-counter";
    what = "lock-serialized counter ping-ponging ownership between nodes";
    make =
      (fun ~fault ->
        let h = Dsm.create (make_cfg fault) in
        let x = Dsm.alloc h ~home:0 8 in
        let l = Dsm.alloc_lock h in
        let b0 = Dsm.alloc_barrier h in
        let got = Array.make 4 (-1) in
        let body ctx =
          let p = Dsm.pid ctx in
          Dsm.lock ctx l;
          Dsm.store_int ctx x (Dsm.load_int ctx x + 1);
          Dsm.unlock ctx l;
          Dsm.barrier ctx b0;
          got.(p) <- Dsm.load_int ctx x
        in
        let final () =
          if Array.for_all (fun v -> v = 4) got then None
          else
            Some
              (Printf.sprintf "expected 4 everywhere, got [%s]"
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int got))))
        in
        (* the counter is monotonic; dead processors' increments may or
           may not have landed *)
        let crash_final ~live = live_values ~live got [ 0; 1; 2; 3; 4 ] in
        { handle = h; body; final; crash_final })
  }

let scenarios = [ two_sharer_upgrade; exclusive_handoff; store_steal; lock_counter ]

(* ------------------------------------------------------------------ *)
(* Exploration: replay-based delay-bounded DFS. A schedule is encoded
   as a prefix of choice indices, one per ELIGIBLE decision point — a
   scheduling decision at which some processor other than the (clock,
   pid) minimum has a message due (arrived at or before its own clock),
   so resuming it next runs a protocol handler ahead of lower-clock
   work. Reordering handlers against inline application code and
   against each other is precisely the protocol's race surface (§3.3,
   §3.4.3); every other point is kept on the default schedule, which
   collapses the thousands of spin-wait yields a run performs into a
   tree focused on handler interleavings. Index 0 of a decision is the
   default (the global minimum); beyond the prefix every point takes
   index 0, so replaying a prefix is deterministic and children can be
   derived from a parent's trace. *)

let due (m : Machine.t) p =
  match m.Machine.procs.(p).Machine.engine with
  | None -> false
  | Some ep -> Network.earliest_arrival m.Machine.net ~dst:p <= Engine.now ep

(* The decision's candidates: the default choice, then every other
   runnable processor with a due message; [None] when that leaves no
   real alternative. *)
let eligible_alts (m : Machine.t) (cands : int array) =
  let alts = ref [] in
  for i = Array.length cands - 1 downto 1 do
    if due m cands.(i) then alts := cands.(i) :: !alts
  done;
  match !alts with
  | [] -> None
  | alts -> Some (Array.of_list (cands.(0) :: alts))

type run_record = {
  lens : int array;  (** candidate count at each eligible point *)
  cands : int array array;  (** the candidate pids at each eligible point *)
  seg_procs : int list array;  (** processors stepped after point i *)
  seg_dsts : int list array;  (** message destinations sent after point i *)
  nodes : int array;  (** proc -> coherence node *)
  send_clocks : int list;  (** distinct send timestamps, ascending *)
  failure : string option;
}

let run_one ?(mk_events = fun _ -> []) sc ~fault (prefix : int array) =
  let { handle = h; body; final; crash_final } = sc.make ~fault in
  let m = Dsm.machine h in
  let events = mk_events h in
  let san = Sanitizer.attach m in
  let lens = ref [] and cands = ref [] and segs = ref [] in
  let clocks = ref [] in
  let nelig = ref 0 in
  let seg_proc p = match !segs with [] -> () | (ps, _) :: _ -> ps := p :: !ps in
  let seg_dst d = match !segs with [] -> () | (_, ds) :: _ -> ds := d :: !ds in
  Machine.add_observer m
    {
      Observer.nil with
      Observer.on_send =
        (fun ~src:_ ~dst ~now _ ->
          seg_dst dst;
          clocks := now :: !clocks);
    };
  (* Consecutive decisions with an identical alternative set are the
     same choice offered again a few cycles later: only the first one
     consumes a prefix slot ("run the handler at its first opportunity
     or keep it delayed until the situation changes"). *)
  let last = ref [||] in
  let choose cs =
    let pick =
      match eligible_alts m cs with
      | None ->
        last := [||];
        cs.(0)
      | Some alts when alts = !last -> cs.(0)
      | Some alts ->
        last := alts;
        let i = !nelig in
        incr nelig;
        let len = Array.length alts in
        lens := len :: !lens;
        cands := alts :: !cands;
        segs := (ref [], ref []) :: !segs;
        let c =
          if i < Array.length prefix && prefix.(i) < len then prefix.(i) else 0
        in
        alts.(c)
    in
    seg_proc pick;
    pick
  in
  let failure =
    try
      Dsm.run ~choose ~events h body;
      if Sanitizer.violation_count san > 0 then
        Some
          ("sanitizer: "
          ^ String.concat "; "
              (List.map Inspect.describe (Sanitizer.violations san)))
      else
        match Inspect.report m with
        | [] ->
          if m.Machine.crashes > 0 then
            crash_final ~live:(fun p -> not m.Machine.dead.(p))
          else final ()
        | vs ->
          Some
            ("post-run invariants: "
            ^ String.concat "; " (List.map Inspect.describe vs))
    with
    | Engine.Cycle_limit p ->
      Some (Printf.sprintf "livelock: processor %d hit the cycle limit" p)
    | Protocol.Protocol_violation _ as e -> Some (Printexc.to_string e)
    | Inspect.Violation _ as e -> Some (Printexc.to_string e)
    | Shasta_recover.Recover.Recovery_violation _ as e ->
      Some (Printexc.to_string e)
    | Invalid_argument msg -> Some ("Invalid_argument: " ^ msg)
    | Failure msg -> Some ("Failure: " ^ msg)
  in
  {
    lens = Array.of_list (List.rev !lens);
    cands = Array.of_list (List.rev !cands);
    seg_procs = Array.of_list (List.rev_map (fun (ps, _) -> List.rev !ps) !segs);
    seg_dsts = Array.of_list (List.rev_map (fun (_, ds) -> List.rev !ds) !segs);
    nodes =
      Array.init m.Machine.cfg.Config.nprocs (fun p -> Machine.node_of m p);
    send_clocks = List.sort_uniq compare !clocks;
    failure;
  }

(* Simple sleep-set reduction: deviating at point [d] in favor of
   processor [q] only matters if the segment the default schedule ran
   between points [d] and [d+1] interacts with [q] — some processor of
   [q]'s node stepped (shared tables and images), or a message was sent
   to [q]. An independent segment commutes with [q]'s next step, and the
   commuted schedule is reachable by deviating at [d+1] instead, which
   the enumeration covers. *)
let depends r d q =
  d >= Array.length r.seg_procs
  || List.exists (fun p -> r.nodes.(p) = r.nodes.(q)) r.seg_procs.(d)
  || List.mem q r.seg_dsts.(d)

type failure = { prefix : int list; what : string }

type report = {
  scenario : string;
  what : string;
  runs : int;
  decision_points : int;  (** eligible points on the default schedule *)
  capped : bool;  (** run budget exhausted before the frontier emptied *)
  failures : failure list;
}

let check ?fault ?(budget = 2) ?(max_runs = 20_000) sc =
  let runs = ref 0 and capped = ref false and failures = ref [] in
  let decision_points = ref 0 in
  let frontier = ref [ [||] ] in
  while !frontier <> [] do
    match !frontier with
    | [] -> ()
    | prefix :: rest ->
      if !runs >= max_runs then begin
        capped := true;
        frontier := []
      end
      else begin
        frontier := rest;
        let r = run_one sc ~fault prefix in
        incr runs;
        if Array.length prefix = 0 then
          decision_points := Array.length r.lens;
        (match r.failure with
        | Some what ->
          failures := { prefix = Array.to_list prefix; what } :: !failures
        | None ->
          (* Only clean runs expand: a failing schedule is already a
             result, and its trace past the failure is meaningless. *)
          let deviations =
            Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 prefix
          in
          if deviations < budget then
            (* Depth-first: push deeper deviations first so sibling
               schedules that share a long prefix run back-to-back. *)
            for d = Array.length r.lens - 1 downto Array.length prefix do
              for alt = r.lens.(d) - 1 downto 1 do
                if depends r d r.cands.(d).(alt) then begin
                  let child = Array.make (d + 1) 0 in
                  Array.blit prefix 0 child 0 (Array.length prefix);
                  child.(d) <- alt;
                  frontier := child :: !frontier
                end
              done
            done)
      end
  done;
  {
    scenario = sc.name;
    what = sc.what;
    runs = !runs;
    decision_points = !decision_points;
    capped = !capped;
    failures = List.rev !failures;
  }

let check_all ?fault ?budget ?max_runs () =
  List.map (fun sc -> check ?fault ?budget ?max_runs sc) scenarios

let pp_report ppf r =
  Format.fprintf ppf "%-20s %5d runs, %3d decision points%s: %s" r.scenario
    r.runs r.decision_points
    (if r.capped then " (capped)" else "")
    (match r.failures with
    | [] -> "ok"
    | fs ->
      Format.asprintf "%d schedule(s) FAILED, first: [%s] %s" (List.length fs)
        (String.concat ";"
           (List.map string_of_int (List.hd fs).prefix))
        (List.hd fs).what)

(* ------------------------------------------------------------------ *)
(* Crash placement sweep: the same delay-bounded DFS, with a node crash
   scheduled at a virtual cycle harvested from the default run's send
   timestamps — every distinct in-flight-message window is a candidate
   placement, so the crash lands mid-downgrade, mid-miss, mid-barrier,
   and between a checkpoint and its log tail, not only at quiescent
   points. Each placement is swept for both crashable nodes and
   explored around with schedule deviations; a run passes when it
   recovers with the sanitizer, the post-run invariant sweep, and the
   crash-aware outcome check all clean, or fails with the typed
   Recovery_violation (a Data_loss under sharer-pull recovery is the
   documented honest outcome when every copy died, and is counted
   rather than failed). *)

type crash_mode = Pull | Ckpt of int  (** checkpoint interval, cycles *)

type crash_failure = {
  cf_at : int;  (** crash cycle *)
  cf_node : int;  (** crashed node *)
  cf_prefix : int list;  (** schedule deviation prefix *)
  cf_what : string;
}

type crash_report = {
  cc_scenario : string;
  cc_mode : string;  (** "pull" or "ckpt" *)
  cc_placements : int;  (** (cycle, node) pairs swept *)
  cc_runs : int;
  cc_data_loss : int;  (** typed Data_loss outcomes (pull mode only) *)
  cc_capped : bool;
  cc_failures : crash_failure list;
}

(* Evenly subsample [l] down to at most [k] elements. *)
let subsample k l =
  let n = List.length l in
  if n <= k then l
  else
    let a = Array.of_list l in
    List.init k (fun i -> a.(i * n / k))

let is_data_loss what =
  let pre = "Recovery_violation (Data_loss" in
  String.length what >= String.length pre
  && String.sub what 0 (String.length pre) = pre

let check_crash ?(mode = Pull) ?(budget = 1) ?(max_runs = 4_000)
    ?(max_clocks = 12) sc =
  (* Harvest crash windows from the default schedule: one cycle past
     each distinct send timestamp, so the sent message is in flight
     when the node dies. *)
  let r0 = run_one sc ~fault:None [||] in
  let clocks =
    subsample max_clocks (List.map (fun c -> c + 1) r0.send_clocks)
  in
  let placements =
    List.concat_map (fun at -> [ (at, 0); (at, 1) ]) clocks
  in
  let runs = ref 0 and capped = ref false in
  let data_loss = ref 0 and failures = ref [] in
  List.iter
    (fun (at, node) ->
      let mk_events h =
        match mode with
        | Pull -> [ Shasta_recover.Crash.kill h ~node ~at ]
        | Ckpt interval ->
          let ckpt =
            Shasta_recover.Checkpoint.attach (Dsm.machine h) ~interval
          in
          [ Shasta_recover.Crash.with_checkpoint h ~node ~at ~ckpt ]
      in
      let frontier = ref [ [||] ] in
      while !frontier <> [] do
        match !frontier with
        | [] -> ()
        | prefix :: rest ->
          if !runs >= max_runs then begin
            capped := true;
            frontier := []
          end
          else begin
            frontier := rest;
            let r = run_one ~mk_events sc ~fault:None prefix in
            incr runs;
            (match r.failure with
            | Some what when mode = Pull && is_data_loss what ->
              incr data_loss
            | Some what ->
              failures :=
                { cf_at = at; cf_node = node;
                  cf_prefix = Array.to_list prefix; cf_what = what }
                :: !failures
            | None ->
              let deviations =
                Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 prefix
              in
              if deviations < budget then
                for d = Array.length r.lens - 1 downto Array.length prefix do
                  for alt = r.lens.(d) - 1 downto 1 do
                    if depends r d r.cands.(d).(alt) then begin
                      let child = Array.make (d + 1) 0 in
                      Array.blit prefix 0 child 0 (Array.length prefix);
                      child.(d) <- alt;
                      frontier := child :: !frontier
                    end
                  done
                done)
          end
      done)
    placements;
  {
    cc_scenario = sc.name;
    cc_mode = (match mode with Pull -> "pull" | Ckpt _ -> "ckpt");
    cc_placements = List.length placements;
    cc_runs = !runs;
    cc_data_loss = !data_loss;
    cc_capped = !capped;
    cc_failures = List.rev !failures;
  }

let check_crash_all ?mode ?budget ?max_runs ?max_clocks () =
  List.map (fun sc -> check_crash ?mode ?budget ?max_runs ?max_clocks sc)
    scenarios

let pp_crash_report ppf r =
  Format.fprintf ppf "%-20s %-4s %3d placements, %5d runs, %3d data-loss%s: %s"
    r.cc_scenario r.cc_mode r.cc_placements r.cc_runs r.cc_data_loss
    (if r.cc_capped then " (capped)" else "")
    (match r.cc_failures with
    | [] -> "ok"
    | fs ->
      let f = List.hd fs in
      Format.asprintf "%d placement(s) FAILED, first: node %d @%d [%s] %s"
        (List.length fs) f.cf_node f.cf_at
        (String.concat ";" (List.map string_of_int f.cf_prefix))
        f.cf_what)
