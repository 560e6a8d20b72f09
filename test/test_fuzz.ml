(* Seeded schedule fuzzer: drive the litmus scenarios (and a small real
   workload) under [Dsm.run ~choose] with a PRNG-seeded scheduler
   that picks a uniformly random runnable processor at every decision
   point, with the online sanitizer and the happens-before race
   detector attached. The healthy protocol must survive every fuzzed
   schedule; with a fault injected, some fuzzed schedule must expose it.

   Every run is a pure function of (scenario, seed): a failure report
   prints exactly the pair to replay. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Inspect = Shasta_core.Inspect
module Machine = Shasta_core.Machine
module App = Shasta_apps.App
module Registry = Shasta_apps.Registry
module Sanitizer = Shasta_check.Sanitizer
module Races = Shasta_check.Races
module Litmus = Shasta_check.Litmus
module Prng = Shasta_util.Prng

let nseeds = 64

let random_choose seed =
  let prng = Prng.create (0x5eed + (seed * 2654435761)) in
  fun (cands : int array) -> cands.(Prng.int prng (Array.length cands))

(* One fuzzed run of a litmus scenario. Returns [None] on a clean pass,
   [Some what] naming the first problem otherwise. Everything the
   checkers can say is folded in: exceptions, sanitizer counts, the
   race detector, the scenario's own outcome predicate, and the
   post-run invariant sweep. *)
let fuzz_scenario ~fault sc seed =
  let inst = sc.Litmus.make ~fault in
  let m = Dsm.machine inst.Litmus.handle in
  let san = Sanitizer.attach m in
  let rd = Races.attach m in
  let outcome =
    try
      Dsm.run ~choose:(random_choose seed) inst.Litmus.handle
        inst.Litmus.body;
      None
    with
    | Inspect.Violation (v :: _) -> Some ("sanitizer: " ^ Inspect.describe v)
    | Inspect.Violation [] -> Some "sanitizer violation"
    | Shasta_core.Protocol.Protocol_violation { detail; _ } ->
      Some ("protocol: " ^ detail)
    | Shasta_sim.Engine.Cycle_limit p ->
      Some (Printf.sprintf "cycle limit (livelock) on proc %d" p)
  in
  match outcome with
  | Some _ as bad -> bad
  | None ->
    if Sanitizer.violation_count san > 0 then
      Some
        (Printf.sprintf "sanitizer recorded %d violation(s)"
           (Sanitizer.violation_count san))
    else if Races.race_count rd > 0 then
      Some (Races.describe (List.hd (Races.races rd)))
    else (
      match inst.Litmus.final () with
      | Some what -> Some ("outcome: " ^ what)
      | None -> (
        match Inspect.report m with
        | v :: _ -> Some ("post-run: " ^ Inspect.describe v)
        | [] ->
          if not (Machine.quiescent m) then Some "machine not quiescent"
          else None))

let test_scenarios_clean () =
  List.iter
    (fun sc ->
      for seed = 0 to nseeds - 1 do
        match fuzz_scenario ~fault:None sc seed with
        | None -> ()
        | Some what ->
          Alcotest.failf "scenario %s, seed %d: %s (replay: fuzz %s/%d)"
            sc.Litmus.name seed what sc.Litmus.name seed
      done)
    Litmus.scenarios

(* Same (scenario, seed) twice must reach the same simulated clock:
   the fuzzer is deterministic, so failures are replayable. *)
let test_fuzz_deterministic () =
  List.iter
    (fun sc ->
      let cycles seed =
        let inst = sc.Litmus.make ~fault:None in
        Dsm.run ~choose:(random_choose seed) inst.Litmus.handle
          inst.Litmus.body;
        Dsm.parallel_cycles inst.Litmus.handle
      in
      List.iter
        (fun seed ->
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d replays to the same clock"
               sc.Litmus.name seed)
            (cycles seed) (cycles seed))
        [ 0; 17; 63 ])
    Litmus.scenarios

(* Distinct seeds must actually produce distinct schedules somewhere:
   otherwise the sweep above is 64 copies of one run. *)
let test_seeds_diversify () =
  let sc = List.hd Litmus.scenarios in
  let clocks =
    List.init 16 (fun seed ->
        let inst = sc.Litmus.make ~fault:None in
        Dsm.run ~choose:(random_choose seed) inst.Litmus.handle
          inst.Litmus.body;
        Dsm.parallel_cycles inst.Litmus.handle)
  in
  Alcotest.(check bool)
    "16 seeds reach more than one distinct simulated clock" true
    (List.length (List.sort_uniq compare clocks) > 1)

(* A real (tiny) workload under fuzzed scheduling: lu at minimal scale,
   sanitizer attached, result verified. *)
let test_lu_fuzzed () =
  let maker = Registry.find "lu" in
  List.iter
    (fun seed ->
      let inst = maker ~vg:false ~scale:0.1 () in
      let heap = max (1 lsl 22) inst.App.heap_bytes in
      let cfg =
        Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:2
          ~heap_bytes:heap ~sanitize:1 ()
      in
      let h = Dsm.create cfg in
      let san = Sanitizer.attach (Dsm.machine h) in
      let body, verify = inst.App.setup h in
      Dsm.run ~choose:(random_choose seed) h body;
      let verdict = verify h in
      if not verdict.App.ok then
        Alcotest.failf "lu seed %d: %s" seed verdict.App.detail;
      Alcotest.(check int)
        (Printf.sprintf "lu seed %d sanitizer clean" seed)
        0
        (Sanitizer.violation_count san);
      Inspect.assert_invariants (Dsm.machine h))
    [ 0; 1; 2; 3 ]

(* Fault injection: each of the two protocol faults must be exposed by
   at least one of the 64 fuzzed schedules of its known-sensitive
   scenario (the same pairings the sanitizer unit tests use). *)
let fuzz_catches scenario_name fault =
  let sc = List.find (fun s -> s.Litmus.name = scenario_name) Litmus.scenarios in
  let rec hunt seed =
    if seed >= nseeds then
      Alcotest.failf "%s: fault not caught by any of %d fuzzed schedules"
        scenario_name nseeds
    else
      match fuzz_scenario ~fault:(Some fault) sc seed with
      | Some _ -> seed
      | None -> hunt (seed + 1)
  in
  let seed = hunt 0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s fault caught (first at seed %d)" scenario_name seed)
    true true

let test_catches_skip_private () =
  fuzz_catches "lock-counter" Config.Skip_private_downgrade

let test_catches_skip_flag () =
  fuzz_catches "store-steal" Config.Skip_flag_stamp

(* ------------------------------------------------------------------ *)
(* Randomized crash-point injection: each (scenario, seed) pair draws a
   node and a crash cycle from its own PRNG stream — the cycle from the
   scenario's default-schedule span, so placements land anywhere from
   the first miss to the final barrier — and must either recover with
   every checker clean or fail with the typed [Recovery_violation]
   (sharer-pull recovery may hit a genuine [Data_loss]). Runs are a
   pure function of (scenario, seed), so failures replay exactly. *)

let crash_prng seed = Prng.create (0xc4a5 + (seed * 2654435761))

(* Default-schedule run length per scenario, the crash-placement
   window; computed once. *)
let scenario_span =
  let tbl = Hashtbl.create 8 in
  fun sc ->
    match Hashtbl.find_opt tbl sc.Litmus.name with
    | Some s -> s
    | None ->
      let inst = sc.Litmus.make ~fault:None in
      Dsm.run
        ~choose:(fun (cs : int array) -> cs.(0))
        inst.Litmus.handle inst.Litmus.body;
      let s = Dsm.parallel_cycles inst.Litmus.handle in
      Hashtbl.add tbl sc.Litmus.name s;
      s

let fuzz_crash_scenario sc seed =
  let prng = crash_prng seed in
  let node = Prng.int prng 2 in
  let at = 1 + Prng.int prng (max 1 (scenario_span sc)) in
  let inst = sc.Litmus.make ~fault:None in
  let m = Dsm.machine inst.Litmus.handle in
  let san = Sanitizer.attach m in
  let events = [ Shasta_recover.Crash.kill inst.Litmus.handle ~node ~at ] in
  let outcome =
    try
      Dsm.run ~choose:(random_choose seed) ~events
        inst.Litmus.handle inst.Litmus.body;
      `Completed
    with
    | Shasta_recover.Recover.Recovery_violation _ ->
      (* typed: recovery declared honestly what it could not restore;
         the run is abandoned there, so no post-run checks apply *)
      `Typed
    | Inspect.Violation (v :: _) ->
      `Bad ("sanitizer: " ^ Inspect.describe v)
    | Shasta_core.Protocol.Protocol_violation { detail; _ } ->
      `Bad ("protocol: " ^ detail)
    | Shasta_sim.Engine.Cycle_limit p ->
      `Bad (Printf.sprintf "cycle limit (livelock) on proc %d" p)
  in
  match outcome with
  | `Bad what -> Some what
  | `Typed -> None
  | `Completed ->
    if Sanitizer.violation_count san > 0 then
      Some
        (Printf.sprintf "sanitizer recorded %d violation(s)"
           (Sanitizer.violation_count san))
    else (
      match Inspect.report m with
      | v :: _ -> Some ("post-run: " ^ Inspect.describe v)
      | [] ->
        if m.Machine.crashes > 0 then
          inst.Litmus.crash_final ~live:(fun p -> not m.Machine.dead.(p))
        else
          (* placement fell past the fuzzed run's end: a clean run *)
          inst.Litmus.final ())

let test_crash_points_clean () =
  List.iter
    (fun sc ->
      for seed = 0 to (nseeds / 2) - 1 do
        match fuzz_crash_scenario sc seed with
        | None -> ()
        | Some what ->
          Alcotest.failf
            "scenario %s, seed %d: %s (replay: crash-fuzz %s/%d)"
            sc.Litmus.name seed what sc.Litmus.name seed
      done)
    Litmus.scenarios

(* The crash fuzzer is as replayable as the schedule fuzzer: the same
   (scenario, seed) reaches the same clock and the same crash count. *)
let test_crash_points_deterministic () =
  List.iter
    (fun sc ->
      let observe seed =
        let prng = crash_prng seed in
        let node = Prng.int prng 2 in
        let at = 1 + Prng.int prng (max 1 (scenario_span sc)) in
        let inst = sc.Litmus.make ~fault:None in
        let m = Dsm.machine inst.Litmus.handle in
        (try
           Dsm.run ~choose:(random_choose seed)
             ~events:[ Shasta_recover.Crash.kill inst.Litmus.handle ~node ~at ]
             inst.Litmus.handle inst.Litmus.body
         with Shasta_recover.Recover.Recovery_violation _ -> ());
        (Dsm.parallel_cycles inst.Litmus.handle, m.Machine.crashes)
      in
      List.iter
        (fun seed ->
          let c1, n1 = observe seed and c2, n2 = observe seed in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s seed %d crash run replays identically"
               sc.Litmus.name seed)
            (c1, n1) (c2, n2))
        [ 0; 9; 31 ])
    Litmus.scenarios

let () =
  Alcotest.run "fuzz"
    [
      ( "schedules",
        [
          Alcotest.test_case "64 seeds x all scenarios clean" `Slow
            test_scenarios_clean;
          Alcotest.test_case "fuzzer deterministic per seed" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "seeds explore distinct schedules" `Quick
            test_seeds_diversify;
          Alcotest.test_case "lu verified under fuzzed schedules" `Slow
            test_lu_fuzzed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "skip-private-downgrade exposed" `Quick
            test_catches_skip_private;
          Alcotest.test_case "skip-flag-stamp exposed" `Quick
            test_catches_skip_flag;
        ] );
      ( "crash-points",
        [
          Alcotest.test_case "randomized crash placements recover" `Slow
            test_crash_points_clean;
          Alcotest.test_case "crash fuzzer deterministic per seed" `Quick
            test_crash_points_deterministic;
        ] );
    ]
