(* The lib/check analysis layer: online sanitizer, happens-before race
   detector, and the litmus model checker — clean on the healthy
   protocol, and every injected fault caught by both the online
   sanitizer and the litmus explorer. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Inspect = Shasta_core.Inspect
module Sanitizer = Shasta_check.Sanitizer
module Races = Shasta_check.Races
module Litmus = Shasta_check.Litmus

let find_scenario name =
  List.find (fun sc -> sc.Litmus.name = name) Litmus.scenarios

(* ------------------------------------------------------------------ *)
(* Online sanitizer *)

let test_sanitizer_clean () =
  List.iter
    (fun sc ->
      let inst = sc.Litmus.make ~fault:None in
      let san = Sanitizer.attach (Dsm.machine inst.Litmus.handle) in
      Dsm.run inst.Litmus.handle inst.Litmus.body;
      Alcotest.(check bool)
        (sc.Litmus.name ^ " checked transitions")
        true
        (Sanitizer.events san > 0);
      Alcotest.(check int) (sc.Litmus.name ^ " violations") 0
        (Sanitizer.violation_count san);
      Sanitizer.check san)
    Litmus.scenarios

let catches_fault name fault =
  let sc = find_scenario name in
  let inst = sc.Litmus.make ~fault:(Some fault) in
  let san = Sanitizer.attach (Dsm.machine inst.Litmus.handle) in
  let raised =
    try
      Dsm.run inst.Litmus.handle inst.Litmus.body;
      false
    with Inspect.Violation _ -> true
  in
  Alcotest.(check bool) (name ^ " online sanitizer caught the fault") true
    (Sanitizer.violation_count san > 0);
  Alcotest.(check bool) (name ^ " barrier sweep raised") true raised

let test_sanitizer_skip_private () =
  catches_fault "lock-counter" Config.Skip_private_downgrade

let test_sanitizer_skip_flag () = catches_fault "store-steal" Config.Skip_flag_stamp

(* ------------------------------------------------------------------ *)
(* Happens-before race detector *)

(* One 2-processor node, no synchronization: the sibling store/load
   conflict is invisible to the protocol (both accesses hit the node's
   copy), which is exactly the pair the detector must flag. *)
let racy_pair ~sync =
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:2 ~procs_per_node:2 ~clustering:2
      ~heap_bytes:(64 * 1024) ()
  in
  let h = Dsm.create cfg in
  let x = Dsm.alloc h ~home:0 8 in
  let b = Dsm.alloc_barrier h in
  let rd = Races.attach (Dsm.machine h) in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p = 0 then Dsm.store_int ctx x 1;
      if sync then Dsm.barrier ctx b;
      if p = 1 then ignore (Dsm.load_int ctx x));
  rd

let test_races_flags_unsynchronized () =
  let rd = racy_pair ~sync:false in
  Alcotest.(check bool) "race reported" true (Races.race_count rd > 0);
  match Races.races rd with
  | [] -> Alcotest.fail "expected a race record"
  | r :: _ ->
    Alcotest.(check bool) "distinct processors" true
      (r.Races.first_proc <> r.Races.second_proc);
    Alcotest.(check bool) "a store is involved" true
      (r.Races.first_kind = Races.Store || r.Races.second_kind = Races.Store);
    Alcotest.(check bool) "describe renders" true
      (String.length (Races.describe r) > 10)

let test_races_clean_when_synchronized () =
  let rd = racy_pair ~sync:true in
  Alcotest.(check int) "no races" 0 (Races.race_count rd)

let test_races_clean_on_suite () =
  List.iter
    (fun sc ->
      let inst = sc.Litmus.make ~fault:None in
      let rd = Races.attach (Dsm.machine inst.Litmus.handle) in
      Dsm.run inst.Litmus.handle inst.Litmus.body;
      Alcotest.(check int) (sc.Litmus.name ^ " race-free") 0
        (Races.race_count rd))
    Litmus.scenarios

(* ------------------------------------------------------------------ *)
(* Litmus model checker *)

(* Budget 1 keeps the unit test fast; CI runs the full budget-2 sweep
   through the CLI. *)
let test_litmus_suite_clean () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Litmus.scenario ^ " explored") true
        (r.Litmus.decision_points > 0);
      Alcotest.(check bool) (r.Litmus.scenario ^ " uncapped") false
        r.Litmus.capped;
      Alcotest.(check int)
        (r.Litmus.scenario ^ " failures")
        0
        (List.length r.Litmus.failures))
    (Litmus.check_all ~budget:1 ())

let litmus_catches fault =
  let reports = Litmus.check_all ~fault ~budget:0 () in
  Alcotest.(check bool) "some scenario failed" true
    (List.exists (fun r -> r.Litmus.failures <> []) reports)

let test_litmus_skip_private () = litmus_catches Config.Skip_private_downgrade
let test_litmus_skip_flag () = litmus_catches Config.Skip_flag_stamp

(* ------------------------------------------------------------------ *)
(* Controlled execution *)

(* Index 0 at every decision point IS the default schedule: the
   controlled run must agree with the normal engine on both the
   application outcome and the simulated clock. *)
let test_controlled_matches_default () =
  let sc = find_scenario "two-sharer-upgrade" in
  let inst = sc.Litmus.make ~fault:None in
  Dsm.run inst.Litmus.handle inst.Litmus.body;
  (match inst.Litmus.final () with
  | None -> ()
  | Some what -> Alcotest.fail ("default run: " ^ what));
  let cycles = Dsm.parallel_cycles inst.Litmus.handle in
  let inst' = sc.Litmus.make ~fault:None in
  Dsm.run ~choose:(fun cands -> cands.(0)) inst'.Litmus.handle
    inst'.Litmus.body;
  (match inst'.Litmus.final () with
  | None -> ()
  | Some what -> Alcotest.fail ("controlled run: " ^ what));
  Alcotest.(check int) "same simulated cycles" cycles
    (Dsm.parallel_cycles inst'.Litmus.handle)

let () =
  Alcotest.run "check"
    [
      ( "sanitizer",
        [
          Alcotest.test_case "clean on healthy suite" `Quick test_sanitizer_clean;
          Alcotest.test_case "catches skipped private downgrade" `Quick
            test_sanitizer_skip_private;
          Alcotest.test_case "catches skipped flag stamp" `Quick
            test_sanitizer_skip_flag;
        ] );
      ( "races",
        [
          Alcotest.test_case "flags unsynchronized siblings" `Quick
            test_races_flags_unsynchronized;
          Alcotest.test_case "clean when synchronized" `Quick
            test_races_clean_when_synchronized;
          Alcotest.test_case "clean on healthy suite" `Quick
            test_races_clean_on_suite;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "suite clean at budget 1" `Quick
            test_litmus_suite_clean;
          Alcotest.test_case "catches skipped private downgrade" `Quick
            test_litmus_skip_private;
          Alcotest.test_case "catches skipped flag stamp" `Quick
            test_litmus_skip_flag;
        ] );
      ( "controlled",
        [
          Alcotest.test_case "index 0 is the default schedule" `Quick
            test_controlled_matches_default;
        ] );
    ]
