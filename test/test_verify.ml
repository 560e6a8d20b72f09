(* The static-analysis layer: exhaustive model checking of the abstract
   protocol (clean = zero violations, injected faults = reachable
   counterexamples), conformance of real litmus runs against the
   model's label vocabulary, static verification of every registered
   kernel access program plus rejection of crafted-bad ones, and
   lock-order cycle detection. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module App = Shasta_apps.App
module Registry = Shasta_apps.Registry
module Litmus = Shasta_check.Litmus
module Conformance = Shasta_check.Conformance
module Model = Shasta_verify.Model
module Reach = Shasta_verify.Reach
module Conform = Shasta_verify.Conform
module Progcheck = Shasta_verify.Progcheck
module Lockgraph = Shasta_verify.Lockgraph
module Prng = Shasta_util.Prng

(* ------------------------------------------------------------------ *)
(* Model basics. *)

let test_initial_state () =
  let st = Model.initial ~home:2 in
  Alcotest.(check (list string)) "initial state clean" []
    (Model.check_invariants st);
  Alcotest.(check bool) "initial state settled" false (Model.transient st);
  (* No messages in flight: only the 4 loads and 4 stores. *)
  Alcotest.(check int) "initial actions" 8
    (List.length (Model.enabled_actions st))

(* ------------------------------------------------------------------ *)
(* Exhaustive reachability. *)

let clean_result = lazy (Reach.explore Reach.default_params)

(* The exact figures of the explorations below are pinned: a moved
   state or edge count means the transition relation changed, which a
   refactor of the shared coherence handlers must never do silently. *)
let test_clean_reachability () =
  let r = Lazy.force clean_result in
  Alcotest.(check bool) "not capped" false r.Reach.r_capped;
  Alcotest.(check int) "zero violations" 0 (List.length r.Reach.r_violations);
  Alcotest.(check int) "states" 3928 r.Reach.r_states;
  Alcotest.(check int) "edges" 36780 r.Reach.r_edges

let crash_result =
  lazy (Reach.explore { Reach.default_params with Reach.crashes = true })

let test_crash_reachability () =
  let r = Lazy.force crash_result in
  Alcotest.(check bool) "not capped" false r.Reach.r_capped;
  Alcotest.(check int) "zero violations" 0 (List.length r.Reach.r_violations);
  Alcotest.(check int) "states" 4018 r.Reach.r_states;
  Alcotest.(check int) "edges" 45060 r.Reach.r_edges

(* The structural expected-dead set, exactly: with crashes enabled the
   crash branches are live, so what remains dead is the one-word and
   ordered-delivery artifacts [Model.expected_dead] documents. *)
let test_expected_dead () =
  let structural =
    [
      "msg:upgrade_fwd"; "dir.read.serve_shared"; "inval.queued_on_downgrade";
      "inval.stale_ack"; "fwd.queued_on_downgrade"; "fwd.queued_on_miss";
      "fwd.read.shared"; "downgrade.replay"; "entry.serve_early";
      "load.pdg_consume"; "load.private_upgrade"; "load.false_miss";
    ]
  in
  let d = Reach.dead_report (Lazy.force crash_result) in
  Alcotest.(check (list string)) "no unexpectedly dead branches (crash)" []
    d.Reach.dead_branches;
  Alcotest.(check (list string)) "structural expected-dead" structural
    d.Reach.dead_expected;
  let clean = Reach.dead_report (Lazy.force clean_result) in
  Alcotest.(check (list string)) "clean: structural plus crash-only"
    (List.sort compare (structural @ Model.crash_branches))
    (List.sort compare clean.Reach.dead_expected)

let test_clean_coverage () =
  let r = Lazy.force clean_result in
  let d = Reach.dead_report r in
  Alcotest.(check (list string)) "no unexpectedly dead branches" []
    d.Reach.dead_branches;
  (* Every coherence message tag except the structurally dead
     upgrade-forward appears on some reachable edge. *)
  let tag_hit t =
    Hashtbl.fold
      (fun l () acc ->
        acc || match l with Model.L_send { tg; _ } -> tg = t | _ -> false)
      r.Reach.r_labels false
  in
  for t = 0 to Model.coherence_tags - 1 do
    let expect = t <> 5 (* upgrade_fwd *) in
    Alcotest.(check bool)
      (Printf.sprintf "tag %d reachable" t)
      expect (tag_hit t)
  done

let test_fault_exposed fault name ~states ~edges ~message ~trace () =
  let r =
    Reach.explore
      { Reach.default_params with Reach.fault = Some fault; stop_at_first = true }
  in
  Alcotest.(check int) (name ^ ": states") states r.Reach.r_states;
  Alcotest.(check int) (name ^ ": edges") edges r.Reach.r_edges;
  match r.Reach.r_violations with
  | [] -> Alcotest.failf "%s: no violating state reachable" name
  | v :: _ ->
    Alcotest.(check string) (name ^ ": violation") message v.Reach.v_message;
    Alcotest.(check (list string)) (name ^ ": counterexample") trace
      v.Reach.v_trace

(* ------------------------------------------------------------------ *)
(* Conformance of real runs against the model's label vocabulary. *)

(* Run and event counts are pinned like the model figures: a moved
   count means the simulator performed different per-block transitions
   or sends on the litmus scenarios. *)
let test_conformance_scenarios () =
  let expected =
    [
      ("two-sharer-upgrade", 1560); ("exclusive-handoff", 1170);
      ("store-steal", 1625); ("lock-counter", 2866);
    ]
  in
  let reports = Conformance.check_all () in
  Alcotest.(check (list string)) "scenarios" (List.map fst expected)
    (List.map (fun r -> r.Conformance.scenario) reports);
  List.iter2
    (fun r (name, events) ->
      Alcotest.(check (list string)) (name ^ " conformant") []
        r.Conformance.mismatches;
      Alcotest.(check int) (name ^ " runs") 65 r.Conformance.runs;
      Alcotest.(check int) (name ^ " events") events r.Conformance.events)
    reports expected

(* The QCheck face of the same oracle: any (scenario, seed) pair's
   fuzzed run projects only model-vocabulary labels. *)
let conformance_prop =
  let nscen = List.length Litmus.scenarios in
  QCheck.Test.make ~name:"fuzzed schedules conform to the abstract model"
    ~count:64
    QCheck.(
      pair (make Gen.(int_bound (nscen - 1))) (make Gen.(int_bound 1_000_000)))
    (fun (i, seed) ->
      let sc = List.nth Litmus.scenarios i in
      let inst = sc.Litmus.make ~fault:None in
      let conf =
        Conform.make
          ~labels:(Conform.reference_labels ())
          (Dsm.machine inst.Litmus.handle)
      in
      Dsm.add_observer inst.Litmus.handle conf.Conform.observer;
      let prng = Prng.create (0x5eed + (seed * 2654435761)) in
      Dsm.run
        ~choose:(fun cands -> cands.(Prng.int prng (Array.length cands)))
        inst.Litmus.handle inst.Litmus.body;
      conf.Conform.events () > 0 && conf.Conform.mismatches () = [])

(* ------------------------------------------------------------------ *)
(* Kernel program verification. *)

let test_kernels_verified () =
  Alcotest.(check int) "no findings" 0 (List.length (Registry.verify_kernels ()));
  Alcotest.(check bool) "manifest covers the apps" true
    (List.length (Registry.kernel_manifest ()) >= 20)

let test_registry_find_verifies () =
  (* The first lookup forces kernel verification; with healthy kernels
     it must succeed. *)
  ignore (Registry.find "kv" : App.maker)

let findings_mention instrs ~spec ?consts needle =
  let fs = Progcheck.check_instrs ?consts ~nregs:4 ~spec instrs in
  List.exists
    (fun f ->
      let d = Progcheck.describe_finding f in
      let n = String.length needle in
      let rec scan i =
        i + n <= String.length d && (String.sub d i n = needle || scan (i + 1))
      in
      scan 0)
    fs

let test_bad_programs_rejected () =
  let open Dsm.Prog in
  let sp = Progcheck.spec ~base0:32 ~aux:2 () in
  Alcotest.(check bool) "out of bounds" true
    (findings_mention [ Cldf (0, 0, 32) ] ~spec:sp "out of bounds");
  Alcotest.(check bool) "misaligned" true
    (findings_mention [ Cldf (0, 0, 4) ] ~spec:sp "misaligned");
  Alcotest.(check bool) "wild store" true
    (findings_mention [ Stf (0, 1, 0) ] ~spec:sp "wild access");
  Alcotest.(check bool) "negative charge" true
    (findings_mention [ Charge (-1) ] ~spec:sp "negative charge");
  Alcotest.(check bool) "unbalanced wrap" true
    (findings_mention
       [ Wrap (0, 0) ]
       ~spec:sp
       ~consts:[| -6.0 |]
       "unbalanced wrap");
  Alcotest.(check bool) "raw/checked mix" true
    (findings_mention
       [ Ldf (0, 0, 0); Cldf (1, 0, 8) ]
       ~spec:sp "mixes raw and checked");
  Alcotest.(check bool) "register range" true
    (findings_mention [ Add (7, 0, 0) ] ~spec:sp "register 7 out of range");
  Alcotest.(check bool) "aux range" true
    (findings_mention [ Auxst (0, 5) ] ~spec:sp "aux index 5 out of range")

let test_good_program_accepted () =
  let open Dsm.Prog in
  let p =
    compile ~consts:[| 2.0 |] ~nregs:2
      [ Cldf (0, 0, 0); Mulk (1, 0, 0); Cstf (1, 0, 8); Charge 3 ]
  in
  Alcotest.(check int) "clean program" 0
    (List.length
       (Progcheck.check_prog ~spec:(Progcheck.spec ~base0:16 ()) p))

(* ------------------------------------------------------------------ *)
(* Lock-order analysis. *)

let test_lock_cycle_detected () =
  let g = Lockgraph.create () in
  Lockgraph.add_edge g ~held:1 ~acquired:2;
  Lockgraph.add_edge g ~held:2 ~acquired:1;
  (match Lockgraph.cycles g with
  | [] -> Alcotest.fail "AB/BA cycle not detected"
  | c :: _ ->
    Alcotest.(check bool) "cycle names both locks" true
      (List.sort compare c = [ 1; 2 ]));
  let self = Lockgraph.create () in
  Lockgraph.add_edge self ~held:3 ~acquired:3;
  Alcotest.(check bool) "self cycle detected" true
    (Lockgraph.cycles self = [ [ 3 ] ])

let test_lock_order_acyclic_kv () =
  let g = Lockgraph.create () in
  let inst = (Shasta_apps.Kv.instance : App.maker) () in
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4
      ~heap_bytes:((max (1 lsl 22) inst.App.heap_bytes + 4095) / 4096 * 4096)
      ()
  in
  let h = Dsm.create cfg in
  let body, _ = inst.App.setup h in
  Dsm.add_observer h (Lockgraph.observer g);
  Dsm.run h body;
  Alcotest.(check (list (list Alcotest.int))) "kv acquisitions acyclic" []
    (Lockgraph.cycles g)

(* The observer tracks held sets correctly: nesting two locks in order
   produces exactly the one edge. *)
let test_lock_observer_edges () =
  let g = Lockgraph.create () in
  let o = Lockgraph.observer g in
  let open Shasta_core.Observer in
  o.on_lock_acquired ~proc:0 ~lock:10 ~now:0;
  o.on_lock_acquired ~proc:0 ~lock:11 ~now:1;
  o.on_lock_released ~proc:0 ~lock:11 ~now:2;
  o.on_lock_released ~proc:0 ~lock:10 ~now:3;
  (* Re-acquire in the same order: no new edge, still acyclic. *)
  o.on_lock_acquired ~proc:0 ~lock:10 ~now:4;
  o.on_lock_acquired ~proc:0 ~lock:11 ~now:5;
  Alcotest.(check (list (pair Alcotest.int Alcotest.int))) "one edge"
    [ (10, 11) ] (Lockgraph.edges g);
  Alcotest.(check (list (list Alcotest.int))) "acyclic" [] (Lockgraph.cycles g)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [
      ( "model",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "clean reachability" `Quick test_clean_reachability;
          Alcotest.test_case "branch and tag coverage" `Quick
            test_clean_coverage;
          Alcotest.test_case "crash reachability" `Quick
            test_crash_reachability;
          Alcotest.test_case "structural expected-dead branches" `Quick
            test_expected_dead;
          Alcotest.test_case "skip-private-downgrade exposed" `Quick
            (test_fault_exposed Config.Skip_private_downgrade
               "skip-private-downgrade" ~states:45 ~edges:169
               ~message:"proc 3: private Exclusive overstates node state Shared"
               ~trace:
                 [
                   "p0: load"; "p3: store"; "deliver read_req p0->p2";
                   "deliver downgrade p2->p3";
                 ]);
          Alcotest.test_case "skip-flag-stamp exposed" `Quick
            (test_fault_exposed Config.Skip_flag_stamp "skip-flag-stamp"
               ~states:53 ~edges:233
               ~message:"node 1: invalid without flag pattern"
               ~trace:
                 [
                   "p0: store"; "deliver readex_req p0->p2";
                   "deliver data_reply p2->p0"; "deliver own_ack p0->p2";
                 ]);
        ] );
      ( "conformance",
        [
          Alcotest.test_case "litmus scenarios" `Quick
            test_conformance_scenarios;
          QCheck_alcotest.to_alcotest conformance_prop;
        ] );
      ( "progs",
        [
          Alcotest.test_case "registered kernels verified" `Quick
            test_kernels_verified;
          Alcotest.test_case "registry lookup verifies" `Quick
            test_registry_find_verifies;
          Alcotest.test_case "crafted-bad programs rejected" `Quick
            test_bad_programs_rejected;
          Alcotest.test_case "good program accepted" `Quick
            test_good_program_accepted;
        ] );
      ( "locks",
        [
          Alcotest.test_case "crafted cycle detected" `Quick
            test_lock_cycle_detected;
          Alcotest.test_case "observer edge tracking" `Quick
            test_lock_observer_edges;
          Alcotest.test_case "kv lock order acyclic" `Quick
            test_lock_order_acyclic_kv;
        ] );
    ]
