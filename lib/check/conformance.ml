(* Conformance driver: check real litmus runs against the abstract
   model's label vocabulary.

   {!Shasta_verify.Conform} supplies the projection observer and the
   reference label set (the clean model's exhaustive exploration); this
   module supplies the runs — every litmus scenario under the default
   schedule plus a battery of PRNG-fuzzed schedules, the same
   (scenario, seed) space the schedule fuzzer walks. A mismatch means
   the simulator performed a per-block transition or send the model
   says the protocol cannot perform: either a protocol bug or a model
   gap, and either way worth failing CI over. *)

module Dsm = Shasta_core.Dsm
module Verify = Shasta_verify
module Prng = Shasta_util.Prng

type report = {
  scenario : string;
  runs : int;
  events : int;  (** projected hook events checked across all runs *)
  mismatches : string list;
      (** distinct out-of-model labels, first-seen order; empty =
          conformant *)
}

let random_choose seed =
  let prng = Prng.create (0x5eed + (seed * 2654435761)) in
  fun (cands : int array) -> cands.(Prng.int prng (Array.length cands))

let default_choose (cands : int array) = cands.(0)

let check_scenario ?(seeds = 64) (sc : Litmus.scenario) =
  let labels = Verify.Conform.reference_labels () in
  let runs = ref 0 in
  let events = ref 0 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let one choose =
    let inst = sc.Litmus.make ~fault:None in
    let m = Dsm.machine inst.Litmus.handle in
    let conf = Verify.Conform.make ~labels m in
    Dsm.add_observer inst.Litmus.handle conf.Verify.Conform.observer;
    Dsm.run ~choose inst.Litmus.handle inst.Litmus.body;
    (* The reference vocabulary is the crash-free model's (see
       Conform.reference): a run that crashed would project recovery
       re-injections against labels that deliberately exclude them.
       Conformance runs never schedule crashes; fail loudly if one did
       rather than report spurious mismatches. *)
    if m.Shasta_core.Machine.crashes > 0 then
      failwith "conformance run crashed: crash runs are checked by the \
                crash litmus sweep, not the conformance oracle";
    incr runs;
    events := !events + conf.Verify.Conform.events ();
    List.iter
      (fun d ->
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.add seen d ();
          order := d :: !order
        end)
      (conf.Verify.Conform.mismatches ())
  in
  one default_choose;
  for seed = 0 to seeds - 1 do
    one (random_choose seed)
  done;
  {
    scenario = sc.Litmus.name;
    runs = !runs;
    events = !events;
    mismatches = List.rev !order;
  }

let check_all ?seeds () = List.map (check_scenario ?seeds) Litmus.scenarios

let pp_report ppf r =
  Format.fprintf ppf "%-20s %3d runs, %6d events: %s" r.scenario r.runs
    r.events
    (match r.mismatches with
    | [] -> "conformant"
    | ms ->
      Format.asprintf "%d out-of-model label(s): %s" (List.length ms)
        (String.concat "; " ms))
