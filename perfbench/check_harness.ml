(* The benchmark's harness must reproduce Runner.run: the same
   parallel cycles, Stats counters and message counts for every spec of
   quick Figure 3. Exits 1 if any spec differs. *)

open Harness

let () =
  pin_env ();
  let specs =
    List.sort_uniq compare (fig3_specs Config.Smp @ fig3_specs Config.Base)
  in
  let bad = ref 0 in
  List.iter
    (fun spec ->
      let d = execute ~seed:default_seed spec in
      let r = Runner.run spec in
      let same =
        d.cycles = r.Runner.parallel_cycles
        && stats_fields d.stats = stats_fields r.Runner.stats
        && d.local_msgs = r.Runner.local_msgs
        && d.remote_msgs = r.Runner.remote_msgs
        && d.downgrade_msgs = r.Runner.downgrade_msgs
        && d.verdict.App.ok
      in
      if not same then begin
        incr bad;
        Printf.printf "MISMATCH %s: harness %d cycles, Runner.run %d\n%!"
          (label spec) d.cycles r.Runner.parallel_cycles
      end)
    specs;
  Printf.printf "harness vs Runner.run: %d specs, %d differ\n"
    (List.length specs) !bad;
  if !bad > 0 then exit 1
