(* One pass of a benchmark workload, printed as one JSON line.

     bench.exe pass  --workload W --seed N
     bench.exe trace --workload W --seed N [--spans FILE]

   [pass] runs the workload untraced: host spans around each layer call
   and the simulated results. [trace] runs it again with the metrics
   observer attached and every span kept (written to FILE), then the
   per-call layer probes. perfbench/run.py drives both, one fresh
   process per pass, and aggregates. *)

open Harness

(* Minimal JSON output. *)
type json =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec emit buf = function
  | I n -> Buffer.add_string buf (string_of_int n)
  | F x ->
    if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.17g" x)
    else Buffer.add_string buf "null"
  | S s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | B b -> Buffer.add_string buf (string_of_bool b)
  | L xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | O kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (S k);
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  emit buf j;
  Buffer.contents buf

(* Spans recorded in traced passes: name, start, end, parent index. *)
let spans : (string * float * float * int) list ref = ref []
let nspans = ref 0
let tracing = ref false

let record_span name t0 t1 parent =
  if !tracing then begin
    spans := (name, t0, t1, parent) :: !spans;
    incr nspans
  end;
  !nspans - 1

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* Allocation over [f] and the process's peak heap when it returns. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    O
      [
        ("minor_words", F (g1.Gc.minor_words -. g0.Gc.minor_words));
        ("major_words", F (g1.Gc.major_words -. g0.Gc.major_words));
        ("top_heap_words", I g1.Gc.top_heap_words);
      ] )

(* What one pass of a workload reports. [failures] are failed simulated
   runs; [mismatches] are other failed checks. *)
type pass = {
  wall : float;
  attempted : int;
  failures : string list;
  mismatches : string list;
  sim : json;  (** simulated results, identical in every pass *)
  units : json list;  (** host spans of each simulated run *)
  gc : json;
  extra : (string * json) list;
}

(* The Figure 3 row of [variant]: every spec executed once. *)
let fig3_pass ~seed variant =
  let traced = !tracing in
  (* One metrics observer per run, merged once the pass is done. *)
  let attached = ref [] in
  let observe h =
    if traced then
      attached := Shasta_trace.Metrics.attach (Dsm.machine h) :: !attached
  in
  let failures = ref [] in
  let pass0 = now () in
  let runs, gc =
    with_gc @@ fun () ->
    List.filter_map
      (fun spec ->
        let t0 = now () in
        match execute ~observe ~seed spec with
        | r ->
          let parent = record_span (label spec) t0 (now ()) (-1) in
          let t = ref t0 in
          List.iter
            (fun (name, d) ->
              ignore (record_span name !t (!t +. d) parent);
              t := !t +. d)
            [
              ("Registry.find", r.registry_s);
              ("Dsm.create", r.create_s);
              ("App.setup", r.app_setup_s);
              ("Dsm.run", r.run_s);
              ("verify", r.verify_s);
            ];
          if not r.verdict.App.ok then
            failures :=
              Printf.sprintf "%s: verification failed (%s)" (label spec)
                r.verdict.App.detail
              :: !failures;
          Some r
        | exception e ->
          failures :=
            Printf.sprintf "%s: raised %s" (label spec) (Printexc.to_string e)
            :: !failures;
          None)
      (fig3_specs variant)
  in
  let wall = now () -. pass0 in
  let metrics = Shasta_trace.Metrics.create () in
  List.iter (fun m -> Shasta_trace.Metrics.merge_into ~into:metrics m) !attached;
  let agg = Stats.aggregate (List.map (fun r -> r.stats) runs) in
  let fields = stats_fields agg in
  let field k = List.assoc k fields in
  let cycles = sum (fun r -> r.cycles) runs in
  let speedups =
    List.filter_map
      (fun app ->
        let find p =
          List.find_opt (fun r -> r.spec.Runner.app = app && p r.spec) runs
        in
        match
          ( find (fun s -> not s.Runner.checks),
            find (fun s -> s.Runner.checks && s.Runner.nprocs = 16) )
        with
        | Some seq, Some par ->
          Some (float_of_int seq.cycles /. float_of_int par.cycles)
        | _ -> None)
      Registry.splash2
  in
  let misses_read = field "misses_read_2hop" + field "misses_read_3hop" in
  let misses_write =
    field "misses_readex_2hop" + field "misses_readex_3hop"
    + field "misses_upgrade_2hop" + field "misses_upgrade_3hop"
  in
  let misses_3hop =
    field "misses_read_3hop" + field "misses_readex_3hop"
    + field "misses_upgrade_3hop"
  in
  let sim =
    [
      ("sim_cycles", I cycles);
      ("sim_speedup_geomean", F (geomean speedups));
      ("accesses", I (field "accesses"));
      ("checks", I (field "checks"));
      ("fast_hits", I (field "fast_hits"));
      ("prog_accesses", I (field "prog_accesses"));
      ("misses_read", I misses_read);
      ("misses_write", I misses_write);
      ("misses_3hop", I misses_3hop);
      ("private_upgrades", I (field "private_upgrades"));
      ("msgs_remote", I (sum (fun r -> r.remote_msgs) runs));
      ("msgs_local", I (sum (fun r -> r.local_msgs) runs));
      ("downgrade_msgs", I (sum (fun r -> r.downgrade_msgs) runs));
      ("switches", I (sum (fun r -> r.switches) runs));
      ("switches_elided", I (sum (fun r -> r.elided) runs));
    ]
    @ List.map
        (fun c ->
          let n = Stats.category_name c in
          ("cycles_" ^ n, I (field ("cycles_" ^ n))))
        Stats.categories
  in
  let units =
    List.map
      (fun r ->
        O
          [
            ("name", S (label r.spec));
            ("registry_s", F r.registry_s);
            ("create_s", F r.create_s);
            ("app_setup_s", F r.app_setup_s);
            ("run_s", F r.run_s);
            ("verify_s", F r.verify_s);
            ("cycles", I r.cycles);
          ])
      runs
  in
  let extra =
    if traced then
      let p q h = I (Shasta_util.Histogram.percentile h q) in
      let occ = Shasta_trace.Metrics.home_occupancy metrics in
      let busiest =
        List.fold_left
          (fun a k -> max a (Shasta_util.Histogram.count occ k))
          0 (Shasta_util.Histogram.keys occ)
      in
      [
        ( "metrics",
          O
            [
              ("misses", I (Shasta_trace.Metrics.misses metrics));
              ("miss_latency_p99_cycles",
               p 0.99 (Shasta_trace.Metrics.miss_latency metrics));
              ("downgrade_rtt_p99_cycles",
               p 0.99 (Shasta_trace.Metrics.downgrade_rtt metrics));
              ("recvs", I (Shasta_trace.Metrics.recvs metrics));
              ("busiest_receiver_msgs", I busiest);
            ] );
      ]
    else []
  in
  {
    wall;
    attempted = List.length (fig3_specs variant);
    failures = List.rev !failures;
    mismatches = [];
    sim = O sim;
    units;
    gc;
    extra;
  }

(* YCSB-A: one Ycsb.run timed whole, then the set-up half alone
   [setups] times. *)
let setups = 9

let ycsb_pass ~seed =
  let spec = ycsb_spec ~seed in
  let sw0, el0 = Shasta_sim.Engine.yield_counts () in
  let t0 = now () in
  let res, gc =
    with_gc (fun () ->
        try Ok (Ycsb.run spec) with e -> Error (Printexc.to_string e))
  in
  let t1 = now () in
  ignore (record_span "Ycsb.run" t0 t1 (-1));
  let sw1, el1 = Shasta_sim.Engine.yield_counts () in
  let setup =
    List.init setups (fun _ ->
        let t = now () in
        let c, k, nb, bc = ycsb_setup spec in
        ignore (record_span "Dsm.create" t (t +. c) (-1));
        ignore (record_span "Kv.create" (t +. c) (t +. c +. k) (-1));
        (c, k, nb, bc))
  in
  match res with
  | Error e ->
    {
      wall = t1 -. t0;
      attempted = 1;
      failures = [ "ycsb-a: raised " ^ e ];
      mismatches = [];
      sim = O [];
      units = [];
      gc;
      extra = [];
    }
  | Ok r ->
    let failures =
      if r.Ycsb.oracle_ok then [] else [ "ycsb-a: oracle " ^ r.Ycsb.oracle ]
    in
    let _, _, nb, bc = List.hd setup in
    let mismatches =
      if nb = r.Ycsb.nbuckets && bc = r.Ycsb.bcap then []
      else [ "ycsb-a: set-up replica geometry differs from Ycsb.run" ]
    in
    let cls c =
      List.find_opt (fun x -> x.Ycsb.cls = c) r.Ycsb.classes
    in
    let class_fields c name =
      match cls c with
      | None -> [ (name ^ "_ops", I 0); (name ^ "_msgs", I 0) ]
      | Some x ->
        let p q = I (Shasta_util.Histogram.percentile x.Ycsb.latency q) in
        [
          (name ^ "_ops", I x.Ycsb.count);
          (name ^ "_msgs", I x.Ycsb.msgs);
          (name ^ "_p50_cycles", p 0.5);
          (name ^ "_p99_cycles", p 0.99);
        ]
    in
    let sim =
      [
        ("sim_cycles", I r.Ycsb.parallel_cycles);
        ("kv_ops", I spec.Ycsb.ops);
        ("msgs_remote", I r.Ycsb.remote_msgs);
        ("msgs_local", I r.Ycsb.local_msgs);
        ("downgrade_msgs", I r.Ycsb.downgrade_msgs);
        ("switches", I (sw1 - sw0));
        ("switches_elided", I (el1 - el0));
        ("compiled", B r.Ycsb.compiled);
      ]
      @ class_fields Ycsb.Read "read"
      @ class_fields Ycsb.Update "update"
      @ [
          ( "background_msgs",
            I (match cls Ycsb.Other with Some x -> x.Ycsb.msgs | None -> 0) );
        ]
    in
    let units =
      [
        O
          [
            ("name", S "ycsb-a");
            ("run_s", F (t1 -. t0));
            ("create_s", L (List.map (fun (c, _, _, _) -> F c) setup));
            ("kv_create_s", L (List.map (fun (_, k, _, _) -> F k) setup));
            ("cycles", I r.Ycsb.parallel_cycles);
          ];
      ]
    in
    {
      wall = t1 -. t0;
      attempted = 1;
      failures;
      mismatches;
      sim = O sim;
      units;
      gc;
      extra = [];
    }

let probe_fields () =
  let p name (t : Probes.t) =
    ( name,
      O
        [
          ("ns", F t.Probes.ns);
          ("words", F t.Probes.words_per_call);
          ("calls", I t.Probes.calls);
          ("switches", F t.Probes.switches_per_call);
          ("msgs", F t.Probes.msgs_per_call);
        ] )
  in
  O
    [
      p "switch" (Probes.switch ());
      p "check_hit" (Probes.check_hit ());
      p "prog_op" (Probes.prog_op ());
      p "batch_access" (Probes.batch_access ());
      p "msg" (Probes.msg ());
      p "remote_miss" (Probes.remote_miss ());
      p "lock_pair" (Probes.lock_pair ());
      p "downgrade" (Probes.downgrade ());
      p "sample" (Probes.sample ~records:ycsb_records ());
    ]

let write_spans file =
  let base = List.fold_left (fun a (_, t0, _, _) -> min a t0) infinity !spans in
  let j =
    L
      (List.rev_map
         (fun (name, t0, t1, parent) ->
           O
             [
               ("name", S name);
               ("start_s", F (t0 -. base));
               ("end_s", F (t1 -. base));
               ("parent", I parent);
             ])
         !spans)
  in
  let oc = open_out file in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc

let usage () =
  prerr_endline
    "usage: bench.exe (pass|trace) --workload (fig3-smp|fig3-base|ycsb-a) \
     --seed N [--spans FILE]";
  exit 2

let () =
  pin_env ();
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let rec opts w s f = function
    | "--workload" :: x :: r -> opts (Some x) s f r
    | "--seed" :: x :: r -> opts w (int_of_string_opt x) f r
    | "--spans" :: x :: r -> opts w s (Some x) r
    | [] -> (w, s, f)
    | _ -> usage ()
  in
  let w, seed, spans_file = opts None (Some default_seed) None rest in
  let workload =
    match Option.bind w workload_of_string with Some w -> w | None -> usage ()
  in
  let seed = match seed with Some s -> s | None -> usage () in
  let traced =
    match mode with "pass" -> false | "trace" -> true | _ -> usage ()
  in
  tracing := traced;
  let env = effective_env () in
  (* The first Registry lookup statically verifies every kernel program;
     a process pays it once, before any timed span. *)
  let tk = now () in
  let (_ : App.maker) = Registry.find "lu" in
  let kernel_verify_s = now () -. tk in
  let p =
    match workload with
    | Fig3_smp -> fig3_pass ~seed Config.Smp
    | Fig3_base -> fig3_pass ~seed Config.Base
    | Ycsb_a -> ycsb_pass ~seed
  in
  let probes = if traced then [ ("probes", probe_fields ()) ] else [] in
  Option.iter write_spans spans_file;
  print_endline
    (to_string
       (O
          ([
             ("mode", S mode);
             ("seed", I seed);
             ("env", O (List.map (fun (k, v) -> (k, S v)) env));
             ("ocaml", S Sys.ocaml_version);
             ("kernel_verify_s", F kernel_verify_s);
             ("wall_s", F p.wall);
             ("attempted", I p.attempted);
             ("failed", I (List.length p.failures));
             ("failures", L (List.map (fun s -> S s) p.failures));
             ("mismatches", L (List.map (fun s -> S s) p.mismatches));
             ("sim", p.sim);
             ("units", L p.units);
             ("gc", p.gc);
           ]
          @ p.extra @ probes)))
