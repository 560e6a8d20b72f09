(* Per-call host cost of each layer's hot public function, measured by
   calling it in a loop from outside the library. Each probe reports
   nanoseconds and minor-heap words per call as the median of [reps]
   repetitions, plus the switches and messages the probe itself
   performed so the caller can net them out. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module Engine = Shasta_sim.Engine
module Network = Shasta_net.Network
module Topology = Shasta_net.Topology
module Link = Shasta_net.Link
module Sampler = Shasta_workload.Sampler

type sample = {
  seconds : float;
  words : float;  (** minor-heap words allocated *)
  calls : int;  (** calls of the probed function *)
  switches : int;  (** scheduler yields performed inside the span *)
  msgs : int;  (** protocol messages sent inside the span *)
}

type t = {
  ns : float;  (** median host nanoseconds per call *)
  words_per_call : float;
  calls : int;
  switches_per_call : float;
  msgs_per_call : float;
}

let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let span f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t = Unix.gettimeofday () -. t0 in
  (t, Gc.minor_words () -. w0, r)

let summarize (samples : sample list) =
  let per (f : sample -> float) =
    median (List.map (fun (s : sample) -> f s /. float_of_int s.calls) samples)
  in
  let s0 : sample = List.hd samples in
  {
    ns = per (fun s -> s.seconds *. 1e9);
    words_per_call = per (fun s -> s.words);
    calls = s0.calls;
    switches_per_call = per (fun s -> float_of_int s.switches);
    msgs_per_call = per (fun s -> float_of_int s.msgs);
  }

let repeat f = summarize (List.init reps (fun _ -> f ()))

(* A body timed from inside the simulated processor, so machine
   construction and teardown stay out of the span. *)
let timed_in_body h body =
  let r = ref (0.0, 0.0) in
  Dsm.run h (fun ctx ->
      let t, w, () = span (fun () -> body ctx) in
      if Dsm.pid ctx = 0 then r := (t, w));
  !r

let msgs h = Dsm.messages_local h + Dsm.messages_remote h

(* Engine: a performed continuation switch. Four processors with zero
   lookahead charge one cycle at a time, so nearly every charge reaches
   the horizon and yields. *)
let switch () =
  repeat (fun () ->
      let t, w, o =
        span (fun () ->
            Engine.run ~nprocs:4 (fun p ->
                for _ = 1 to 20_000 do
                  Engine.advance p 1
                done))
      in
      let n = o.Engine.yields_performed in
      { seconds = t; words = w; calls = n; switches = n; msgs = 0 })

(* Dsm inline check: a load that hits, on a one-processor machine whose
   data is all local. *)
let check_hit () =
  let n = 200_000 in
  repeat (fun () ->
      let h = Dsm.create (Config.create ~variant:Config.Base ~nprocs:1 ()) in
      let a = Dsm.alloc_floats h 64 in
      let t, w =
        timed_in_body h (fun ctx ->
            for i = 1 to n do
              ignore (Dsm.load_float ctx (a + (8 * (i land 63))))
            done)
      in
      { seconds = t; words = w; calls = n; switches = 0; msgs = 0 })

(* The daxpy row kernel inside one batch, dispatched either as a
   compiled access program or through per-access Batch closures. Calls
   are the accesses Stats counts. *)
let row_kernel use_prog =
  let len = 64 and rows = 2_000 in
  repeat (fun () ->
      let h = Dsm.create (Config.create ~variant:Config.Base ~nprocs:1 ()) in
      let dst = Dsm.alloc_floats h ~block_size:512 len in
      let src = Dsm.alloc_floats h ~block_size:512 len in
      let t, w =
        timed_in_body h (fun ctx ->
            let prog = Dsm.Prog.fms_row ~len ~cost:6 in
            for _ = 1 to rows do
              Dsm.batch ctx
                [ (dst, len * 8, Dsm.W); (src, len * 8, Dsm.R) ]
                (fun () ->
                  if use_prog then
                    Dsm.Prog.run ctx prog ~s:2.0 ~aux:Dsm.Prog.no_aux
                      ~base0:dst ~base1:src ~base2:0
                  else
                    for c = 0 to len - 1 do
                      let v = Dsm.Batch.load_float ctx (src + (8 * c)) in
                      let d = Dsm.Batch.load_float ctx (dst + (8 * c)) in
                      Dsm.Batch.store_float ctx (dst + (8 * c)) (d -. (2.0 *. v));
                      Dsm.compute ctx 6
                    done)
            done)
      in
      let st = Dsm.aggregate_stats h in
      { seconds = t; words = w; calls = st.Stats.accesses; switches = 0; msgs = 0 })

let prog_op () = row_kernel true
let batch_access () = row_kernel false

(* Protocol: a two-hop remote read miss. Processor 0 reads [k] blocks
   homed on processor 1, on another physical node. *)
let remote_miss () =
  let k = 2_048 in
  repeat (fun () ->
      let h =
        Dsm.create
          (Config.create ~variant:Config.Base ~nprocs:2 ~procs_per_node:1 ())
      in
      let a = Dsm.alloc h ~block_size:64 ~home:1 (64 * k) in
      let b = Dsm.alloc_barrier h in
      let t, w, () =
        span (fun () ->
            Dsm.run h (fun ctx ->
                if Dsm.pid ctx = 0 then
                  for i = 0 to k - 1 do
                    ignore (Dsm.load_float ctx (a + (64 * i)))
                  done;
                Dsm.barrier ctx b))
      in
      let st = Dsm.aggregate_stats h in
      {
        seconds = t;
        words = w;
        calls = Stats.total_misses st;
        switches = fst (Dsm.sched_counts h);
        msgs = msgs h;
      })

(* Protocol: an uncontended lock acquire/release pair on its home. *)
let lock_pair () =
  let n = 100_000 in
  repeat (fun () ->
      let h = Dsm.create (Config.create ~variant:Config.Base ~nprocs:1 ()) in
      let l = Dsm.alloc_lock h in
      let t, w =
        timed_in_body h (fun ctx ->
            for _ = 1 to n do
              Dsm.lock ctx l;
              Dsm.unlock ctx l
            done)
      in
      { seconds = t; words = w; calls = n; switches = 0; msgs = msgs h })

(* Downgrade: [writers] siblings of node 1 store to [k] blocks homed
   there, then processor 0 on node 0 reads them, forcing node 1 to
   lower its siblings' private entries. *)
let downgrade_run ~writers =
  let k = 512 in
  let h =
    Dsm.create (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ())
  in
  let a = Dsm.alloc h ~block_size:64 ~home:4 (64 * k) in
  let b = Dsm.alloc_barrier h in
  let t, w, () =
    span (fun () ->
        Dsm.run h (fun ctx ->
            let p = Dsm.pid ctx in
            if p >= 4 && p < 4 + writers then
              for i = 0 to k - 1 do
                Dsm.store_float ctx (a + (64 * i)) 1.0
              done;
            Dsm.barrier ctx b;
            if p = 0 then
              for i = 0 to k - 1 do
                ignore (Dsm.load_float ctx (a + (64 * i)))
              done;
            Dsm.barrier ctx b))
  in
  (t, w, Dsm.downgrade_messages h, fst (Dsm.sched_counts h), msgs h)

(* The per-message cost is the difference between three writing
   siblings and one, over the difference in downgrade messages. *)
let downgrade () =
  repeat (fun () ->
      let t3, w3, d3, s3, m3 = downgrade_run ~writers:3 in
      let t1, w1, d1, s1, m1 = downgrade_run ~writers:1 in
      {
        seconds = t3 -. t1;
        words = w3 -. w1;
        calls = d3 - d1;
        switches = s3 - s1;
        msgs = m3 - m1;
      })

(* Network: one Network.send plus the Network.poll that delivers it,
   between processors on different physical nodes. *)
let msg () =
  let n = 200_000 in
  repeat (fun () ->
      let net =
        Network.create (Topology.create ~nprocs:8 ~procs_per_node:4) Link.default
      in
      let t, w, () =
        span (fun () ->
            for i = 1 to n do
              Network.send net ~src:0 ~dst:4 ~now:i ~size:64 i;
              ignore (Network.poll net ~dst:4 ~now:max_int)
            done)
      in
      { seconds = t; words = w; calls = n; switches = 0; msgs = n })

(* Ycsb key stream: one zipfian draw over the benchmark's keyspace. *)
let sample ~records () =
  let n = 1_000_000 in
  repeat (fun () ->
      let s = Sampler.zipfian ~seed:1 ~n:records ~theta:0.99 () in
      let t, w, () =
        span (fun () ->
            for _ = 1 to n do
              ignore (Sampler.next s)
            done)
      in
      { seconds = t; words = w; calls = n; switches = 0; msgs = 0 })
