(* Unit tests for the domain pool behind the multicore experiment
   runner: ordering, exception propagation at the join point, the
   in-place jobs=1 degradation, and oversubscription. *)

module Pool = Shasta_util.Pool

exception Boom of int

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let ys = Pool.map_list ~jobs:4 (fun i -> i * i) xs in
  Alcotest.(check (list int)) "results in submission order"
    (List.map (fun i -> i * i) xs)
    ys

let test_exception_at_join () =
  Alcotest.check_raises "worker exception re-raised by await" (Boom 5)
    (fun () ->
      ignore
        (Pool.map_list ~jobs:3
           (fun i -> if i = 5 then raise (Boom i) else i)
           (List.init 10 Fun.id)));
  (* Same contract in the in-place mode: submit captures, await raises. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let fut = Pool.submit pool (fun () -> raise (Boom 1)) in
      let ok = Pool.submit pool (fun () -> 42) in
      Alcotest.(check int) "later job unaffected" 42 (Pool.await ok);
      Alcotest.check_raises "in-place exception re-raised by await" (Boom 1)
        (fun () -> ignore (Pool.await fut)))

let test_jobs1_in_place () =
  let main = Domain.self () in
  let domains =
    Pool.map_list ~jobs:1 (fun _ -> Domain.self ()) (List.init 8 Fun.id)
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "jobs=1 runs on the submitting domain" true
        (d = main))
    domains

let test_workers_are_domains () =
  let main = Domain.self () in
  let domains =
    Pool.map_list ~jobs:2 (fun _ -> Domain.self ()) (List.init 8 Fun.id)
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "jobs>1 runs on worker domains" true (d <> main))
    domains

let test_stress_oversubscribed () =
  (* Many more tasks than workers, with skewed task sizes, so the queue
     stays hot and completion order diverges from submission order. *)
  let n = 500 in
  let work i =
    let iters = 1 + ((i * 37) mod 400) in
    let acc = ref i in
    for k = 1 to iters do
      acc := (!acc * 31) + k
    done;
    (i, !acc)
  in
  let expected = List.init n work in
  let got = Pool.map_list ~jobs:3 work (List.init n Fun.id) in
  Alcotest.(check (list (pair int int))) "all results, in order" expected got

let test_submit_after_shutdown () =
  let pool = Pool.create ~jobs:2 in
  Alcotest.(check int) "jobs recorded" 2 (Pool.jobs pool);
  let fut = Pool.submit pool (fun () -> 7) in
  Pool.shutdown pool;
  Alcotest.(check int) "queued job finished by shutdown" 7 (Pool.await fut);
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> 0)))

let test_default_jobs_env () =
  (* Can't portably set the environment of this process, but the default
     must at least be a positive count. *)
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* The first app lookup verifies every kernel program once; lookups
   racing in from several worker domains must all wait for that check
   rather than fail. This is the first lookup in this process. *)
let test_concurrent_first_lookup () =
  let names = Shasta_apps.Registry.names in
  let found =
    Pool.map_list ~jobs:4
      (fun n ->
        let _maker = Shasta_apps.Registry.find n in
        n)
      (names @ names)
  in
  Alcotest.(check (list string)) "every lookup succeeds" (names @ names) found

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "exception at join" `Quick test_exception_at_join;
          Alcotest.test_case "jobs=1 in place" `Quick test_jobs1_in_place;
          Alcotest.test_case "workers are domains" `Quick
            test_workers_are_domains;
          Alcotest.test_case "stress oversubscribed" `Quick
            test_stress_oversubscribed;
          Alcotest.test_case "shutdown semantics" `Quick
            test_submit_after_shutdown;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
          Alcotest.test_case "concurrent first app lookup" `Quick
            test_concurrent_first_lookup;
        ] );
    ]
