module Pool = Ci_workload.Pool
module Runner = Ci_workload.Runner
module E = Ci_workload.Experiments
module Sim_time = Ci_engine.Sim_time

(* ----- parallel_map = Array.map ----------------------------------------- *)

let prop_matches_array_map jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "parallel_map = Array.map (jobs=%d)" jobs)
    ~count:100
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, chunk) ->
      let xs = Array.of_list xs in
      let f x = (x * 7919) + 13 in
      Pool.parallel_map ~chunk ~jobs f xs = Array.map f xs)

exception Boom of int

let prop_exception_propagates jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "exceptions re-raised in caller (jobs=%d)" jobs)
    ~count:50
    QCheck.(int_range 1 40)
    (fun n ->
      (* Every element raises, so whichever worker finishes first the
         caller must observe some Boom payload from the input. *)
      let xs = Array.init n (fun i -> i) in
      match Pool.parallel_map ~jobs (fun i -> raise (Boom i)) xs with
      | _ -> false
      | exception Boom i -> i >= 0 && i < n)

let test_single_failure () =
  List.iter
    (fun jobs ->
      let xs = Array.init 64 (fun i -> i) in
      match
        Pool.parallel_map ~jobs
          (fun i -> if i = 37 then raise (Boom i) else i)
          xs
      with
      | _ -> Alcotest.failf "jobs=%d: exception swallowed" jobs
      | exception Boom 37 -> ())
    [ 1; 2; 8 ]

let test_invalid_args () =
  let xs = [| 1; 2 |] in
  (try
     ignore (Pool.parallel_map ~jobs:0 Fun.id xs);
     Alcotest.fail "jobs=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Pool.parallel_map ~chunk:0 ~jobs:2 Fun.id xs);
    Alcotest.fail "chunk=0 accepted"
  with Invalid_argument _ -> ()

let test_empty_and_singleton () =
  Alcotest.(check (array int))
    "empty" [||]
    (Pool.parallel_map ~jobs:8 (fun x -> x + 1) [||]);
  Alcotest.(check (array int))
    "singleton" [| 42 |]
    (Pool.parallel_map ~jobs:8 (fun x -> x + 1) [| 41 |])

let test_default_jobs_env () =
  Alcotest.(check bool)
    "positive" true
    (Pool.default_jobs () >= 1)

(* ----- determinism across jobs ------------------------------------------- *)

(* The satellite requirement: a figures section's rendered report is
   byte-identical at jobs=1 vs jobs=4. latency_table is the cheapest
   section that still runs three full protocol simulations. *)
let test_figures_deterministic () =
  let render jobs =
    Format.asprintf "%a" E.pp_latency_table
      (E.latency_table ~jobs ~duration:(Sim_time.ms 5) ())
  in
  Alcotest.(check string) "latency section, jobs=1 vs jobs=4" (render 1) (render 4)

let test_parallel_runs_match_serial () =
  (* Same batch of real simulation specs through the pool at several
     job counts: the measured results must be identical, element by
     element, to the sequential run. *)
  let specs =
    Array.init 6 (fun i ->
        {
          (Runner.default_spec ~protocol:Runner.Onepaxos
             ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 3 }))
          with
          Runner.seed = 100 + i;
          duration = Sim_time.ms 5;
          warmup = Sim_time.ms 1;
          drain = Sim_time.ms 1;
        })
  in
  let fingerprint (r : Runner.result) =
    (r.Runner.sim_events, r.Runner.commits, r.Runner.messages, r.Runner.throughput)
  in
  let serial = Array.map (fun s -> fingerprint (Runner.run s)) specs in
  List.iter
    (fun jobs ->
      let got =
        Array.map fingerprint (Pool.parallel_map ~jobs Runner.run specs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true (got = serial))
    [ 2; 4 ]

(* ----- gangs and worker reuse ------------------------------------------- *)

let now () = Unix.gettimeofday ()

(* Every thunk checks in, then waits for the others until a deadline: on
   a pool that ran thunks one after another the first would give up at
   the deadline instead of hanging, and the test would fail. *)
let test_gang_concurrent () =
  let n = 4 in
  let arrived = Atomic.make 0 in
  let met = Atomic.make 0 in
  let deadline = now () +. 0.5 in
  Pool.await
    (Pool.gang
       (Array.make n (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < n && now () < deadline do
              Unix.sleepf 0.0005
            done;
            if Atomic.get arrived = n then Atomic.incr met)));
  Alcotest.(check int) "every thunk met the others" n (Atomic.get met)

let gang_domains n =
  let ids = Array.make n (-1) in
  Pool.await
    (Pool.gang
       (Array.init n (fun i () -> ids.(i) <- (Domain.self () :> int))));
  Array.to_list ids

let test_gang_reuses_workers () =
  let first = gang_domains 4 in
  let spawned = Pool.spawned () in
  let second = gang_domains 4 in
  Alcotest.(check int) "four distinct domains" 4
    (List.length (List.sort_uniq compare first));
  Alcotest.(check bool) "the caller is not one of them" false
    (List.mem (Domain.self () :> int) first);
  Alcotest.(check (list int)) "each thunk on its domain of last time" first
    second;
  Alcotest.(check int) "no new spawn" spawned (Pool.spawned ())

exception Thunk of int

let test_gang_failure_after_all () =
  let finished = Atomic.make 0 in
  let thunk i () =
    match i with
    | 0 -> raise (Thunk 0)
    | 1 ->
      Unix.sleepf 0.1;
      raise (Thunk 1)
    | _ ->
      Unix.sleepf 0.05;
      Atomic.incr finished
  in
  (match Pool.await (Pool.gang (Array.init 4 thunk)) with
   | () -> Alcotest.fail "exception swallowed"
   | exception Thunk 0 -> ()
   | exception Thunk i -> Alcotest.failf "thunk %d's exception, not the first" i);
  Alcotest.(check int) "the others ran to the end first" 2 (Atomic.get finished);
  let ran = Atomic.make 0 in
  Pool.await (Pool.gang (Array.make 4 (fun () -> Atomic.incr ran)));
  Alcotest.(check int) "the pool still runs gangs" 4 (Atomic.get ran)

(* Waits up to a deadline for the pool to empty; the grace is a few
   hundred ms. *)
let wait_for_retirement () =
  let deadline = now () +. Pool.grace_s +. 0.5 in
  while Pool.workers () > 0 && now () < deadline do
    Unix.sleepf 0.01
  done;
  Pool.workers ()

let test_idle_workers_retire () =
  Pool.await (Pool.gang (Array.make 2 ignore));
  Alcotest.(check bool) "workers alive after a gang" true (Pool.workers () >= 2);
  Alcotest.(check int) "no worker after the grace period" 0
    (wait_for_retirement ())

(* ----- allocation regression guard ---------------------------------------- *)

(* This reference run (1Paxos, 3 replicas, 13 clients, 50 ms) sat at
   ~58 words/event before the hot-path allocation diet (10712473 words
   / 183436 events); the diet's acceptance floor is a >= 25% reduction,
   i.e. <= 44. Measured after: ~37. perfbench's
   sim.alloc_words_per_event tracks the same cost with its spread. The
   budget leaves headroom for GC jitter while still failing if a boxing
   regression sneaks back into the per-event path. *)
let test_alloc_words_per_event_budget () =
  let spec =
    Runner.default_spec ~protocol:Runner.Onepaxos
      ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 })
  in
  (* Warm: first run pays one-off table/ring growth. *)
  ignore (Runner.run spec);
  let b0 = Gc.allocated_bytes () in
  let r = Runner.run spec in
  let bytes = Gc.allocated_bytes () -. b0 in
  let words_per_event =
    bytes /. float_of_int (Sys.word_size / 8) /. float_of_int r.Runner.sim_events
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/event <= 44 budget" words_per_event)
    true
    (words_per_event <= 44.)

let suite =
  ( "pool",
    [
      QCheck_alcotest.to_alcotest (prop_matches_array_map 1);
      QCheck_alcotest.to_alcotest (prop_matches_array_map 2);
      QCheck_alcotest.to_alcotest (prop_matches_array_map 8);
      QCheck_alcotest.to_alcotest (prop_exception_propagates 1);
      QCheck_alcotest.to_alcotest (prop_exception_propagates 2);
      QCheck_alcotest.to_alcotest (prop_exception_propagates 8);
      Alcotest.test_case "single failing element" `Quick test_single_failure;
      Alcotest.test_case "invalid jobs/chunk" `Quick test_invalid_args;
      Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
      Alcotest.test_case "default_jobs positive" `Quick test_default_jobs_env;
      Alcotest.test_case "figures byte-identical jobs=1 vs 4" `Quick
        test_figures_deterministic;
      Alcotest.test_case "parallel runs match serial" `Quick
        test_parallel_runs_match_serial;
      Alcotest.test_case "alloc words/event budget" `Quick
        test_alloc_words_per_event_budget;
      Alcotest.test_case "gang thunks run concurrently" `Quick test_gang_concurrent;
      Alcotest.test_case "consecutive gangs reuse the same domains" `Quick
        test_gang_reuses_workers;
      Alcotest.test_case "gang re-raises the first exception after all finish"
        `Quick test_gang_failure_after_all;
      Alcotest.test_case "idle workers retire after the grace period" `Quick
        test_idle_workers_retire;
    ] )
