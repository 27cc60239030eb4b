(* Adversarial property tests: random fault schedules, client mixes and
   seeds must never violate the paper's safety properties (agreement,
   non-triviality, state convergence, session integrity), whatever they
   do to liveness. *)

module Runner = Ci_workload.Runner
module Sim_time = Ci_engine.Sim_time
module Consistency = Ci_rsm.Consistency

(* A random fault schedule: up to three slowdown windows on arbitrary
   cores of the 8-core machine, various severities including full
   crashes (an infinite factor). *)
let fault_gen =
  QCheck.Gen.(
    list_size (int_bound 3)
      (let* core = int_bound 7 in
       let* start_ms = int_range 1 25 in
       let* len_ms = int_range 1 40 in
       let* sev = int_bound 3 in
       let factor = [| 5.; 30.; 200.; infinity |].(sev) in
       return
         (Ci_faults.Slow
            {
              core;
              from_ = Sim_time.ms start_ms;
              until_ = Sim_time.ms (start_ms + len_ms);
              factor;
            })))

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 100_000 in
    let* faults = fault_gen in
    let* clients = int_range 1 5 in
    let* read_pct = int_bound 50 in
    return (seed, faults, clients, read_pct))

let scenario_print (seed, faults, clients, read_pct) =
  Format.asprintf "seed=%d clients=%d reads=%d%% faults=[%a]" seed clients
    read_pct
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") Ci_faults.pp_fault)
    faults

let scenario = QCheck.make ~print:scenario_print scenario_gen

let run_scenario protocol (seed, faults, clients, read_pct) =
  let spec =
    {
      (Runner.default_spec ~protocol
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = clients }))
      with
      Runner.topology = Ci_machine.Topology.opteron_8;
      duration = Sim_time.ms 40;
      warmup = Sim_time.ms 2;
      drain = Sim_time.ms 30;
      seed;
      read_ratio = float_of_int read_pct /. 100.;
      timeout = Sim_time.ms 1;
      nemesis = { Ci_faults.empty with faults };
    }
  in
  Runner.run spec

let safety_prop protocol name =
  QCheck.Test.make ~name ~count:40 scenario (fun sc ->
      let r = run_scenario protocol sc in
      if not (Consistency.ok r.Runner.consistency) then
        QCheck.Test.fail_reportf "%a" Consistency.pp r.Runner.consistency
      else true)

(* The batching layer must preserve every safety property at every
   (batch size, pipeline depth) point, under the same randomized fault
   schedules — including leadership changes that force the leader to
   requeue a half-full batch. *)
let batched_scenario_gen =
  QCheck.Gen.(
    let* sc = scenario_gen in
    let* batch = oneofl [ 1; 2; 4; 8 ] in
    let* pipeline = oneofl [ 0; 1; 2; 8 ] in
    let* coalesce = oneofl [ 1; 4 ] in
    return (sc, batch, pipeline, coalesce))

let batched_scenario =
  QCheck.make
    ~print:(fun (sc, batch, pipeline, coalesce) ->
      Printf.sprintf "%s batch=%d pipeline=%d coalesce=%d" (scenario_print sc)
        batch pipeline coalesce)
    batched_scenario_gen

let run_batched protocol ((seed, faults, clients, read_pct), batch, pipeline, coalesce)
    =
  let spec =
    {
      (Runner.default_spec ~protocol
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = clients }))
      with
      Runner.topology = Ci_machine.Topology.opteron_8;
      duration = Sim_time.ms 40;
      warmup = Sim_time.ms 2;
      drain = Sim_time.ms 30;
      seed;
      read_ratio = float_of_int read_pct /. 100.;
      timeout = Sim_time.ms 1;
      nemesis = { Ci_faults.empty with faults };
      batch;
      pipeline;
      params =
        { Ci_machine.Net_params.multicore with Ci_machine.Net_params.coalesce };
    }
  in
  Runner.run spec

let batched_safety_prop protocol name =
  QCheck.Test.make ~name ~count:40 batched_scenario (fun sc ->
      let r = run_batched protocol sc in
      if not (Consistency.ok r.Runner.consistency) then
        QCheck.Test.fail_reportf "%a" Consistency.pp r.Runner.consistency
      else true)

(* Liveness under recoverable faults: if every fault window closes well
   before the end of the run and spares a majority... we assert the
   weaker, always-true property that commits made before the first
   fault are never lost (captured by session integrity) and that a
   fault-free tail lets 1Paxos commit again. *)
let recovery_prop =
  QCheck.Test.make ~name:"1paxos recovers after transient faults" ~count:25
    QCheck.(
      make
        ~print:(fun (seed, core) -> Printf.sprintf "seed=%d core=%d" seed core)
        Gen.(pair (int_bound 100_000) (int_bound 2)))
    (fun (seed, core) ->
      let spec =
        {
          (Runner.default_spec ~protocol:Runner.Onepaxos
             ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 3 }))
          with
          Runner.topology = Ci_machine.Topology.opteron_8;
          duration = Sim_time.ms 60;
          warmup = Sim_time.ms 2;
          drain = Sim_time.ms 5;
          seed;
          timeout = Sim_time.ms 1;
          nemesis =
            {
              Ci_faults.empty with
              faults =
                [
                  Ci_faults.Slow
                    {
                      core;
                      from_ = Sim_time.ms 5;
                      until_ = Sim_time.ms 20;
                      factor = infinity;
                    };
                ];
            };
        }
      in
      let r = Runner.run spec in
      (* Commits in the post-recovery half of the window. *)
      let buckets = r.Runner.timeline in
      let tail_commits =
        Array.to_list buckets
        |> List.filteri (fun i _ -> i >= 3)
        |> List.fold_left ( +. ) 0.
      in
      Consistency.ok r.Runner.consistency && tail_commits > 0.)

(* Pinned scenarios that once violated agreement; kept as deterministic
   regressions. *)
let slow core from_ until_ factor =
  Ci_faults.Slow
    { core; from_ = Sim_time.ms from_; until_ = Sim_time.ms until_; factor }

(* A stale takeover attempt on replica 2 (its leadership lost while its
   acceptor adoption was still knocking) adopted a freshly installed
   acceptor and ran as a second concurrent leader, deciding a different
   value at an instance the configuration-log leader had already filled
   through the previous acceptor. *)
let regression_1paxos_stale_takeover () =
  let r =
    run_scenario Runner.Onepaxos
      (70649, [ slow 2 8 39 30.; slow 1 25 56 infinity; slow 3 4 8 infinity ], 2, 39)
  in
  if not (Consistency.ok r.Runner.consistency) then
    Alcotest.failf "%a" Consistency.pp r.Runner.consistency

(* An epoch whose leader never became operational vouched for history
   with an empty acceptor store, dropping decided instances across a
   reconfiguration (the chain-of-custody bug in Cheap Paxos). *)
let regression_cheap_paxos_empty_vouch () =
  let r =
    run_scenario Runner.Cheappaxos
      (71957, [ slow 2 20 53 infinity; slow 1 10 22 infinity ], 1, 34)
  in
  if not (Consistency.ok r.Runner.consistency) then
    Alcotest.failf "%a" Consistency.pp r.Runner.consistency

(* Determinism: identical scenarios give identical measurements. *)
let determinism_prop =
  QCheck.Test.make ~name:"scenarios are deterministic" ~count:10 scenario
    (fun sc ->
      let a = run_scenario Runner.Onepaxos sc in
      let b = run_scenario Runner.Onepaxos sc in
      a.Runner.commits = b.Runner.commits
      && a.Runner.messages = b.Runner.messages
      && a.Runner.retries = b.Runner.retries)

let suite =
  ( "properties",
    [
      QCheck_alcotest.to_alcotest (safety_prop Runner.Onepaxos "1paxos safety under random faults");
      QCheck_alcotest.to_alcotest
        (safety_prop Runner.Multipaxos "multipaxos safety under random faults");
      QCheck_alcotest.to_alcotest (safety_prop Runner.Twopc "2pc safety under random faults");
      QCheck_alcotest.to_alcotest
        (safety_prop Runner.Mencius "mencius safety under random faults");
      QCheck_alcotest.to_alcotest
        (safety_prop Runner.Cheappaxos "cheap paxos safety under random faults");
      QCheck_alcotest.to_alcotest
        (batched_safety_prop Runner.Onepaxos
           "1paxos safety across the (batch, pipeline) grid");
      QCheck_alcotest.to_alcotest
        (batched_safety_prop Runner.Multipaxos
           "multipaxos safety across the (batch, pipeline) grid");
      QCheck_alcotest.to_alcotest recovery_prop;
      QCheck_alcotest.to_alcotest determinism_prop;
      Alcotest.test_case "regression: 1paxos stale takeover split-brain" `Slow
        regression_1paxos_stale_takeover;
      Alcotest.test_case "regression: cheap paxos empty-store vouch" `Slow
        regression_cheap_paxos_empty_vouch;
    ] )
