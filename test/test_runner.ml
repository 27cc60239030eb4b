(* The experiment runner: placements, measurement windows, faults. *)

module Runner = Ci_workload.Runner
module Protocol = Ci_consensus.Protocol
module Sim_time = Ci_engine.Sim_time
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params

let quick_spec ?(protocol = Runner.Onepaxos) ?(placement = Runner.Dedicated { n_replicas = 3; n_clients = 3 }) () =
  {
    (Runner.default_spec ~protocol ~placement) with
    Runner.duration = Sim_time.ms 10;
    warmup = Sim_time.ms 2;
    drain = Sim_time.ms 2;
  }

let test_throughput_consistent_with_commits () =
  let r = Runner.run (quick_spec ()) in
  let expected = float_of_int r.Runner.commits /. 0.010 in
  Alcotest.(check (float 1.0)) "throughput = commits / duration" expected
    r.Runner.throughput;
  Alcotest.(check bool) "window excludes warmup+drain replies" true
    (r.Runner.total_replies > r.Runner.commits)

let test_latency_summary_populated () =
  let r = Runner.run (quick_spec ()) in
  Alcotest.(check int) "one sample per commit" r.Runner.commits
    r.Runner.latency.Ci_stats.Summary.count;
  Alcotest.(check bool) "plausible latency" true
    (r.Runner.latency.Ci_stats.Summary.mean > 1_000.
     && r.Runner.latency.Ci_stats.Summary.mean < 1_000_000.)

let test_deterministic () =
  let r1 = Runner.run (quick_spec ()) in
  let r2 = Runner.run (quick_spec ()) in
  Alcotest.(check int) "same seed, same commits" r1.Runner.commits r2.Runner.commits;
  Alcotest.(check int) "same messages" r1.Runner.messages r2.Runner.messages;
  let r3 = Runner.run { (quick_spec ()) with Runner.seed = 99 } in
  ignore r3

let test_joint_placement () =
  let r =
    Runner.run (quick_spec ~placement:(Runner.Joint { n_nodes = 5 }) ())
  in
  Alcotest.(check bool) "joint commits" true (r.Runner.commits > 0);
  Alcotest.(check bool) "consistent" true (Ci_rsm.Consistency.ok r.Runner.consistency);
  Alcotest.(check int) "five replica views" 5
    r.Runner.consistency.Ci_rsm.Consistency.checked_replicas

let test_fault_applied () =
  let base = quick_spec ~protocol:Runner.Twopc () in
  let faulty =
    {
      base with
      Runner.nemesis =
        {
          Ci_faults.empty with
          faults =
            [
              Ci_faults.Slow
                { core = 0; from_ = Sim_time.ms 2; until_ = Sim_time.ms 20; factor = 1e9 };
            ];
        };
    }
  in
  let healthy = Runner.run base and broken = Runner.run faulty in
  Alcotest.(check bool)
    (Printf.sprintf "slow coordinator kills 2PC (%d vs %d)" broken.Runner.commits
       healthy.Runner.commits)
    true
    (broken.Runner.commits * 10 < healthy.Runner.commits)

(* A crashed core is a core slowed without bound. *)
let crashed_core core =
  {
    Ci_faults.empty with
    faults =
      [
        Ci_faults.Slow
          { core; from_ = Sim_time.ms 2; until_ = Sim_time.s 1; factor = infinity };
      ];
  }

let test_crash_core_fault () =
  let r =
    Runner.run
      {
        (quick_spec ())
        with
        Runner.nemesis = crashed_core 1;
      }
  in
  (* Crashing the acceptor: 1Paxos replaces it and keeps committing. *)
  Alcotest.(check bool) "progress despite crashed acceptor" true (r.Runner.commits > 0);
  Alcotest.(check bool) "acceptor change recorded" true (r.Runner.acceptor_changes >= 1);
  Alcotest.(check bool) "consistent" true (Ci_rsm.Consistency.ok r.Runner.consistency)

let test_timeline_length () =
  let r = Runner.run (quick_spec ()) in
  (* window = 2ms warmup + 10ms duration + 2ms drain, bucket 10ms →
     ceil(14/10) + partial coverage: at least one bucket. *)
  Alcotest.(check bool) "timeline covers the run" true (Array.length r.Runner.timeline >= 1)

let test_invalid_placements () =
  let check_invalid name spec =
    try
      ignore (Runner.run spec);
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  check_invalid "zero replicas"
    (quick_spec ~placement:(Runner.Dedicated { n_replicas = 0; n_clients = 1 }) ());
  check_invalid "zero clients"
    (quick_spec ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 0 }) ());
  check_invalid "too many replicas"
    {
      (quick_spec ~placement:(Runner.Dedicated { n_replicas = 10; n_clients = 1 }) ())
      with
      Runner.topology = Topology.opteron_8;
    }

let test_colocated_acceptor_option () =
  let r = Runner.run { (quick_spec ()) with Runner.colocate_acceptor = true } in
  Alcotest.(check bool) "colocated config still commits" true (r.Runner.commits > 0);
  Alcotest.(check bool) "consistent" true (Ci_rsm.Consistency.ok r.Runner.consistency)

let test_protocol_names () =
  Alcotest.(check string) "1paxos" "1paxos" (Protocol.to_string Runner.Onepaxos);
  Alcotest.(check string) "multipaxos" "multipaxos"
    (Protocol.to_string Runner.Multipaxos);
  Alcotest.(check string) "2pc" "2pc" (Protocol.to_string Runner.Twopc)

(* Both loops: an open loop's sink counts only the measure window, but
   its warmup replies still belong to the warmup window. *)
let test_window_split_sums () =
  let open_loop =
    { Runner.default_open_loop with Runner.arrival = Ci_load.Arrival.Fixed 20_000. }
  in
  List.iter
    (fun spec ->
      let r = Runner.run spec in
      let w = r.Runner.windows in
      let total f = f w.Runner.warmup_w + f w.Runner.measure_w + f w.Runner.drain_w in
      Alcotest.(check int) "windows partition deliveries" r.Runner.messages_total
        (total (fun c -> c.Runner.w_messages));
      Alcotest.(check int) "windows partition self-deliveries" r.Runner.self_delivered_total
        (total (fun c -> c.Runner.w_self));
      Alcotest.(check int) "windows partition retries" r.Runner.retries_total
        (total (fun c -> c.Runner.w_retries));
      Alcotest.(check int) "windows partition replies" r.Runner.total_replies
        (total (fun c -> c.Runner.w_replies));
      Alcotest.(check int) "measure window is the headline message count"
        r.Runner.messages w.Runner.measure_w.Runner.w_messages;
      Alcotest.(check int) "commits are the measure-window replies" r.Runner.commits
        w.Runner.measure_w.Runner.w_replies;
      Alcotest.(check bool) "warmup traffic is no longer misattributed" true
        (w.Runner.warmup_w.Runner.w_messages > 0);
      Alcotest.(check bool) "warmup replies are counted" true
        (w.Runner.warmup_w.Runner.w_replies > 0))
    [ quick_spec (); { (quick_spec ()) with Runner.open_loop = Some open_loop } ]

(* The Section 4.3 message-count table, asserted on windowed counters: a
   commit costs 5 boundary-crossing messages under 1Paxos and 10 under
   Multi-Paxos and 2PC (request, 2(n-1) protocol messages with n = 3,
   reply — minus collapsed-role self-deliveries). *)
let messages_per_commit ?(batch = 1) ?(pipeline = 0) protocol =
  let spec =
    {
      (Runner.default_spec ~protocol
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 1 }))
      with
      Runner.duration = Sim_time.ms 20;
      warmup = Sim_time.ms 5;
      drain = Sim_time.ms 5;
      batch;
      pipeline;
    }
  in
  let r = Runner.run spec in
  Alcotest.(check bool)
    (Printf.sprintf "%s commits" (Protocol.to_string protocol))
    true (r.Runner.commits > 100);
  float_of_int r.Runner.messages /. float_of_int r.Runner.commits

let check_ratio name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f msgs/commit (got %.3f)" name expected actual)
    true
    (abs_float (actual -. expected) < 0.15)

let test_sec4_3_message_counts () =
  check_ratio "1paxos" 5. (messages_per_commit Runner.Onepaxos);
  check_ratio "multipaxos" 10. (messages_per_commit Runner.Multipaxos);
  check_ratio "2pc" 10. (messages_per_commit Runner.Twopc)

(* With the batching layer switched on but degenerate (one command per
   instance, pipeline depth 1) the wire cost must not change: the §4.3
   table still reads 5 and 10 messages per commit. *)
let test_sec4_3_pinned_under_batch_layer () =
  check_ratio "1paxos batch layer on"
    5. (messages_per_commit ~batch:1 ~pipeline:1 Runner.Onepaxos);
  check_ratio "multipaxos batch layer on"
    10. (messages_per_commit ~batch:1 ~pipeline:1 Runner.Multipaxos)

let test_batching_improves_throughput () =
  let spec batch pipeline coalesce =
    {
      (Runner.default_spec ~protocol:Runner.Onepaxos
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 44 }))
      with
      Runner.duration = Sim_time.ms 20;
      warmup = Sim_time.ms 4;
      batch;
      pipeline;
      params = { Net_params.multicore with Net_params.coalesce };
    }
  in
  let base = Runner.run (spec 1 0 1) in
  let batched = Runner.run (spec 8 8 16) in
  Alcotest.(check bool) "baseline consistent" true
    (Ci_rsm.Consistency.ok base.Runner.consistency);
  Alcotest.(check bool) "batched run consistent" true
    (Ci_rsm.Consistency.ok batched.Runner.consistency);
  Alcotest.(check bool)
    (Printf.sprintf "batch=8 at least 1.9x the legacy path (%.0f vs %.0f)"
       batched.Runner.throughput base.Runner.throughput)
    true
    (batched.Runner.throughput >= 1.9 *. base.Runner.throughput);
  Alcotest.(check bool) "engine event counter populated" true
    (batched.Runner.sim_events > 0);
  let module Metrics = Ci_obs.Metrics in
  Alcotest.(check int) "no coalescing groups without ports" 0
    (Metrics.get_int base.Runner.metrics "coalesce.groups");
  Alcotest.(check bool) "coalescing engaged when budget > 1" true
    (Metrics.get_int batched.Runner.metrics "coalesce.groups" > 0);
  Alcotest.(check bool) "coalescing amortized receptions" true
    (Metrics.get_int batched.Runner.metrics "coalesce.messages"
     > Metrics.get_int batched.Runner.metrics "coalesce.groups")

let test_core_usage_populated () =
  let r = Runner.run (quick_spec ()) in
  Alcotest.(check bool) "one entry per occupied core" true
    (List.length r.Runner.cores >= 4);
  let leader = List.find (fun u -> u.Runner.u_core = 0) r.Runner.cores in
  Alcotest.(check bool) "leader core worked" true (leader.Runner.u_busy_ns > 0);
  Alcotest.(check bool) "utilization in a sane range" true
    (leader.Runner.u_util > 0. && leader.Runner.u_util < 1.5);
  Alcotest.(check bool) "leader_util accessor agrees" true
    (Runner.leader_util r = leader.Runner.u_util);
  List.iter
    (fun (u : Runner.core_usage) ->
      Alcotest.(check bool) "peak depth positive on occupied cores" true
        (u.Runner.u_queue_peak >= 1))
    r.Runner.cores

let test_joint_self_deliveries () =
  (* Joint deployment collapses client and replica roles: leader-local
     commands must show up as self-deliveries, not messages. *)
  let r = Runner.run (quick_spec ~placement:(Runner.Joint { n_nodes = 5 }) ()) in
  Alcotest.(check bool) "self-deliveries recorded" true (r.Runner.self_delivered_total > 0);
  (* In the dedicated deployment the acceptor replica self-learns, but
     client nodes (ids 3..5) have no collapsed roles. *)
  let dedicated = Runner.run (quick_spec ()) in
  let module Metrics = Ci_obs.Metrics in
  List.iter
    (fun c ->
      List.iter
        (fun w ->
          Alcotest.(check int)
            (Printf.sprintf "client node%d never self-sends (%s)" c w)
            0
            (Metrics.get_int dedicated.Runner.metrics
               (Printf.sprintf "node%d.self.%s" c w)))
        [ "warmup"; "measure"; "drain" ])
    [ 3; 4; 5 ]

let test_change_counter_aggregates () =
  let r =
    Runner.run
      {
        (quick_spec ())
        with
        Runner.nemesis = crashed_core 1;
      }
  in
  Alcotest.(check bool) "sum dominates the per-replica max" true
    (r.Runner.acceptor_changes_sum >= r.Runner.acceptor_changes);
  Alcotest.(check bool) "max is positive after the crash" true
    (r.Runner.acceptor_changes >= 1);
  Alcotest.(check bool) "sum bounded by max * replicas" true
    (r.Runner.acceptor_changes_sum <= r.Runner.acceptor_changes * 3)

let test_metrics_registry_populated () =
  let ring = Ci_obs.Event.create_ring ~capacity:4096 () in
  let r = Runner.run { (quick_spec ()) with Runner.trace = Some ring } in
  let m = r.Runner.metrics in
  let module Metrics = Ci_obs.Metrics in
  Alcotest.(check int) "commits mirrored" r.Runner.commits
    (Metrics.get_int m "commits.measure");
  Alcotest.(check int) "measure messages mirrored" r.Runner.messages
    (Metrics.get_int m "measure.messages");
  Alcotest.(check int) "leader core busy mirrored"
    (List.find (fun u -> u.Runner.u_core = 0) r.Runner.cores).Runner.u_busy_ns
    (Metrics.get_int m "core0.busy_ns.measure");
  Alcotest.(check bool) "per-node counters present" true
    (Metrics.find m "node0.sent.measure" <> None);
  Alcotest.(check bool) "channel totals present" true
    (Metrics.get_int m "channels.count" > 0);
  Alcotest.(check int) "trace drop counter exported"
    (Ci_obs.Event.dropped ring)
    (Metrics.get_int m "trace.dropped");
  Alcotest.(check bool) "the ring saw traffic" true (Ci_obs.Event.length ring > 0)

let suite =
  ( "runner",
    [
      Alcotest.test_case "throughput arithmetic" `Quick
        test_throughput_consistent_with_commits;
      Alcotest.test_case "latency summary" `Quick test_latency_summary_populated;
      Alcotest.test_case "determinism" `Quick test_deterministic;
      Alcotest.test_case "joint placement" `Quick test_joint_placement;
      Alcotest.test_case "slow-core fault applied" `Quick test_fault_applied;
      Alcotest.test_case "crash-core fault" `Quick test_crash_core_fault;
      Alcotest.test_case "timeline present" `Quick test_timeline_length;
      Alcotest.test_case "invalid placements rejected" `Quick test_invalid_placements;
      Alcotest.test_case "colocated acceptor option" `Quick test_colocated_acceptor_option;
      Alcotest.test_case "protocol names" `Quick test_protocol_names;
      Alcotest.test_case "window split arithmetic" `Quick test_window_split_sums;
      Alcotest.test_case "4.3 messages per commit" `Quick test_sec4_3_message_counts;
      Alcotest.test_case "4.3 pinned under batch layer" `Quick
        test_sec4_3_pinned_under_batch_layer;
      Alcotest.test_case "batching raises peak throughput" `Quick
        test_batching_improves_throughput;
      Alcotest.test_case "core usage populated" `Quick test_core_usage_populated;
      Alcotest.test_case "joint self-deliveries" `Quick test_joint_self_deliveries;
      Alcotest.test_case "change counters: max vs sum" `Quick
        test_change_counter_aggregates;
      Alcotest.test_case "metrics registry populated" `Quick
        test_metrics_registry_populated;
    ] )
