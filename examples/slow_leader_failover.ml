(* The paper's headline fault story (Figure 11): the 1Paxos leader's
   core becomes slow mid-run; clients time out, fail over to another
   replica, which takes leadership through PaxosUtility — throughput
   dips briefly and recovers to the pre-fault level. The same fault
   under 2PC stalls the system for as long as the coordinator is slow.

   Run with: dune exec examples/slow_leader_failover.exe *)

module Runner = Ci_workload.Runner
module Sim_time = Ci_engine.Sim_time

let timeline protocol =
  let spec =
    {
      (Runner.default_spec ~protocol
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 5 }))
      with
      Runner.topology = Ci_machine.Topology.opteron_8;
      duration = Sim_time.ms 120;
      warmup = Sim_time.ms 10;
      drain = Sim_time.ms 10;
      nemesis =
        {
          Ci_faults.empty with
          faults =
            [
              Ci_faults.Slow
                {
                  core = 0;
                  from_ = Sim_time.ms 40;
                  until_ = Sim_time.ms 150;
                  factor = 60.;
                };
            ];
        };
    }
  in
  Runner.run spec

let bar rate peak =
  let width = int_of_float (rate /. peak *. 40.) in
  String.make (max 0 width) '#'

let () =
  Format.printf
    "Five clients, three replicas on the paper's 8-core machine.@.";
  Format.printf "At t=40ms, core 0 (initial leader) is starved (x60).@.@.";
  List.iter
    (fun (name, protocol) ->
      let r = timeline protocol in
      let peak = Array.fold_left Float.max 1. r.Runner.timeline in
      Format.printf "--- %s (leader changes: %d, acceptor changes: %d) ---@."
        name r.Runner.leader_changes r.Runner.acceptor_changes;
      Array.iteri
        (fun i rate ->
          Format.printf "  %4d ms %9.0f op/s %s@." (i * 10) rate (bar rate peak))
        r.Runner.timeline;
      Format.printf "@.")
    [ ("1Paxos", Runner.Onepaxos); ("2PC", Runner.Twopc) ];
  Format.printf
    "1Paxos replaces the leader and returns to full speed; 2PC blocks@.";
  Format.printf "for as long as any node is unresponsive (Section 2.2).@."
