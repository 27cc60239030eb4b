(* The paper's concluding outlook (Section 9): rack-scale systems where
   machines share an address space over RDMA but have no inter-machine
   cache coherence — "1Paxos could represent a solution for ensuring
   coherence (where needed) at a software-level".

   We model the rack with the [rdma] network preset (cheap one-sided
   transmission, ~2 us cross-machine propagation) and compare all five
   protocols keeping a piece of shared rack state consistent.

   Run with: dune exec examples/rdma_rack.exe *)

module Runner = Ci_workload.Runner
module Sim_time = Ci_engine.Sim_time

let () =
  Format.printf
    "A rack of 8 machines x 6 cores, RDMA interconnect, 3 state replicas,@.";
  Format.printf "13 writer processes updating shared rack metadata.@.@.";
  Format.printf "%-12s %12s %14s %16s@." "protocol" "op/s" "latency(us)"
    "msgs/commit";
  List.iter
    (fun proto ->
      let spec =
        {
          (Runner.default_spec ~protocol:proto
             ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 }))
          with
          Runner.params = Ci_machine.Net_params.rdma;
          duration = Sim_time.ms 30;
        }
      in
      let r = Runner.run spec in
      assert (Ci_rsm.Consistency.ok r.Runner.consistency);
      Format.printf "%-12s %12.0f %14.1f %16.2f@."
        (Ci_consensus.Protocol.to_string proto) r.Runner.throughput
        (r.Runner.latency.Ci_stats.Summary.mean /. 1000.)
        (float_of_int r.Runner.messages /. float_of_int (max 1 r.Runner.total_replies)))
    [ Runner.Twopc; Runner.Multipaxos; Runner.Mencius; Runner.Cheappaxos; Runner.Onepaxos ];
  Format.printf
    "@.The fewer messages an agreement needs, the better it survives the@.";
  Format.printf
    "transmission-bound regime — which is the many-core story all over@.";
  Format.printf "again, one level up the hierarchy.@."
