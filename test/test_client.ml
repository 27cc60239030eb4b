(* The closed-loop client: retries, fail-over, think time, budgets. *)

module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Sim_time = Ci_engine.Sim_time
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command
module Client = Ci_workload.Client
module Run_stats = Ci_workload.Run_stats

(* An echo "replica" that replies [Done] to every request, optionally
   dropping the first [drop] requests it sees. *)
let echo_node machine ?(drop = 0) () =
  let node = Machine.add_node machine ~core:0 in
  let dropped = ref 0 in
  let served = ref 0 in
  Machine.set_handler node (fun ~src msg ->
      match msg with
      | Wire.Request { req_id; _ } ->
        if !dropped < drop then incr dropped
        else begin
          incr served;
          Machine.send node ~dst:src (Wire.Reply { req_id; result = Command.Done })
        end
      | _ -> ());
  (node, served)

let mk ?(drop = 0) ?(echo_cores = 1) policy_f =
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket (echo_cores + 1))
      ~params:Net_params.multicore ()
  in
  let echo, served = echo_node machine ~drop () in
  let client_node = Machine.add_node machine ~core:echo_cores in
  let stats = Run_stats.create ~bucket:Sim_time.(ms 10) in
  let policy = policy_f (Client.default_policy ~targets:[| Machine.node_id echo |]) in
  let client = Client.create ~env:(Machine.env client_node) ~policy ~stats in
  Machine.set_handler client_node (fun ~src msg -> Client.handle client ~src msg);
  (machine, client, stats, served)

let test_closed_loop () =
  let machine, client, stats, served = mk (fun p -> p) in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 1);
  Alcotest.(check bool) "many requests completed" true (Client.completed client > 10);
  (* At the horizon at most one reply may still be in flight. *)
  let gap = !served - Client.completed client in
  Alcotest.(check bool) "served ~ completed" true (gap >= 0 && gap <= 1);
  Alcotest.(check int) "stats agree" (Client.completed client) (Run_stats.completed stats)

let test_max_requests () =
  let machine, client, _, _ = mk (fun p -> { p with Client.max_requests = Some 7 }) in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 10);
  Alcotest.(check int) "stops at the budget" 7 (Client.completed client)

let test_think_time () =
  let machine, client, _, _ =
    mk (fun p -> { p with Client.think = Sim_time.ms 1; max_requests = Some 5 })
  in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 3);
  Alcotest.(check bool)
    (Printf.sprintf "think time paces requests (%d done)" (Client.completed client))
    true
    (Client.completed client <= 3);
  Machine.run_until machine ~time:(Sim_time.ms 20);
  Alcotest.(check int) "eventually all" 5 (Client.completed client)

let test_retry_on_timeout () =
  let machine, client, _, _ =
    mk ~drop:2
      (fun p -> { p with Client.timeout = Sim_time.us 100; max_requests = Some 1 })
  in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  Alcotest.(check int) "completed despite drops" 1 (Client.completed client);
  Alcotest.(check int) "two retries recorded" 2 (Client.retries client)

let test_latency_counts_from_first_send () =
  let machine, client, stats, _ =
    mk ~drop:1
      (fun p -> { p with Client.timeout = Sim_time.us 500; max_requests = Some 1 })
  in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  match Run_stats.samples stats with
  | [ s ] ->
    Alcotest.(check bool) "latency includes the retry wait" true
      (s.Run_stats.replied_at - s.Run_stats.sent_at >= Sim_time.us 500)
  | _ -> Alcotest.fail "expected one sample"

let test_issued_and_acked () =
  let machine, client, _, _ =
    mk (fun p -> { p with Client.max_requests = Some 4; read_ratio = 0. })
  in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  Alcotest.(check int) "issued log" 4 (Ci_rsm.Vec.length (Client.issued client));
  Alcotest.(check (list int)) "acked writes, oldest first" [ 0; 1; 2; 3 ]
    (Ci_rsm.Vec.to_list (Client.acked_writes client))

let test_reads_not_acked () =
  let machine, client, _, _ =
    mk (fun p -> { p with Client.max_requests = Some 10; read_ratio = 1. })
  in
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  Alcotest.(check int) "all reads completed" 10 (Client.completed client);
  Alcotest.(check int) "reads never in the ack list" 0
    (Ci_rsm.Vec.length (Client.acked_writes client))

let test_failover_rotates_targets () =
  (* Two echo replicas; the first one drops everything: the client must
     succeed via the second. *)
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket 4) ~params:Net_params.multicore ()
  in
  let dead = Machine.add_node machine ~core:0 in
  Machine.set_handler dead (fun ~src:_ _ -> ());
  let live2 = Machine.add_node machine ~core:1 in
  Machine.set_handler live2 (fun ~src msg ->
      match msg with
      | Wire.Request { req_id; _ } ->
        Machine.send live2 ~dst:src (Wire.Reply { req_id; result = Command.Done })
      | _ -> ());
  let client_node = Machine.add_node machine ~core:2 in
  let stats = Run_stats.create ~bucket:Sim_time.(ms 10) in
  let policy =
    {
      (Client.default_policy ~targets:[| Machine.node_id dead; Machine.node_id live2 |]) with
      Client.timeout = Sim_time.us 200;
      max_requests = Some 3;
    }
  in
  let client = Client.create ~env:(Machine.env client_node) ~policy ~stats in
  Machine.set_handler client_node (fun ~src msg -> Client.handle client ~src msg);
  Client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 10);
  Alcotest.(check int) "completed via fail-over" 3 (Client.completed client);
  Alcotest.(check bool) "retried at least once" true (Client.retries client >= 1)

let test_empty_targets_rejected () =
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket 2) ~params:Net_params.multicore ()
  in
  let node = Machine.add_node machine ~core:0 in
  let stats = Run_stats.create ~bucket:Sim_time.(ms 10) in
  try
    ignore
      (Client.create ~env:(Machine.env node)
         ~policy:(Client.default_policy ~targets:[||])
         ~stats);
    Alcotest.fail "empty targets accepted"
  with Invalid_argument _ -> ()

let suite =
  ( "client",
    [
      Alcotest.test_case "closed loop" `Quick test_closed_loop;
      Alcotest.test_case "max_requests budget" `Quick test_max_requests;
      Alcotest.test_case "think time" `Quick test_think_time;
      Alcotest.test_case "retry on timeout" `Quick test_retry_on_timeout;
      Alcotest.test_case "latency from first send" `Quick
        test_latency_counts_from_first_send;
      Alcotest.test_case "issued and acked bookkeeping" `Quick test_issued_and_acked;
      Alcotest.test_case "reads not acked" `Quick test_reads_not_acked;
      Alcotest.test_case "fail-over rotates targets" `Quick test_failover_rotates_targets;
      Alcotest.test_case "empty targets rejected" `Quick test_empty_targets_rejected;
    ] )
