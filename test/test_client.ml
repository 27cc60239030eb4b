(* The workload driver on a hand-built echo harness: the closed loop's
   progress, think time, retries, fail-over and bookkeeping, and the
   once-per-outage rotation both loops share. *)

module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Sim_time = Ci_engine.Sim_time
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command
module Open_client = Ci_load.Open_client
module Run_stats = Ci_load.Run_stats
module Load_stats = Ci_load.Load_stats

(* An echo "replica" that replies [Done] to every request, optionally
   dropping the first [drop] requests it sees. *)
let echo_node machine ~core ?(drop = 0) () =
  let node = Machine.add_node machine ~core in
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

let closed ?(think = 0) ?(read_ratio = 0.) () =
  Open_client.Closed { think; read_ratio; cross_shard_ratio = 0.; key_space = 64 }

(* A closed-loop driver on its own core in front of one echo replica;
   [stop_at] is the driver's one stopping rule. *)
let mk ?(drop = 0) ?(timeout = Sim_time.ms 2) ?(stop_at = max_int) loop =
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket 2) ~params:Net_params.multicore ()
  in
  let echo, served = echo_node machine ~core:0 ~drop () in
  let client_node = Machine.add_node machine ~core:1 in
  let stats = Run_stats.create ~bucket:Sim_time.(ms 10) in
  let config =
    {
      (Open_client.default_config ~targets:[| Machine.node_id echo |]) with
      timeout;
      stop_at;
      loop;
    }
  in
  let client =
    Open_client.create ~env:(Machine.env client_node) ~config
      ~sink:(Open_client.Samples stats)
  in
  Machine.set_handler client_node (fun ~src msg -> Open_client.handle client ~src msg);
  (machine, client, stats, served)

let test_closed_loop () =
  let machine, client, stats, served = mk (closed ()) in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 1);
  Alcotest.(check bool) "many requests completed" true (Open_client.completed client > 10);
  (* At the horizon at most one reply may still be in flight. *)
  let gap = !served - Open_client.completed client in
  Alcotest.(check bool) "served ~ completed" true (gap >= 0 && gap <= 1);
  Alcotest.(check int) "stats agree" (Open_client.completed client)
    (Run_stats.completed stats)

(* With a 1 ms think time requests go out at ~0, 1, 2, 3 and 4 ms: a
   4.5 ms stop admits exactly five. *)
let test_think_time () =
  let machine, client, _, _ =
    mk ~stop_at:(Sim_time.us 4_500) (closed ~think:(Sim_time.ms 1) ())
  in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 3);
  Alcotest.(check bool)
    (Printf.sprintf "think time paces requests (%d done)" (Open_client.completed client))
    true
    (Open_client.completed client <= 3);
  Machine.run_until machine ~time:(Sim_time.ms 20);
  Alcotest.(check int) "eventually all" 5 (Open_client.completed client)

(* A stop one nanosecond after the start admits only the first request. *)
let test_retry_on_timeout () =
  let machine, client, _, _ =
    mk ~drop:2 ~timeout:(Sim_time.us 100) ~stop_at:1 (closed ())
  in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  Alcotest.(check int) "completed despite drops" 1 (Open_client.completed client);
  Alcotest.(check int) "two retries recorded" 2 (Open_client.retries client)

let test_latency_counts_from_first_send () =
  let machine, client, stats, _ =
    mk ~drop:1 ~timeout:(Sim_time.us 500) ~stop_at:1 (closed ())
  in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 5);
  match Run_stats.samples stats with
  | [ s ] ->
    Alcotest.(check bool) "latency includes the retry wait" true
      (s.Run_stats.replied_at - s.Run_stats.sent_at >= Sim_time.us 500)
  | _ -> Alcotest.fail "expected one sample"

(* Requests at ~0, 1, 2 and 3 ms; the 3.5 ms stop admits four. *)
let test_issued_and_acked () =
  let machine, client, _, _ =
    mk ~stop_at:(Sim_time.us 3_500) (closed ~think:(Sim_time.ms 1) ~read_ratio:0. ())
  in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 10);
  Alcotest.(check int) "issued log" 4 (Ci_rsm.Vec.length (Open_client.issued client));
  Alcotest.(check (list int)) "acked writes, oldest first" [ 0; 1; 2; 3 ]
    (Ci_rsm.Vec.to_list (Open_client.acked_writes client))

let test_reads_not_acked () =
  let machine, client, _, _ =
    mk ~stop_at:(Sim_time.us 9_500) (closed ~think:(Sim_time.ms 1) ~read_ratio:1. ())
  in
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 20);
  Alcotest.(check int) "all reads completed" 10 (Open_client.completed client);
  Alcotest.(check int) "reads never in the ack list" 0
    (Ci_rsm.Vec.length (Open_client.acked_writes client))

(* Two echo replicas, the first of which drops everything. *)
let dead_then_live ~cores =
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket cores) ~params:Net_params.multicore ()
  in
  let dead = Machine.add_node machine ~core:0 in
  Machine.set_handler dead (fun ~src:_ _ -> ());
  let live, _ = echo_node machine ~core:1 () in
  (machine, dead, live)

let test_failover_rotates_targets () =
  (* The client must succeed via the second replica. The first request
     completes after one 200 us timeout, the next two (at ~1.2 and
     ~2.2 ms) at once: the 2.5 ms stop admits three. *)
  let machine, dead, live = dead_then_live ~cores:4 in
  let client_node = Machine.add_node machine ~core:2 in
  let config =
    {
      (Open_client.default_config
         ~targets:[| Machine.node_id dead; Machine.node_id live |])
      with
      timeout = Sim_time.us 200;
      stop_at = Sim_time.us 2_500;
      loop = closed ~think:(Sim_time.ms 1) ();
    }
  in
  let client =
    Open_client.create ~env:(Machine.env client_node) ~config
      ~sink:(Open_client.Samples (Run_stats.create ~bucket:Sim_time.(ms 10)))
  in
  Machine.set_handler client_node (fun ~src msg -> Open_client.handle client ~src msg);
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 10);
  Alcotest.(check int) "completed via fail-over" 3 (Open_client.completed client);
  Alcotest.(check bool) "retried at least once" true (Open_client.retries client >= 1)

(* Sixteen open-loop sessions all time out against a dead first target.
   The first timeout moves the driver to the live replica; the other
   fifteen went to the dead node, no longer current, so they retransmit
   to the live one without rotating again. Rotating on every timeout
   instead sends half the retries back to the dead node, where the
   backlog then piles up: 88 of 500 ops completed in this run. *)
let test_rotates_once_per_outage () =
  let machine, dead, live = dead_then_live ~cores:3 in
  let timeout = Sim_time.ms 2 in
  let late = ref 0 in
  Machine.set_handler dead (fun ~src:_ _ ->
      if Machine.now machine > timeout then incr late);
  let client_node = Machine.add_node machine ~core:2 in
  let base =
    Open_client.default_config ~targets:[| Machine.node_id dead; Machine.node_id live |]
  in
  let config =
    {
      base with
      timeout;
      stop_at = Sim_time.ms 10;
      loop =
        (match base.loop with
        | Open o -> Open { o with sessions = 16 }
        | Closed _ -> Alcotest.fail "default_config is an open loop");
    }
  in
  let stats = Load_stats.create ~from_:0 ~until_:(Sim_time.ms 20) in
  let client =
    Open_client.create ~env:(Machine.env client_node) ~config
      ~sink:(Open_client.Histograms stats)
  in
  Machine.set_handler client_node (fun ~src msg -> Open_client.handle client ~src msg);
  Open_client.start client;
  Machine.run_until machine ~time:(Sim_time.ms 20);
  Alcotest.(check int) "every arrival completed" 500 (Open_client.completed client);
  Alcotest.(check int) "nothing outstanding" 0 (Open_client.outstanding client);
  Alcotest.(check int) "one retry per session" 16 (Open_client.retries client);
  Alcotest.(check int) "sink counts the same retries" 16 (Load_stats.retries stats);
  Alcotest.(check int) "no request reaches the dead node after the first timeout" 0
    !late

let test_empty_targets_rejected () =
  let machine : Wire.t Machine.t =
    Machine.create ~topology:(Topology.single_socket 2) ~params:Net_params.multicore ()
  in
  let node = Machine.add_node machine ~core:0 in
  try
    ignore
      (Open_client.create ~env:(Machine.env node)
         ~config:{ (Open_client.default_config ~targets:[||]) with loop = closed () }
         ~sink:(Open_client.Samples (Run_stats.create ~bucket:Sim_time.(ms 10))));
    Alcotest.fail "empty targets accepted"
  with Invalid_argument _ -> ()

let suite =
  ( "client",
    [
      Alcotest.test_case "closed loop" `Quick test_closed_loop;
      Alcotest.test_case "think time" `Quick test_think_time;
      Alcotest.test_case "retry on timeout" `Quick test_retry_on_timeout;
      Alcotest.test_case "latency from first send" `Quick
        test_latency_counts_from_first_send;
      Alcotest.test_case "issued and acked bookkeeping" `Quick test_issued_and_acked;
      Alcotest.test_case "reads not acked" `Quick test_reads_not_acked;
      Alcotest.test_case "fail-over rotates targets" `Quick test_failover_rotates_targets;
      Alcotest.test_case "fail-over rotates once per outage" `Quick
        test_rotates_once_per_outage;
      Alcotest.test_case "empty targets rejected" `Quick test_empty_targets_rejected;
    ] )
