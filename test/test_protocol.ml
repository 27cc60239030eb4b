(* The protocol registry: one name vocabulary, one builder, and crash
   capture/restart through the replica record. *)

open Test_util
module Protocol = Ci_consensus.Protocol
module Node_env = Ci_engine.Node_env
module Op_log = Ci_rsm.Op_log

let name = Alcotest.testable (Fmt.of_to_string Protocol.to_string) ( = )

let names_round_trip () =
  List.iter
    (fun p ->
      Alcotest.(check (option name)) (Protocol.to_string p) (Some p)
        (Protocol.of_string (Protocol.to_string p)))
    Protocol.all

(* Every spelling the run/nemesis, live and explore parsers accepted
   before they were merged into one. *)
let old_aliases_parse () =
  List.iter
    (fun (s, p) -> Alcotest.(check (option name)) s (Some p) (Protocol.of_string s))
    [
      ("1paxos", Protocol.Onepaxos);
      ("onepaxos", Protocol.Onepaxos);
      ("multipaxos", Protocol.Multipaxos);
      ("multi-paxos", Protocol.Multipaxos);
      ("2pc", Protocol.Twopc);
      ("twopc", Protocol.Twopc);
      ("mencius", Protocol.Mencius);
      ("cheappaxos", Protocol.Cheappaxos);
    ];
  Alcotest.(check (option name)) "unknown" None (Protocol.of_string "paxos")

let ids = [| 0; 1; 2 |]

(* An environment that goes nowhere: a replica rebuilt on it can be
   inspected without running. *)
let inert_env id =
  {
    Node_env.id;
    send = (fun ~dst:_ _ -> ());
    now = (fun () -> 0);
    after = (fun ~delay:_ _ -> ());
    after_cancel = (fun ~delay:_ _ -> { Node_env.cancel = ignore });
    rng = Ci_engine.Rng.create ~seed:id;
    note_phase = (fun ~phase:_ -> ());
  }

let crash_support () =
  List.iter
    (fun p ->
      let r = Protocol.create p Protocol.default_knobs ~replicas:ids (inert_env 0) in
      Alcotest.(check bool)
        (Protocol.to_string p ^ " has crash-recovery")
        (p = Protocol.Onepaxos || p = Protocol.Multipaxos)
        (r.Protocol.crash <> None))
    Protocol.all

let lease_needs_a_lease_protocol () =
  let knobs = { Protocol.default_knobs with Protocol.lease = 1_000 } in
  List.iter
    (fun p ->
      match Protocol.create p knobs ~replicas:ids (inert_env 0) with
      | exception Invalid_argument _ ->
        if p = Protocol.Onepaxos || p = Protocol.Multipaxos then
          Alcotest.failf "%s rejected a lease" (Protocol.to_string p)
      | _ ->
        if not (p = Protocol.Onepaxos || p = Protocol.Multipaxos) then
          Alcotest.failf "%s accepted a lease" (Protocol.to_string p))
    Protocol.all

(* A simulated three-replica cluster built through the registry commits
   a workload; then each replica is crashed and restarted from what its
   [crash] captured. The restarted replica holds the same decided log
   and the same learner state (Replica_core digest: log, store, executed
   prefix). The capture is a snapshot: decisions the old incarnation
   learns afterwards do not leak into a restart from it. *)
let crash_restart_keeps_log protocol () =
  let h =
    mk_harness ~n:3 ~topology:(Topology.single_socket 5) ~seed:42
      ~make:(fun node ids ->
        ref (Protocol.create protocol Protocol.default_knobs ~replicas:ids (Machine.env node)))
      ~handle:(fun r ~src m -> !r.Protocol.handle ~src m)
  in
  Array.iter (fun r -> !r.Protocol.start ()) h.replicas;
  let put req_id = send h ~req_id (Command.Put { key = req_id mod 4; data = req_id }) in
  for i = 1 to 10 do
    put i
  done;
  Alcotest.(check bool) "first batch committed" true (wait_replies h ~n:10 ~upto:(Sim_time.ms 5));
  let log r = Op_log.to_list (Replica_core.view r.Protocol.core).Ci_rsm.Consistency.log in
  let captures =
    Array.map
      (fun r ->
        let r = !r in
        let restart =
          match r.Protocol.crash with
          | Some capture -> capture ()
          | None -> Alcotest.fail "no crash entry"
        in
        (log r, Replica_core.digest r.Protocol.core, restart))
      h.replicas
  in
  Array.iteri
    (fun i (log0, digest0, restart) ->
      let r' = restart (inert_env i) in
      Alcotest.(check bool) (Printf.sprintf "replica %d: decided log kept" i) true
        (log0 <> [] && log r' = log0);
      Alcotest.(check int) (Printf.sprintf "replica %d: core digest kept" i) digest0
        (Replica_core.digest r'.Protocol.core))
    captures;
  for i = 11 to 15 do
    put i
  done;
  Alcotest.(check bool) "second batch committed" true
    (wait_replies h ~n:15 ~upto:(Sim_time.ms 10));
  Array.iteri
    (fun i (log0, _, restart) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d: restart is the crash-time snapshot" i)
        true
        (log (restart (inert_env i)) = log0))
    captures;
  check_safety ~cores:(Array.map (fun r -> !r.Protocol.core) h.replicas) h

let suite =
  ( "protocol",
    [
      Alcotest.test_case "names round-trip" `Quick names_round_trip;
      Alcotest.test_case "every old alias parses" `Quick old_aliases_parse;
      Alcotest.test_case "crash entry exactly for 1paxos and multipaxos" `Quick
        crash_support;
      Alcotest.test_case "create rejects a lease the protocol lacks" `Quick
        lease_needs_a_lease_protocol;
      Alcotest.test_case "crash/restart keeps decided log (1paxos)" `Quick
        (crash_restart_keeps_log Protocol.Onepaxos);
      Alcotest.test_case "crash/restart keeps decided log (multipaxos)" `Quick
        (crash_restart_keeps_log Protocol.Multipaxos);
    ] )
