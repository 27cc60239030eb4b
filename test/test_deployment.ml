(* The deployment's node layout, pinned against the layout the
   simulator and the live runtime used before they shared a builder:
   replicas group-major, one router per group when sharded, clients
   last; joint nodes host a replica and a client. *)

module Deployment = Ci_workload.Deployment
module Protocol = Ci_consensus.Protocol
module Runner = Ci_workload.Runner

let config ~protocol ~groups ~replicas ~clients ~joint =
  {
    Deployment.protocol;
    knobs = Protocol.default_knobs;
    groups;
    replicas;
    clients = (if joint then replicas else clients);
    joint;
    timeout = 1;
    closed_loop =
      { Ci_load.Open_client.think = 0; read_ratio = 0.; cross_shard_ratio = 0.; key_space = 64 };
    open_loop = None;
    window = (0, 1);
    bucket = 1;
    shared_sinks = true;
  }

(* The historical layout, written out longhand. *)
let expected ~protocol ~groups ~replicas ~clients ~joint =
  let total = groups * replicas in
  let routers = if groups > 1 then groups else 0 in
  let n = if joint then total else total + routers + clients in
  let roles i =
    if i < total then
      Deployment.Replica
        { group = i / replicas; participant = groups > 1 && i mod replicas = 0 }
      :: (if joint then [ Deployment.Load { index = i } ] else [])
    else if i < total + routers then [ Deployment.Router { group = i - total } ]
    else [ Deployment.Load { index = i - total - routers } ]
  in
  let targets =
    if routers = 0 then Array.init total Fun.id
    else Array.init routers (fun j -> total + j)
  in
  let primary k =
    if routers > 0 then k mod routers
    else if protocol = Protocol.Mencius then k mod replicas
    else 0
  in
  (n, List.init n roles, targets, List.init (if joint then total else clients) primary)

let test_layout () =
  let cases = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun groups ->
          List.iter
            (fun replicas ->
              List.iter
                (fun clients ->
                  List.iter
                    (fun joint ->
                      if not (joint && groups > 1) then begin
                        incr cases;
                        let c = config ~protocol ~groups ~replicas ~clients ~joint in
                        let n, roles, targets, primaries =
                          expected ~protocol ~groups ~replicas ~clients ~joint
                        in
                        let name =
                          Printf.sprintf "%s g=%d r=%d c=%d%s"
                            (Protocol.to_string protocol) groups replicas clients
                            (if joint then " joint" else "")
                        in
                        Alcotest.(check int) (name ^ ": nodes") n (Deployment.n_nodes c);
                        Alcotest.(check bool)
                          (name ^ ": roles") true
                          (List.init n (Deployment.roles c) = roles);
                        Alcotest.(check (array int))
                          (name ^ ": targets") targets (Deployment.targets c);
                        Alcotest.(check (list int))
                          (name ^ ": primaries") primaries
                          (List.init c.Deployment.clients (Deployment.primary c))
                      end)
                    [ false; true ])
                [ 1; 2; 5 ])
            [ 2; 3; 5 ])
        [ 1; 2; 3 ])
    [ Protocol.Onepaxos; Protocol.Mencius ];
  Alcotest.(check int) "cases" 72 !cases

(* The simulator lays its machine nodes out by the same rule: a sharded
   dedicated run has one per-node metric block per laid-out node. *)
let test_runner_nodes () =
  let spec =
    {
      (Runner.default_spec ~protocol:Runner.Onepaxos
         ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 4 }))
      with
      Runner.groups = 2;
      duration = Ci_engine.Sim_time.ms 5;
    }
  in
  let r = Runner.run spec in
  let has i = Ci_obs.Metrics.find r.Runner.metrics (Printf.sprintf "node%d.sent.measure" i) <> None in
  Alcotest.(check bool) "node 11 exists" true (has 11);
  Alcotest.(check bool) "no node 12" false (has 12)

(* The registry's static traits agree with the replicas it builds. *)
let test_traits () =
  List.iter
    (fun name ->
      let replicas = [| 0; 1; 2 |] in
      let env =
        Ci_machine.Machine.env
          (Ci_machine.Machine.add_node
             (Ci_machine.Machine.create ~topology:Ci_machine.Topology.opteron_8
                ~params:Ci_machine.Net_params.multicore ())
             ~core:0)
      in
      let r = Protocol.create name Protocol.default_knobs ~replicas env in
      Alcotest.(check bool)
        (Protocol.to_string name ^ ": recoverable iff it has a crash")
        (Protocol.recoverable name) (r.Protocol.crash <> None);
      match
        Protocol.create name { Protocol.default_knobs with lease = 1000 } ~replicas env
      with
      | _ -> Alcotest.(check bool) (Protocol.to_string name ^ ": leases") true (Protocol.leases name)
      | exception Invalid_argument _ ->
        Alcotest.(check bool) (Protocol.to_string name ^ ": no leases") false (Protocol.leases name))
    Protocol.all

let suite =
  ( "deployment",
    [
      Alcotest.test_case "layout: ids, roles, targets and primaries" `Quick test_layout;
      Alcotest.test_case "the simulator lays out every node" `Quick test_runner_nodes;
      Alcotest.test_case "protocol traits match the built replicas" `Quick test_traits;
    ] )
