(* Shared helpers for protocol-level tests: build a small cluster on a
   simulated machine, drive it with hand-injected client requests, and
   check the paper's safety properties at the end. *)

module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Sim_time = Ci_engine.Sim_time
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command
module Onepaxos = Ci_consensus.Onepaxos
module Multipaxos = Ci_consensus.Multipaxos
module Twopc = Ci_consensus.Twopc
module Replica_core = Ci_consensus.Replica_core
module Consistency = Ci_rsm.Consistency

type 'p harness = {
  machine : Wire.t Machine.t;
  replica_ids : int array;
  replicas : 'p array;
  client : Wire.t Machine.node;
  mutable replies : (int * Command.result * int) list; (* req, result, time *)
  issued : (int, Command.t) Hashtbl.t;
}

let reply_ids h = List.rev_map (fun (r, _, _) -> r) h.replies

let wait_replies h ~n ~upto =
  Machine.run_until h.machine ~time:upto;
  List.length h.replies >= n

let mk_harness ~n ~topology ~make ~handle ~seed =
  let machine = Machine.create ~seed ~topology ~params:Net_params.multicore () in
  let replica_nodes = Array.init n (fun i -> Machine.add_node machine ~core:i) in
  let replica_ids = Array.map Machine.node_id replica_nodes in
  let replicas = Array.map (fun node -> make node replica_ids) replica_nodes in
  Array.iteri
    (fun i node ->
      let r = replicas.(i) in
      Machine.set_handler node (fun ~src msg -> handle r ~src msg))
    replica_nodes;
  let client = Machine.add_node machine ~core:n in
  let h =
    { machine; replica_ids; replicas; client; replies = []; issued = Hashtbl.create 64 }
  in
  Machine.set_handler client (fun ~src:_ msg ->
      match msg with
      | Wire.Reply { req_id; result } ->
        h.replies <- (req_id, result, Machine.now machine) :: h.replies
      | _ -> ());
  h

let onepaxos_cluster ?(n = 3) ?(seed = 42) ?(tweak = fun c -> c) () =
  let replicas_ref = ref [||] in
  let h =
    mk_harness ~n ~topology:(Topology.single_socket (n + 2)) ~seed
      ~make:(fun node ids ->
        let config = tweak (Onepaxos.default_config ~replicas:ids) in
        Onepaxos.create ~env:(Machine.env node) ~config)
      ~handle:Onepaxos.handle
  in
  replicas_ref := h.replicas;
  Array.iter Onepaxos.start h.replicas;
  h

let multipaxos_cluster ?(n = 3) ?(seed = 42) ?(tweak = fun c -> c) () =
  let h =
    mk_harness ~n ~topology:(Topology.single_socket (n + 2)) ~seed
      ~make:(fun node ids ->
        let config = tweak (Multipaxos.default_config ~replicas:ids) in
        Multipaxos.create ~env:(Machine.env node) ~config)
      ~handle:Multipaxos.handle
  in
  Array.iter Multipaxos.start h.replicas;
  h

let twopc_cluster ?(n = 3) ?(seed = 42) ?(tweak = fun c -> c) () =
  mk_harness ~n ~topology:(Topology.single_socket (n + 2)) ~seed
    ~make:(fun node ids ->
      let config = tweak (Twopc.default_config ~replicas:ids) in
      Twopc.create ~env:(Machine.env node) ~config)
    ~handle:Twopc.handle

let send h ?(dst = 0) ?(relaxed = false) ~req_id cmd =
  Hashtbl.replace h.issued req_id cmd;
  Machine.send h.client ~dst:h.replica_ids.(dst)
    (Wire.Request { req_id; cmd; relaxed_read = relaxed })

let run_ms h ms = Machine.run_until h.machine ~time:(Sim_time.ms ms)

let slow_core h ~core ~from_ms ~until_ms ~factor =
  Machine.slow_core h.machine ~core ~from_:(Sim_time.ms from_ms)
    ~until_:(Sim_time.ms until_ms) ~factor

(* The paper's two safety properties across a harness run. *)
let check_safety ~cores h =
  let client_id = Machine.node_id h.client in
  let proposed (v : Wire.value) =
    Ci_consensus.Mencius.is_skip_value v
    || v.Wire.client = client_id
       &&
       match Hashtbl.find_opt h.issued v.Wire.req_id with
       | Some cmd -> Command.equal cmd v.Wire.cmd
       | None -> false
  in
  let views = List.map Replica_core.view (Array.to_list cores) in
  let report =
    Consistency.check ~equal:Wire.value_equal ~proposed
      ~acked:
        [
          ( client_id,
            Ci_rsm.Vec.of_list
              (List.filter_map
                 (fun (req_id, _, _) ->
                   match Hashtbl.find_opt h.issued req_id with
                   | Some cmd when not (Command.is_read cmd) -> Some req_id
                   | Some _ | None -> None)
                 h.replies) );
        ]
      ~key_of:Wire.value_key views
  in
  if not (Consistency.ok report) then
    Alcotest.failf "safety violated: %a" Consistency.pp report

let onepaxos_cores h = Array.map Onepaxos.replica_core h.replicas
let multipaxos_cores h = Array.map Multipaxos.replica_core h.replicas
let twopc_cores h = Array.map Twopc.replica_core h.replicas

module Mencius = Ci_consensus.Mencius
module Cheap_paxos = Ci_consensus.Cheap_paxos

let mencius_cluster ?(n = 3) ?(seed = 42) ?(tweak = fun c -> c) () =
  mk_harness ~n ~topology:(Topology.single_socket (n + 2)) ~seed
    ~make:(fun node ids ->
      let config = tweak (Mencius.default_config ~replicas:ids) in
      Mencius.create ~env:(Machine.env node) ~config)
    ~handle:Mencius.handle

let cheap_cluster ?(n = 3) ?(seed = 42) ?(tweak = fun c -> c) () =
  let h =
    mk_harness ~n ~topology:(Topology.single_socket (n + 2)) ~seed
      ~make:(fun node ids ->
        let config = tweak (Cheap_paxos.default_config ~replicas:ids) in
        Cheap_paxos.create ~env:(Machine.env node) ~config)
      ~handle:Cheap_paxos.handle
  in
  Array.iter Cheap_paxos.start h.replicas;
  h

let mencius_cores h = Array.map Mencius.replica_core h.replicas
let cheap_cores h = Array.map Cheap_paxos.replica_core h.replicas
