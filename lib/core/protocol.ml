module Sim_time = Ci_engine.Sim_time

type name = Onepaxos | Multipaxos | Twopc | Mencius | Cheappaxos

let all = [ Onepaxos; Multipaxos; Twopc; Mencius; Cheappaxos ]

let to_string = function
  | Onepaxos -> "1paxos"
  | Multipaxos -> "multipaxos"
  | Twopc -> "2pc"
  | Mencius -> "mencius"
  | Cheappaxos -> "cheappaxos"

let of_string = function
  | "1paxos" | "onepaxos" -> Some Onepaxos
  | "multipaxos" | "multi-paxos" -> Some Multipaxos
  | "2pc" | "twopc" -> Some Twopc
  | "mencius" -> Some Mencius
  | "cheappaxos" -> Some Cheappaxos
  | _ -> None

let leaderless = function Mencius -> true | _ -> false
let client_failover = function Twopc -> false | _ -> true
let shardable = function Onepaxos | Multipaxos -> true | _ -> false
let leases = function Onepaxos | Multipaxos -> true | _ -> false
let recoverable = function Onepaxos | Multipaxos -> true | _ -> false

(* 1Paxos counts applied LeaderChange entries and Cheap Paxos applied
   epochs: every replica applies the same configuration log, so the
   most caught-up replica holds the global count. Multi-Paxos counts the
   phase-1 rounds each replica itself started, so only the sum counts
   them all. *)
let total_leader_changes name counts =
  match name with
  | Multipaxos -> Array.fold_left ( + ) 0 counts
  | Onepaxos | Twopc | Mencius | Cheappaxos -> Array.fold_left max 0 counts

type knobs = {
  rtt : Sim_time.t;
  relaxed_reads : bool;
  local_reads : bool;
  lease : Sim_time.t;
  lease_skew : Sim_time.t;
  batch : int;
  batch_delay : Sim_time.t;
  window : int;
  colocate_acceptor : bool;
  unsafe_stale_adoption : bool;
}

let default_knobs =
  {
    rtt = 0;
    relaxed_reads = false;
    local_reads = false;
    lease = 0;
    lease_skew = 0;
    batch = 1;
    batch_delay = 0;
    window = 0;
    colocate_acceptor = false;
    unsafe_stale_adoption = false;
  }

type env = Wire.t Ci_engine.Node_env.t

type replica = {
  handle : src:int -> Wire.t -> unit;
  start : unit -> unit;
  core : Replica_core.t;
  digest : unit -> int;
  leader_changes : unit -> int;
  acceptor_changes : unit -> int;
  lease_reads : unit -> int;
  retained : unit -> Onepaxos.retained option;
  crash : (unit -> env -> replica) option;
}

(* Failure-detection and retry timeouts must exceed the deployment's
   round trip: a default tuned for the multicore preset would make a
   LAN or wall-clock deployment suspect healthy peers forever. *)
let at_least default ~rtts k = max default (rtts * k.rtt)

let onepaxos_config k ~replicas =
  let d = Onepaxos.default_config ~replicas in
  {
    d with
    Onepaxos.relaxed_reads = k.relaxed_reads;
    initial_acceptor =
      (if k.colocate_acceptor then replicas.(0)
       else replicas.(1 mod Array.length replicas));
    acceptor_timeout = at_least d.Onepaxos.acceptor_timeout ~rtts:4 k;
    prepare_timeout = at_least d.Onepaxos.prepare_timeout ~rtts:4 k;
    check_period = at_least d.Onepaxos.check_period ~rtts:1 k;
    pu_timeout = at_least d.Onepaxos.pu_timeout ~rtts:3 k;
    max_batch = k.batch;
    batch_delay = k.batch_delay;
    window = k.window;
    lease = k.lease;
    lease_skew = k.lease_skew;
    unsafe_stale_adoption = k.unsafe_stale_adoption;
  }

let multipaxos_config k ~replicas =
  let d = Multipaxos.default_config ~replicas in
  {
    d with
    Multipaxos.relaxed_reads = k.relaxed_reads;
    election_timeout = at_least d.Multipaxos.election_timeout ~rtts:3 k;
    max_batch = k.batch;
    batch_delay = k.batch_delay;
    window = k.window;
    lease = k.lease;
    lease_skew = k.lease_skew;
  }

let cheappaxos_config k ~replicas =
  let d = Cheap_paxos.default_config ~replicas in
  {
    d with
    Cheap_paxos.acceptor_timeout = at_least d.Cheap_paxos.acceptor_timeout ~rtts:4 k;
    check_period = at_least d.Cheap_paxos.check_period ~rtts:1 k;
    reconfig_timeout = at_least d.Cheap_paxos.reconfig_timeout ~rtts:4 k;
  }

let rec of_onepaxos config x =
  {
    handle = (fun ~src m -> Onepaxos.handle x ~src m);
    start = (fun () -> Onepaxos.start x);
    core = Onepaxos.replica_core x;
    digest = (fun () -> Onepaxos.digest x);
    leader_changes = (fun () -> Onepaxos.leader_changes x);
    acceptor_changes = (fun () -> Onepaxos.acceptor_changes x);
    lease_reads = (fun () -> Onepaxos.lease_reads x);
    retained = (fun () -> Some (Onepaxos.retained x));
    crash =
      Some
        (fun () ->
          let stable = Onepaxos.stable x in
          fun env -> of_onepaxos config (Onepaxos.recover ~env ~config ~stable));
  }

let rec of_multipaxos config x =
  {
    handle = (fun ~src m -> Multipaxos.handle x ~src m);
    start = (fun () -> Multipaxos.start x);
    core = Multipaxos.replica_core x;
    digest = (fun () -> Multipaxos.digest x);
    leader_changes = (fun () -> Multipaxos.elections x);
    acceptor_changes = (fun () -> 0);
    lease_reads = (fun () -> Multipaxos.lease_reads x);
    retained = (fun () -> None);
    crash =
      Some
        (fun () ->
          let stable = Multipaxos.stable x in
          fun env -> of_multipaxos config (Multipaxos.recover ~env ~config ~stable));
  }

(* The fields the protocols without leases or crash-recovery share. *)
let basic ~handle ~core ~digest =
  {
    handle;
    start = ignore;
    core;
    digest;
    leader_changes = (fun () -> 0);
    acceptor_changes = (fun () -> 0);
    lease_reads = (fun () -> 0);
    retained = (fun () -> None);
    crash = None;
  }

let create name k ~replicas env =
  if k.lease > 0 && not (leases name) then
    invalid_arg
      (Printf.sprintf
         "Protocol.create: leader leases require 1paxos or multipaxos (got %s)"
         (to_string name));
  match name with
  | Onepaxos ->
    let config = onepaxos_config k ~replicas in
    of_onepaxos config (Onepaxos.create ~env ~config)
  | Multipaxos ->
    let config = multipaxos_config k ~replicas in
    of_multipaxos config (Multipaxos.create ~env ~config)
  | Twopc ->
    let config =
      { (Twopc.default_config ~replicas) with Twopc.local_reads = k.local_reads }
    in
    let x = Twopc.create ~env ~config in
    basic
      ~handle:(fun ~src m -> Twopc.handle x ~src m)
      ~core:(Twopc.replica_core x)
      ~digest:(fun () -> Twopc.digest x)
  | Mencius ->
    let config =
      {
        (Mencius.default_config ~replicas) with
        Mencius.relaxed_reads = k.relaxed_reads;
      }
    in
    let x = Mencius.create ~env ~config in
    basic
      ~handle:(fun ~src m -> Mencius.handle x ~src m)
      ~core:(Mencius.replica_core x)
      ~digest:(fun () -> Mencius.digest x)
  | Cheappaxos ->
    let x = Cheap_paxos.create ~env ~config:(cheappaxos_config k ~replicas) in
    {
      (basic
         ~handle:(fun ~src m -> Cheap_paxos.handle x ~src m)
         ~core:(Cheap_paxos.replica_core x)
         ~digest:(fun () -> Cheap_paxos.digest x))
      with
      start = (fun () -> Cheap_paxos.start x);
      leader_changes = (fun () -> Cheap_paxos.reconfigs x);
    }
