(** The protocol registry: the one place that knows the five protocols.

    Every harness — the simulator's [Ci_workload.Runner], both live
    transports of [Ci_runtime.Live] and the model checker's
    [Ci_explore.World] — builds, drives, counts and recovers replicas
    through {!create} and the {!replica} record it returns, never by
    matching on a protocol. The whole system under test is therefore
    configured from one {!knobs} record, whatever backend runs it. *)

(** {1 Names} *)

type name = Onepaxos | Multipaxos | Twopc | Mencius | Cheappaxos

val all : name list
(** Every protocol, in the order above. *)

val to_string : name -> string
(** Canonical name: ["1paxos"], ["multipaxos"], ["2pc"], ["mencius"],
    ["cheappaxos"] — the vocabulary of trace files, figure labels and
    the CLI. *)

val of_string : string -> name option
(** Accepts every canonical name plus the aliases ["onepaxos"],
    ["multi-paxos"] and ["twopc"]. [of_string (to_string p) = Some p]. *)

(** {1 Static traits} *)

val leaderless : name -> bool
(** Mencius: every replica leads its own instances, so clients spread
    their primaries over the replicas instead of all addressing
    replica 0. *)

val client_failover : name -> bool
(** Whether clients rotate to another replica on a timeout. [false] for
    2PC, whose coordinator is fixed: no other replica could serve them. *)

val shardable : name -> bool
(** Whether a sharded deployment (groups > 1, a 2PC participant in
    front of each group's entry replica) runs this protocol: 1Paxos and
    Multi-Paxos. *)

val leases : name -> bool
(** Whether the protocol has leader leases ({!knobs.lease} > 0): 1Paxos
    and Multi-Paxos. *)

val recoverable : name -> bool
(** Whether {!create}'s replica has a {!replica.crash}, so crash and
    pause faults can be injected: 1Paxos and Multi-Paxos. *)

val total_leader_changes : name -> int array -> int
(** [total_leader_changes name counts] aggregates the per-replica
    {!replica.leader_changes} counters of one deployment into the run's
    leader-change count. 1Paxos (applied [LeaderChange] entries) and
    Cheap Paxos (applied epochs) count a {e replicated} log, so the
    maximum is the global count. Multi-Paxos counts the phase-1 rounds
    each replica itself started, a {e per-replica} counter, so the sum
    is. *)

(** {1 Building replicas} *)

type knobs = {
  rtt : Ci_engine.Sim_time.t;
      (** The deployment's round trip. Failure-detection and retry
          timeouts become [max default (k × rtt)]: 1Paxos acceptor and
          prepare timeouts [4 × rtt], check period [rtt], PaxosUtility
          retry [3 × rtt]; Multi-Paxos election timeout [3 × rtt]; Cheap
          Paxos acceptor and reconfiguration timeouts [4 × rtt], check
          period [rtt]. [0] keeps every protocol default. *)
  relaxed_reads : bool;  (** 1Paxos, Multi-Paxos, Mencius. *)
  local_reads : bool;  (** 2PC quiescent local reads. *)
  lease : Ci_engine.Sim_time.t;
      (** Leader-lease duration (1Paxos, Multi-Paxos); [0] disables. *)
  lease_skew : Ci_engine.Sim_time.t;
  batch : int;  (** 1Paxos/Multi-Paxos commands per instance. *)
  batch_delay : Ci_engine.Sim_time.t;
  window : int;  (** 1Paxos/Multi-Paxos pipeline depth; [0] unbounded. *)
  colocate_acceptor : bool;
      (** 1Paxos: seed the active acceptor on the leader's node. *)
  unsafe_stale_adoption : bool;
      (** 1Paxos test fixture: re-seed the historical split-brain. *)
}
(** The shared run settings. Each protocol reads the fields it has and
    ignores the rest. *)

val default_knobs : knobs
(** Every field at the protocols' own default: [rtt = 0], reads through
    consensus, no lease, one command per instance, no batch delay,
    unbounded window, separate acceptor. *)

type env = Wire.t Ci_engine.Node_env.t

type replica = {
  handle : src:int -> Wire.t -> unit;
  start : unit -> unit;
      (** Arm timers and seed leadership; call once every replica
          exists. *)
  core : Replica_core.t;  (** The learner/executor side. *)
  digest : unit -> int;  (** The explorer's state fingerprint. *)
  leader_changes : unit -> int;
      (** This replica's leader-change counter; aggregate a deployment's
          with {!total_leader_changes}. *)
  acceptor_changes : unit -> int;
      (** Applied 1Paxos [AcceptorChange] entries (replicated: take the
          maximum); [0] for the other protocols. *)
  lease_reads : unit -> int;
  retained : unit -> Onepaxos.retained option;
      (** 1Paxos protocol-table sizes; [None] for the others. *)
  crash : (unit -> env -> replica) option;
      (** [None] for a protocol without crash-recovery (2PC, Mencius,
          Cheap Paxos). Otherwise calling it captures the durable
          registers {e now} — the crash instant — and returns the
          restart: given a fresh environment, it rebuilds the replica
          through the protocol's [recover]. *)
}
(** One protocol replica, uniformly. *)

val create : name -> knobs -> replicas:int array -> env -> replica
(** [create name knobs ~replicas env] builds the replica hosted by
    [env] in the group [replicas] (node ids; the first is the seeded
    leader). All replicas of a group take the same knobs.
    @raise Invalid_argument on a lease for a protocol without leases,
    or on a configuration the protocol itself rejects. *)
