(** The deployment: the one module that lays out a run's nodes, builds
    every role on them, swaps a crashed replica for its restart, and
    turns the nodes' end-of-run reports into the run's verdicts and
    metric blocks. The simulator ({!Runner}) and both live transports
    ([Ci_runtime.Live]) build through it on environments they supply;
    the machine or transport, the event loop, fault delivery and phase
    control stay theirs.

    {b Layout.} Node ids are dense. Replicas come first, group-major:
    group [g] is nodes [g*R .. g*R+R-1], led by its first node (the
    entry replica). A sharded run ([groups > 1]) then has one router per
    group, and a 2PC participant in front of each entry replica. Client
    nodes come last, each running one {!Ci_load.Open_client} driver,
    closed- or open-loop. A joint deployment hosts client [i] on replica
    node [i]. *)

type open_loop = Ci_load.Open_client.open_loop = {
  arrival : Ci_load.Arrival.spec;
      (** Offered load {e per driver node}: the total is [rate × clients]. *)
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Ci_load.Open_client.mix;
  range_span : int;  (** Keys per [Range] command. *)
  population : int;  (** Logical clients multiplexed per driver. *)
  sessions : int;  (** Concurrent in-flight requests per driver. *)
}

val default_open_loop : open_loop
(** 50k fixed ops/s per driver, uniform keys over 64Ki, 50% reads,
    100k logical clients over 16 sessions. *)

type config = {
  protocol : Ci_consensus.Protocol.name;
  knobs : Ci_consensus.Protocol.knobs;
      (** Every replica's settings; the read flags also shape clients. *)
  groups : int;
  replicas : int;  (** Per group. *)
  clients : int;  (** Client nodes; [= replicas] when [joint]. *)
  joint : bool;
  timeout : int;  (** The drivers' and routers' retry timeout (ns). *)
  closed_loop : Ci_load.Open_client.closed_loop;
      (** The workload unless [open_loop] is set. Targets, fail-over and
          the read flags are set per driver from the layout and the
          protocol. *)
  open_loop : open_loop option;  (** Open-loop drivers instead. *)
  window : int * int;
      (** The measured phase: open-loop sinks count inside it and
          drivers stop arriving at its end. *)
  bucket : int;  (** {!Ci_load.Run_stats} time-series bucket (ns). *)
  shared_sinks : bool;
      (** One sink for all client nodes (one thread of control), or one
          per client node. *)
}

val validate : who:string -> nemesis:Ci_faults.t -> config -> unit
(** The checks every backend shares: counts and ratios in range, the
    protocol's traits (sharding, leases, crash-recovery under crash or
    pause faults), what joint placement excludes, then the drivers'
    inputs through {!Ci_load.Open_client.validate_config}.
    @raise Invalid_argument with a message starting with [who]. *)

(** {1 Layout} *)

type role =
  | Replica of { group : int; participant : bool }
  | Router of { group : int }
  | Load of { index : int }  (** The [index]-th client or driver. *)

val n_nodes : config -> int
val total_replicas : config -> int
val client_base : config -> int

val roles : config -> int -> role list
(** What node [i] hosts, replica first. *)

val targets : config -> int array
(** Where clients send: the replicas, or the routers when sharded. *)

val primary : config -> int -> int
(** Client [k]'s first target: its router when sharded, a leader of its
    own under a leaderless protocol, else the seeded leader. *)

(** {1 Building and driving} *)

type handler = src:int -> Ci_consensus.Wire.t -> unit
type t

val build :
  ?node:int ->
  config ->
  env:(int -> Ci_consensus.Protocol.env) ->
  install:(int -> handler -> unit) ->
  t
(** [build config ~env ~install] creates the roles of every node (or of
    [node] only) on [env i] — replicas, then drivers, then
    participants and routers, which keeps the simulator's shared random
    stream — and hands each node's handler to [install]. Handlers are
    closures fixed here: only the message is matched per delivery. *)

val start : ?node:int -> t -> unit
(** Start the replicas, then the drivers. *)

val crash : t -> int -> (Ci_consensus.Protocol.env -> unit) option
(** [crash t i] captures replica [i]'s durable registers now and returns
    its restart, which rebuilds the replica on a fresh environment and
    installs node [i]'s new handler; [None] without crash-recovery. *)

val replies : t -> int
val retries : t -> int
(** Replies received and timeouts fired so far by the drivers. *)

(** {1 Reports} *)

type report
(** What one node saw: its replica's view and counters, its proposers'
    histories, its router's transactions, the sinks it owns. Plain data
    that survives [Marshal] with closures, so a forked node can send it
    back. *)

val reports : t -> report list

type outcome = {
  consistency : Ci_rsm.Consistency.report;
  atomicity : Ci_rsm.Atomicity.report option;  (** [Some] iff sharded. *)
  leader_changes : int;
      (** Aggregated by {!Ci_consensus.Protocol.total_leader_changes}. *)
  leader_changes_max : int;
  leader_changes_sum : int;
  acceptor_changes : int;  (** Maximum over replicas. *)
  acceptor_changes_sum : int;
  lease_reads : int;
  retained : Ci_consensus.Onepaxos.retained array;
  retries : int;
  stats : Ci_load.Run_stats.t;  (** The closed-loop sinks, pooled. *)
  load : Ci_load.Load_stats.t option;  (** The open-loop sinks, pooled. *)
  timeline : float array;
      (** Commit rate per full 100 ms bucket of [\[0, until_)]. *)
  failover : Ci_obs.Failover.t option;
      (** Around the first fault, when it falls inside [\[0, until_)]. *)
}

val assemble :
  config ->
  nemesis:Ci_faults.t ->
  prefix:string ->
  metrics:Ci_obs.Metrics.t ->
  until_:int ->
  faults:int * int ->
  report list ->
  outcome
(** [assemble config ~nemesis ~prefix ~metrics ~until_ ~faults reports]
    checks consistency per group and cross-shard atomicity, aggregates
    the counters, and publishes [shard.*], [lease.reads], [load.*] and,
    when a fault fell inside the run, [faults.{dropped,duplicated}]
    (from [faults]) under [prefix], then [failover.*]. A block whose
    feature is off is not published. *)
