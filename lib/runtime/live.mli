(** Run the protocol cores for real: OCaml 5 domains (or processes)
    over pluggable transports.

    The metal-side twin of {!Ci_workload.Runner}. Each replica and each
    closed-loop client gets its own domain; every ordered pair of nodes
    gets one bounded queue — by default a {!Spsc_bytes} ring moving
    encoded messages through fixed byte slots (the per-pair mesh
    QC-libtask builds in shared memory). Each node runs an event loop
    that flushes its parked sends, drains its in-queues and fires its
    {!Timer_wheel} off the monotonic clock. The protocol and client
    code is {e exactly} the code the simulator runs — both backends
    implement {!Ci_engine.Node_env}.

    The transport is pluggable (see {!Transport}): [Spsc] runs the
    mesh in-process over byte rings; [Socket] forks one {e process}
    per node and runs the same cores over stream sockets, with
    {!Ci_consensus.Codec} as the wire format — the paper's
    machine-to-machine comparison point, minus the network.

    A run has three phases: measure for [duration_s] (clients issue
    requests closed-loop), quiesce (clients stop consuming replies) for
    [drain_s] so in-flight commands settle, then stop and wait for
    every node's loop. Then the same {!Ci_rsm.Consistency} checker the
    simulator uses is run over the live replicas' views. *)

type protocol = Ci_consensus.Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos
(** The registry's protocol names, re-exported. Every protocol runs
    here: the run is laid out, built, recovered and checked by
    {!Ci_workload.Deployment}, with the registry's timeout rule at a
    50 ms wall-clock round trip. *)

type transport = Spsc | Socket

type spec = {
  protocol : protocol;
  n_replicas : int;  (** Replica domains {e per group} (>= 2). *)
  n_clients : int;  (** Client domains (>= 1). *)
  groups : int;
      (** Independent consensus groups the keyspace is hash-partitioned
          over. [1] (the default) is the paper's single group. [> 1]
          spawns [groups * n_replicas] replica domains group-major plus
          one router domain per group; clients send to the routers,
          which forward single-shard commands and run cross-shard
          multi-puts as 2PC transactions over the owning groups. *)
  cross_shard_ratio : float;
      (** Fraction of client commands that are cross-shard two-key
          multi-puts ([0.] leaves the workload untouched). *)
  duration_s : float;  (** Measured wall-clock phase. *)
  drain_s : float;  (** Quiesce phase before stopping the domains. *)
  transport : transport;
      (** [Spsc] (default): domains over {!Spsc_bytes} rings in shared
          memory. [Socket]: one forked process per node over stream
          sockets. OCaml 5 refuses [Unix.fork] once a process has ever spawned a
          domain, so a [Socket] run must come before any [Spsc] run (or
          any other domain use) in the same process — the CLI satisfies
          this trivially, one run per invocation. *)
  queue_slots : int;  (** Ring capacity per ordered pair (in slots). *)
  slot_size : int;
      (** Bytes per ring slot — a power of two, at least
          {!Spsc_bytes.min_slot_size}. Every message without a list or
          array payload fits one 128-byte slot (at most
          {!Ci_consensus.Codec.max_fixed_size}, 74 bytes); batch
          messages spill over consecutive slots. *)
  seed : int;  (** Per-node rng streams are derived from this. *)
  client_timeout : int;
      (** Client retry timeout (ns). Keep generous: on an oversubscribed
          host a GC pause or scheduling gap must not masquerade as a
          dead replica. *)
  think : int;  (** Client think time between requests (ns). *)
  read_ratio : float;  (** Fraction of [Get] commands. *)
  key_space : int;  (** Keys drawn from [0 .. key_space-1]. *)
  outbox_cap : int;
      (** Per-destination outbox bound: a peer that stops draining
          (dead, paused, wedged) costs a sender at most this many
          parked messages per destination — the overflow is dropped and
          counted, never held in an unbounded heap. *)
  lease : int;
      (** Leader-lease duration (ns): the leader answers reads from its
          local store while a majority's grants are provably unexpired
          (wall-clock leases over the monotonic clock), degrading to
          consensus reads otherwise. [0] (the default) disables the
          mechanism — no extra messages or timers. *)
  lease_skew : int;
      (** Clock-rate-skew margin (ns) subtracted from every grant's
          validity at the leader; must be < [lease] when leases are
          on. *)
  open_loop : Ci_workload.Runner.open_loop option;
      (** When set, the client domains' {!Ci_load.Open_client} drivers
          run an open loop instead of a closed one: arrivals follow the
          offered schedule for the measured phase, latency is measured
          from the intended arrival, and the per-driver sinks are pooled
          into [result.load]. [think], [read_ratio], [cross_shard_ratio]
          and [key_space] are ignored. *)
  nemesis : Ci_faults.t;
      (** Declarative fault schedule ({!Ci_faults.empty} by default).
          Crash and pause transitions are evaluated by each replica
          domain's own event loop against the monotonic clock — a
          crashed replica keeps only its durable registers and rejoins
          through the protocol's [recover]; link faults act sender-side
          at the transport boundary. Node indices refer to replicas
          [0..groups*n_replicas-1]. [Slow] faults are simulator-only and
          rejected here. *)
}

val default_spec : protocol:protocol -> spec
(** 3 replicas, 2 clients, 1 s measured + 0.2 s drain, in-process
    transport, 64-slot 128-byte rings, 150 ms client timeout,
    write-only workload, seed 42. *)

type queue_totals = {
  q_count : int;  (** Queues (links) in the mesh. *)
  q_msgs : int;  (** Messages that crossed any link. *)
  q_blocked : int;  (** Sends that found the fast path full (outbox fallback). *)
  q_occupancy_peak : int;
      (** Worst ring occupancy at enqueue, in slots (0 on the socket
          transport — the kernel owns that buffer). *)
  q_outbox_peak : int;  (** Worst parked-outbox depth over all nodes. *)
  q_outbox_dropped : int;
      (** Messages shed at the outbox cap (undrained peer). *)
}

type result = {
  spec : spec;
  cores : int;  (** [Domain.recommended_domain_count] at run time. *)
  wall_s : float;  (** Actual measured-phase length. *)
  ops : int;  (** Replies received within the measured phase. *)
  throughput : float;  (** [ops /. wall_s]. *)
  latency : Ci_stats.Summary.t;
      (** Request latency over the measured phase (first transmission to
          reply, as in the simulator). *)
  retries : int;  (** Client timeouts that fired. *)
  leader_changes : int;
      (** Aggregated by the protocol's rule
          ({!Ci_consensus.Protocol.total_leader_changes}). 1Paxos:
          applied [LeaderChange] entries (max over replicas), 0 on a
          healthy no-fault run. Multi-Paxos: elections initiated (sum),
          1 on a healthy run (the seeded leader's own). *)
  acceptor_changes : int;  (** 1Paxos only; 0 for the others. *)
  retained : Ci_consensus.Onepaxos.retained array;
      (** 1Paxos only (empty for the others): each replica's
          protocol-table entries at the end of the run, which the
          instances in flight bound. *)
  timeline : float array;
      (** Commit rate (op/s) per 100 ms wall-clock bucket over the
          measured phase, full buckets only — the live twin of the
          simulator's [Runner.result.timeline], so failover figures can
          show both backends. *)
  queues : queue_totals;
  full_ring_sends : int array;
      (** Per node: sends that found the fast path full and fell back
          to the outbox — the back-pressure hotspot metric, also
          published as [live.node<i>.full_ring_sends] and attributed
          per message kind under [live.ring.full.<kind>]. Raise
          [queue_slots] to shrink it. *)
  alloc_words_per_op : float;
      (** Words allocated per committed op across the replica and router
          nodes ([Gc.allocated_bytes] is domain-local) — the live
          event loop's allocation guard, also published as
          [live.alloc.words_per_op]. *)
  lease_reads : int;
      (** Reads served from the leader's local store under an unexpired
          lease, summed over replicas ([0] when leases are off); also
          published as [live.lease.reads]. *)
  load : Ci_load.Load_stats.t option;
      (** Open-loop measurement sink pooled over the drivers ([Some]
          exactly when [spec.open_loop] was set); also published under [live.load.*]. *)
  consistency : Ci_rsm.Consistency.report;
      (** The simulator's checker over the live replicas' views;
          per-group and merged under sharding. *)
  atomicity : Ci_rsm.Atomicity.report option;
      (** Cross-shard 2PC atomicity over the routers' transactions and
          the groups' decided logs; [Some] exactly when [groups > 1]. *)
  metrics : Ci_obs.Metrics.t;
      (** [live.*] counters (filled by the domains via atomic counters)
          plus post-run scalars. [live.idle.sleeps] counts the event
          loops' idle sleeps, [live.idle.sleep_us_mean] is the wall time
          one took on average (each asks for 50 µs), and
          [live.idle.timer_slack_ns] is the largest per-thread timer
          slack a loop ran with (1000 on Linux, 0 where the kernel has
          no such setting). *)
  failover : Ci_obs.Failover.t option;
      (** Failover analysis around the nemesis schedule's first fault
          onset ([Some] exactly when the schedule is non-empty and its
          onset falls inside the measured phase); also published under
          [failover.*] metric keys. *)
}

val validate : spec -> unit
(** [validate spec] is the check {!run} starts with.
    @raise Invalid_argument on a malformed spec (see field docs and
    {!Ci_workload.Deployment.validate}). *)

val run : spec -> result
(** [run spec] executes one live run and waits for every node's loop
    (or reaps every forked process) before returning. On the rings the
    calling domain runs the last client node, whose loop also ends the
    measured phase and the drain; the other loops run on
    {!Ci_workload.Pool} workers, which stay parked for the next run for
    {!Ci_workload.Pool.grace_s}. A loop sets its thread's timer slack
    to 1 µs, so its 50 µs idle sleeps are not stretched to 100 µs, and
    restores the old value when it stops. On hosts with fewer cores
    than nodes the event loops fall back from spinning to sleeping so
    oversubscribed runs still make progress. On the socket transport
    the usual [Unix.Unix_error] exceptions escape if the host cannot
    provide sockets or processes.
    @raise Invalid_argument on a malformed spec (see field docs). *)

val transport_of_string : string -> transport option
(** Accepts ["spsc"], ["rings"], ["socket"], ["sockets"]. *)

val transport_name : transport -> string
(** ["spsc"] or ["socket"]. *)
