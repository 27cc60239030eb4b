(** Experiment runner: build a machine, deploy a protocol and clients,
    inject faults, run, measure, and check consistency.

    Two deployments mirror the paper's:
    - {b Dedicated} (§7.1–7.3): replicas on cores [0..R-1], each client
      on its own core after them, requests to the leader (core 0), with
      fail-over on timeout;
    - {b Joint} (§7.4–7.5): every node is both replica and client; all
      commands are forwarded to the leader. *)

type protocol = Ci_consensus.Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos
(** The registry's protocol names, re-exported; replicas are built and
    driven through {!Ci_consensus.Protocol}. *)

type placement =
  | Dedicated of { n_replicas : int; n_clients : int }
  | Joint of { n_nodes : int }

type open_loop = Deployment.open_loop = {
  arrival : Ci_load.Arrival.spec;
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Ci_load.Open_client.mix;
  range_span : int;
  population : int;
  sessions : int;
}
(** The open-loop workload knobs, re-exported from {!Deployment}. *)

val default_open_loop : open_loop

type spec = {
  protocol : protocol;
  placement : placement;
  groups : int;
      (** Independent consensus groups the keyspace is hash-partitioned
          over (sharding, ISSUE 7). [1] (the default) is the paper's
          single group and is byte-identical to the pre-sharding
          runner. [> 1] requires 1Paxos or Multi-Paxos under dedicated
          placement without relaxed reads; [placement.n_replicas] is
          then {e per group} (group [g] spans cores
          [g*R .. (g+1)*R-1]), one router node per group is added after
          the replicas, and clients send to the routers. *)
  cross_shard_ratio : float;
      (** Fraction of client commands that are cross-shard two-key
          multi-puts, routed through 2PC over the owning groups'
          consensus. [0.] (the default) leaves the workload — and the
          client rng stream — untouched. *)
  topology : Ci_machine.Topology.t;
  params : Ci_machine.Net_params.t;
  duration : int;  (** Measurement window length (ns). *)
  warmup : int;  (** Discarded start-up period (ns). *)
  drain : int;  (** Extra time simulated after the window (ns). *)
  seed : int;
  read_ratio : float;
  relaxed_reads : bool;  (** 1Paxos/Multi-Paxos relaxed local reads. *)
  local_reads : bool;  (** 2PC-Joint quiescent local reads. *)
  think : int;  (** Client think time (ns). *)
  timeout : int;  (** Client retry timeout (ns). *)
  nemesis : Ci_faults.t;
      (** Declarative fault schedule ({!Ci_faults.empty} by default —
          the empty schedule is guaranteed not to perturb the run).
          Link faults and slowdowns work for every protocol (a [Slow]
          with an infinite factor is a crashed core); crash and pause
          faults require a protocol whose registry entry has a [crash]
          (1Paxos or Multi-Paxos) under dedicated placement, and their
          node indices refer to replicas [0..R-1]. Invalid or
          unsupported schedules raise [Invalid_argument]. *)
  bucket : int;  (** Throughput time-series bucket (ns). *)
  colocate_acceptor : bool;
      (** 1Paxos only: place the initial active acceptor on the leader's
          node instead of a separate one (violating Section 5.4's
          placement rule) — used by the placement ablation. *)
  batch : int;
      (** 1Paxos/Multi-Paxos leader-side command batching: commands per
          consensus instance. [1] (the default) keeps the paper's
          one-command-per-instance protocol byte-identical. *)
  batch_delay : int;
      (** How long (ns) the leader holds a partial batch hoping for
          more commands before flushing it anyway. *)
  pipeline : int;
      (** 1Paxos/Multi-Paxos pipeline depth: maximum batches in flight
          at the leader. [0] (the default) leaves it unbounded as in
          the paper; setting it also activates the batching layer. *)
  lease : int;
      (** Leader-lease duration (ns) for 1Paxos/Multi-Paxos: the leader
          serves linearizable reads locally while a majority's grants
          are provably unexpired, degrading to consensus reads
          otherwise. [0] (the default) disables the mechanism entirely
          — no extra messages, timers, or rng draws — and is required
          for the other protocols. Mutually exclusive with
          [relaxed_reads]. *)
  lease_skew : int;
      (** Clock-rate-skew safety margin (ns) subtracted from every
          grant's validity at the leader; must be < [lease] when leases
          are on. *)
  open_loop : open_loop option;
      (** When set, the client nodes' {!Ci_load.Open_client} drivers
          run an open loop instead of a closed one: arrivals follow the
          offered schedule until the measurement window ends, latency is
          measured from the intended arrival (coordinated-omission
          aware), and the per-run histograms land in [result.load].
          Requires dedicated placement. [read_ratio], [think] and
          [cross_shard_ratio] are ignored. *)
  trace : Ci_obs.Event.ring option;
      (** When set, the run records typed trace events (sends,
          deliveries, self-deliveries, timers, busy spans, phases) into
          the ring, message events labelled with wire constructor
          names. *)
}

val default_spec : protocol:protocol -> placement:placement -> spec
(** Multicore parameters on the 48-core topology, 50 ms window after
    5 ms warm-up, write-only workload, no faults. *)

type window_counts = {
  w_messages : int;  (** Boundary-crossing messages delivered. *)
  w_sends : int;  (** Boundary-crossing messages handed to channels. *)
  w_self : int;  (** Collapsed-role self-deliveries executed. *)
  w_retries : int;  (** Client timeouts. *)
  w_replies : int;  (** Replies received by clients. *)
}
(** Event counts confined to one measurement window. *)

type window_split = {
  warmup_w : window_counts;  (** [0, warmup). *)
  measure_w : window_counts;  (** [warmup, warmup + duration). *)
  drain_w : window_counts;  (** [warmup + duration, horizon). *)
}

type core_usage = {
  u_core : int;  (** Core id. *)
  u_busy_ns : int;  (** Occupation inside the measurement window. *)
  u_util : float;  (** [u_busy_ns / duration]; can exceed 1 transiently
                       when booked work from the warmup window completes
                       inside the measurement window. *)
  u_queue_peak : int;  (** Worst work-queue depth over the whole run. *)
  u_slowed_ns : int;  (** Occupation inside slowdown windows, whole run. *)
}

type result = {
  commits : int;  (** Replies inside the measurement window. *)
  total_replies : int;  (** Replies over the whole run. *)
  throughput : float;  (** Commits per second inside the window. *)
  latency : Ci_stats.Summary.t;  (** Latency summary inside the window. *)
  timeline : float array;  (** Commit rate per bucket over the run. *)
  messages : int;
      (** Boundary-crossing messages delivered {e inside the measurement
          window} — aligned with [commits], so per-commit message ratios
          (Section 4.3) are consistent. *)
  messages_total : int;  (** Same, over the whole run. *)
  self_delivered : int;
      (** Collapsed-role self-deliveries inside the window (excluded
          from [messages]). *)
  self_delivered_total : int;  (** Same, over the whole run. *)
  retries : int;  (** Client timeouts inside the measurement window. *)
  retries_total : int;  (** Client timeouts over the whole run. *)
  windows : window_split;  (** Full warmup/measure/drain split. *)
  cores : core_usage list;
      (** Utilization for every core hosting a node, ascending core id;
          the leader's core is [u_core = 0]. *)
  leader_changes : int;
      (** Leader changes, aggregated by the protocol's rule
          ({!Ci_consensus.Protocol.total_leader_changes}): the maximum
          over replicas of a replicated counter (1Paxos, Cheap Paxos —
          the transitions the most caught-up replica applied), the sum
          of a per-replica one (Multi-Paxos elections started). This is
          the figure the experiment tables and timelines (E6/E7)
          quote. *)
  leader_changes_sum : int;
      (** Sum over replicas of the leader-change counters (≈ max ×
          replicas for a replicated counter when all replicas observe
          every change) — useful for spotting replicas that missed
          configuration entries. *)
  acceptor_changes : int;  (** Per-replica maximum, as above. *)
  acceptor_changes_sum : int;  (** Sum over replicas, as above. *)
  sim_events : int;
      (** Discrete events the engine executed over the whole run — the
          denominator of the events/sec engine self-benchmark. *)
  lease_reads : int;
      (** Reads served from the leader's local store under an unexpired
          lease, summed over replicas ([0] when leases are off). *)
  load : Ci_load.Load_stats.t option;
      (** Open-loop measurement sink — intended-arrival and service
          latency histograms, issued/completed/rejected/stale-read
          counts — pooled over the drivers; [Some] exactly when
          [spec.open_loop] was set. *)
  metrics : Ci_obs.Metrics.t;
      (** Flat registry of every measurement: per-node
          [node<i>.{sent,recv,self}.{warmup,measure,drain}], per-core
          [core<c>.{busy_ns.measure,util.measure,queue_peak,slowed_ns}],
          channel back-pressure totals, window totals, and
          [trace.dropped] when tracing. *)
  consistency : Ci_rsm.Consistency.report;
      (** Per-group under sharding: each group is checked independently
          (agreement is meaningless across groups) and the reports are
          merged — violations concatenated, counts summed. *)
  atomicity : Ci_rsm.Atomicity.report option;
      (** Cross-shard 2PC atomicity over the routers' transactions and
          the groups' decided logs; [Some] exactly when [groups > 1]. *)
  failover : Ci_obs.Failover.t option;
      (** Failover analysis around the nemesis schedule's first fault
          onset, over the whole run ([Some] exactly when the schedule
          is non-empty and its onset falls inside the run); also
          published under [failover.*] metric keys. *)
}

val run : spec -> result
(** [run spec] executes the experiment and returns its measurements.
    Raises [Invalid_argument] on nonsensical placements (more replicas
    than cores, joint with fewer than two nodes, ...). *)

val leader_util : result -> float
(** [leader_util r] is core 0's measurement-window utilization ([0.]
    when no node lives there). *)

val pp_result : Format.formatter -> result -> unit
(** One-paragraph human-readable rendering. *)
