(** Per-figure experiment drivers.

    One function per table/figure of the paper's evaluation (and per
    ablation this reproduction adds); each returns plain data so the
    benchmark harness, the CLI and the test suite can share them. The
    mapping to the paper is indexed in DESIGN.md (E1–E9, A1–A3) and the
    measured-vs-paper comparison lives in EXPERIMENTS.md.

    Every driver takes [?jobs] (default {!Pool.default_jobs}): the
    independent simulation runs behind a figure are flattened into one
    batch and fanned out over that many domains with
    {!Pool.parallel_map}. Results are keyed by spec index and each run
    is deterministic and self-contained, so the returned data — and
    anything rendered from it — is byte-identical at any [jobs]. *)

(** {1 E1 — Section 3: network characteristics} *)

type netchar_row = {
  setting : string;  (** "multicore" or "lan". *)
  trans_us : float;  (** Measured transmission delay. *)
  ping_us : float;  (** One-slot-queue inter-send latency (≃ 2t+2p). *)
  prop_us : float;  (** Propagation derived as (ping − 2·trans)/2. *)
  ratio : float;  (** trans/prop. *)
}

val netchar : ?jobs:int -> unit -> netchar_row list
(** Reproduces the Section 3 micro-experiments on the raw channel. *)

(** {1 Generic sweep row} *)

type point = {
  x : int;  (** Sweep coordinate (clients or replicas). *)
  throughput : float;  (** op/s. *)
  latency_us : float;  (** Mean commit latency. *)
  leader_util : float;
      (** Leader-core (core 0) utilization inside the measurement
          window — the saturation evidence behind E4/E5. *)
}

type series = { label : string; points : point list }

(** {1 E2 — Figure 2: Multi-Paxos, LAN vs multicore} *)

val fig2 : ?jobs:int -> ?clients:int list -> ?duration:int -> unit -> series list

(** {1 E4 — Section 7.2: single-client latency table} *)

type latency_row = {
  protocol : string;
  latency_us : float;
  paper_latency_us : float;  (** The value the paper reports. *)
  throughput_1c : float;
  leader_util : float;  (** Leader-core utilization at one client. *)
}

val latency_table : ?jobs:int -> ?duration:int -> unit -> latency_row list

(** {1 E5 — Figure 8: latency vs throughput, 1..45 clients} *)

val fig8 : ?jobs:int -> ?clients:int list -> ?duration:int -> unit -> series list

(** {1 E6 — Figure 9: joint deployment, throughput vs replicas} *)

val fig9 : ?jobs:int -> ?nodes:int list -> ?duration:int -> unit -> series list

(** {1 E7 — Figure 10: 2PC-Joint read mixes vs 1Paxos} *)

type bar = { label : string; clients : int; throughput : float }

val fig10 : ?jobs:int -> ?duration:int -> unit -> bar list

(** {1 E3/E8 — slow-leader timelines (Section 2.2 / Figure 11)} *)

type timeline = {
  label : string;
  bucket_ms : float;
  rates : float array;  (** op/s per bucket. *)
  leader_changes : int;
      (** [Runner.result.leader_changes], aggregated by the protocol's
          rule — the count of global transitions, which is what the
          timeline annotations quote. *)
  acceptor_changes : int;  (** Per-replica maximum, as above. *)
}

val fig11 : ?jobs:int -> ?duration:int -> unit -> timeline list
(** 1Paxos with a slowed leader, plus the no-failure baseline
    (Figure 11). *)

val sec2_2 : ?jobs:int -> ?duration:int -> unit -> timeline list
(** 2PC with a slowed coordinator (the Section 2.2 experiment). *)

val failover : ?jobs:int -> ?duration:int -> unit -> timeline list
(** Figure 11's shape under a {e crash} instead of a slowdown: 1Paxos
    with the active acceptor (node 1) crash-restarted via the nemesis,
    the same for the leader (node 0), and the no-failure baseline.
    Crash at 40 ms, restart 30 ms later, recovery through the
    protocol's own [recover]/takeover machinery. *)

(** {1 E9 — Section 8: 1Paxos over an IP network} *)

val lan_1paxos : ?jobs:int -> ?clients:int list -> ?duration:int -> unit -> series list

(** {1 A1..A3 — ablations} *)

val ablation_placement : ?jobs:int -> ?duration:int -> unit -> series list
(** 1Paxos with the active acceptor colocated with the leader vs on a
    separate node (Section 5.4's placement rule), under a leader
    slowdown: colocation couples the two failure domains. *)

val ablation_slots : ?jobs:int -> ?duration:int -> unit -> series list
(** Channel slot count 1 / 7 / 64 (QC-libtask uses 7): back-pressure
    effect on 1Paxos throughput. *)

val ablation_ratio : ?jobs:int -> ?duration:int -> unit -> series list
(** 1Paxos vs Multi-Paxos peak throughput while propagation delay grows
    from multicore (ratio ≈ 1) towards IP-like (ratio ≈ 0.01): the
    message-count advantage is a transmission-delay phenomenon. *)

(** {1 A6..A8 — batching / pipelining / coalescing ablations} *)

val ablation_batch : ?jobs:int -> ?duration:int -> unit -> series list
(** 1Paxos and Multi-Paxos peak throughput vs leader batch size
    (x = commands per consensus instance, 1..32) at 44 clients on the
    48-core preset. The x = 1 row is the paper's untouched protocol
    (no batching, no window, no coalescing); every other row adds
    pipeline depth 8 and receive-coalescing budget 16. *)

val ablation_pipeline : ?jobs:int -> ?duration:int -> unit -> series list
(** 1Paxos throughput vs pipeline depth (x = max batches in flight at
    the leader) with batch size and coalescing held at 8/16: depth 1
    degenerates to stop-and-wait per batch. *)

val ablation_coalesce : ?jobs:int -> ?duration:int -> unit -> series list
(** 1Paxos throughput vs receive-coalescing budget (x = max messages
    drained per reception charge) with batch/pipeline held at 8/8:
    budget 1 is the uncoalesced one-reception-per-message model. *)

(** {1 A4 — related-protocol comparison (Section 8)} *)

val protocol_comparison :
  ?jobs:int ->
  ?duration:int ->
  ?params:Ci_machine.Net_params.t ->
  unit ->
  series list
(** All five implemented protocols (2PC, Multi-Paxos, Mencius, Cheap
    Paxos, 1Paxos) on the same 3-replica machine and client sweep — the
    quantitative backdrop to the paper's §8 discussion: Mencius spreads
    the leader's transmission load, Cheap Paxos cuts the per-agreement
    message count to six, 1Paxos to five. Pass [params] to rerun the
    comparison on another network (e.g. {!Ci_machine.Net_params.rdma},
    the paper's concluding rack-scale outlook). *)

(** {1 A5 — sharded multi-group scaling (ISSUE 7)} *)

val shards :
  ?jobs:int ->
  ?duration:int ->
  ?groups:int list ->
  ?cross_shard_ratio:float ->
  unit ->
  series list
(** 1Paxos and Multi-Paxos throughput vs group count (x = groups), one
    socket per group of 3 replicas plus two tail sockets for routers
    and clients; [cross_shard_ratio] of the workload (default 5%, 0 at
    one group) is cross-shard multi-puts run as 2PC transactions.
    Every point is consistency-checked per group and atomicity-checked
    across groups; raises [Failure] on any violation. *)

(** {1 A6 — open-loop service curves (ISSUE 9)} *)

type load_row = {
  l_label : string;  (** Curve name, e.g. ["1paxos"] or ["1paxos +lease"]. *)
  l_offered : float;  (** Total offered op/s over all drivers. *)
  l_achieved : float;  (** Completions/s inside the measurement window. *)
  l_p50_us : float;  (** Latency from the intended arrival. *)
  l_p99_us : float;
  l_p999_us : float;
  l_service_p99_us : float;  (** Latency from the first transmission. *)
  l_lease_reads : int;  (** Local lease reads served (0 with leases off). *)
  l_knee : bool;  (** This point is the curve's saturation knee. *)
}

val load_curve :
  ?jobs:int ->
  ?duration:int ->
  ?rates:float list ->
  ?read_ratio:float ->
  ?lease:int ->
  unit ->
  load_row list
(** 1Paxos and Multi-Paxos p50/p99/p999-vs-offered-load curves under
    the open-loop driver (two drivers, [rates] each, 90% reads by
    default), latency charged from the intended arrival so saturation
    shows queueing delay rather than shed load. The saturation knee of
    each p99 curve is flagged. Pass [lease] (ns) to serve leader-local
    linearizable reads under leader leases. Raises [Failure] on a
    consistency violation or any stale session read. *)

(** {1 Rendering} *)

val pp_netchar : Format.formatter -> netchar_row list -> unit
val pp_series : Format.formatter -> series list -> unit
val pp_latency_table : Format.formatter -> latency_row list -> unit
val pp_bars : Format.formatter -> bar list -> unit
val pp_load_table : Format.formatter -> load_row list -> unit
val pp_timelines : Format.formatter -> timeline list -> unit
