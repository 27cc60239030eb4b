(** Open-loop workload driver.

    Unlike the closed-loop {!Ci_workload.Client} (one request in flight,
    next issued on reply), this driver follows an {!Arrival} schedule:
    requests enter at their {e intended} instants regardless of how the
    system is doing, multiplexing a large population of logical clients
    over a bounded number of concurrent sessions. Latency is measured
    from the intended arrival, so a saturated system shows its real
    queueing delay instead of silently throttling the offered load
    (coordinated omission).

    One driver instance lives on one client node of either backend (the
    simulator or the live runtime) behind the {!Ci_engine.Node_env}
    seam, exactly like the protocols it exercises. *)

type mix = { reads : float; cas : float; ranges : float }
(** Operation mix by fraction; the remainder are [Put]s. *)

type config = {
  targets : int array;  (** Replica node ids to address. *)
  primary : int;  (** Starting index into [targets]. *)
  failover : bool;  (** Rotate targets on timeout. *)
  timeout : Ci_engine.Sim_time.t;  (** Per-attempt retransmit timeout. *)
  arrival : Arrival.spec;  (** Offered-load schedule. *)
  key_dist : Key_dist.spec;  (** Key popularity. *)
  key_space : int;
  mix : mix;
  range_span : int;  (** Keys per [Range] ([lo, lo + range_span)). *)
  population : int;
      (** Logical clients multiplexed over the sessions; each request
          is attributed to one, for read-your-writes tracking. *)
  sessions : int;  (** Maximum concurrently in-flight requests. *)
  relaxed_reads : bool;
  stop_at : Ci_engine.Sim_time.t;
      (** No arrivals are scheduled at or past this instant. *)
}

val default_config : targets:int array -> config
(** 50k fixed ops/s, uniform keys, 50% reads, 100k logical clients over
    16 sessions. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on empty targets, non-positive timeout /
    keyspace / population / sessions, a mix that is negative or sums
    past 1, or invalid arrival / key-distribution parameters. *)

type t

val create :
  env:Ci_consensus.Wire.t Ci_engine.Node_env.t ->
  config:config ->
  stats:Load_stats.t ->
  t
(** [create ~env ~config ~stats] validates and attaches a driver to a
    node. Splits one child rng from the env at creation. *)

val start : t -> unit
(** Begins the arrival loop at the env's current instant. *)

val handle : t -> src:int -> Ci_consensus.Wire.t -> unit
(** Consumes [Reply] messages; everything else is ignored. *)

val node_id : t -> int
val completed : t -> int

val outstanding : t -> int
(** In-flight plus backlogged requests (drains to 0 after [stop_at]
    given enough quiet time). *)

val issued : t -> Ci_rsm.Command.t Ci_rsm.Vec.t
(** Every issued command, indexed by [req_id] — the consistency
    checker's proposed-commands input. *)

val acked_writes : t -> int Ci_rsm.Vec.t
(** [req_id] of every acknowledged write, oldest first. *)
