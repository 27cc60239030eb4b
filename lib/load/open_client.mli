(** The workload driver: every client node of either backend (the
    simulator or the live runtime) runs one, behind the
    {!Ci_engine.Node_env} seam, exactly like the protocols it exercises.

    It runs one of two loops over one request path — transmit and
    retransmit timer, target rotation, reply matching, the
    issued/acked-writes bookkeeping and the retry count are shared:

    - a {b closed loop}, the paper's load generator (§7.1): one request
      in flight; the next is issued when the reply arrives, or [think]
      after it (Figure 9's joint experiment thinks 2 ms). Latency runs
      from the request's first transmission, so retries during a leader
      change surface as latency, not as lost work;
    - an {b open loop}: requests enter on an {!Arrival} schedule at
      their {e intended} instants regardless of how the system is doing,
      multiplexing a large population of logical clients over a bounded
      number of sessions. Latency runs from the intended arrival, so a
      saturated system shows its real queueing delay instead of silently
      throttling the offered load (coordinated omission).

    On timeout a request is retransmitted. With [failover] the driver
    first moves on to the next target — once per outage: only when the
    timed-out attempt went to the target that is still current, so a
    burst of timeouts from one dead replica rotates once instead of
    scattering the retries back onto it. Without [failover] (2PC has no
    recovery to trigger) retries go to the same node. *)

type mix = { reads : float; cas : float; ranges : float }
(** Operation mix by fraction; the remainder are [Put]s. *)

type closed_loop = {
  think : Ci_engine.Sim_time.t;  (** Pause between a reply and the next request. *)
  read_ratio : float;  (** Fraction of [Get] commands. *)
  cross_shard_ratio : float;
      (** Fraction of [Mput] commands whose two keys live on different
          shards (0 disables and leaves the rng stream untouched). *)
  key_space : int;  (** Keys are drawn from [0 .. key_space-1]. *)
}

type open_loop = {
  arrival : Arrival.spec;  (** Offered-load schedule. *)
  key_dist : Key_dist.spec;  (** Key popularity. *)
  key_space : int;
  mix : mix;
  range_span : int;  (** Keys per [Range] ([lo, lo + range_span)). *)
  population : int;
      (** Logical clients multiplexed over the sessions; each request
          is attributed to one, for read-your-writes tracking. *)
  sessions : int;  (** Maximum concurrently in-flight requests. *)
}

type loop = Closed of closed_loop | Open of open_loop

type config = {
  targets : int array;  (** Node ids to address, in fail-over order. *)
  primary : int;  (** Starting index into [targets]. *)
  failover : bool;  (** Rotate targets on timeout. *)
  timeout : Ci_engine.Sim_time.t;  (** Per-attempt retransmit timeout. *)
  relaxed_reads : bool;  (** Mark reads as allowing stale local answers. *)
  read_own_node : bool;
      (** Send reads to the driver's own node (joint deployments where
          the local replica may answer them). *)
  groups : int;
      (** Shard count the closed loop's cross-shard partner key is
          chosen against (1 outside sharded deployments). *)
  stop_at : Ci_engine.Sim_time.t;
      (** No request is issued at or past this instant: the open loop's
          window end; [max_int] leaves a closed loop unbounded. *)
  loop : loop;
}

val default_config : targets:int array -> config
(** An open loop at 50k fixed ops/s, uniform keys over 64, 50% reads,
    100k logical clients over 16 sessions, 2 ms timeout with fail-over,
    stopping at 50 ms. *)

val validate_config : who:string -> config -> unit
(** Raises [Invalid_argument], with a message starting with [who], on
    empty targets, a non-positive timeout, keyspace or group count, and
    on the loop's own inputs: a negative think time or a ratio outside
    [\[0, 1\]]; a non-positive population or session count, a mix that
    is negative or sums past 1, or invalid arrival / key-distribution
    parameters. *)

(** Where completions are recorded. *)
type sink =
  | Samples of Run_stats.t  (** Every completion, in order. *)
  | Histograms of Load_stats.t
      (** Windowed histograms and the retry and rejected counts, plus
          the open loop's issued, backlog and stale-read counts. *)

type t

val create :
  env:Ci_consensus.Wire.t Ci_engine.Node_env.t -> config:config -> sink:sink -> t
(** [create ~env ~config ~sink] validates [config] and attaches a driver
    to the node behind [env]. Splits one child rng from the env. The
    caller routes [Reply] messages to {!handle}. *)

val start : t -> unit
(** Issues the first request (closed loop) or begins the arrival
    schedule (open loop) at the env's current instant. *)

val handle : t -> src:int -> Ci_consensus.Wire.t -> unit
(** Consumes [Reply] messages; everything else is ignored. *)

val node_id : t -> int
(** The node this driver runs on — the [client] field of every value
    it proposes. *)

val completed : t -> int
(** Replies received. *)

val retries : t -> int
(** Timeouts fired. *)

val outstanding : t -> int
(** In-flight plus backlogged requests (an open loop drains to 0 after
    [stop_at] given enough quiet time). *)

val issued : t -> Ci_rsm.Command.t Ci_rsm.Vec.t
(** Every issued command, indexed by [req_id] — the consistency
    checker's proposed-commands input. *)

val acked_writes : t -> int Ci_rsm.Vec.t
(** [req_id] of every acknowledged write, oldest first — the
    session-integrity check's input (reads are excluded: they may
    legitimately be served without being learned). *)
