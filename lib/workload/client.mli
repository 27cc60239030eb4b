(** Closed-loop client.

    The paper's load generator: each client sends one request, waits for
    the commit acknowledgement, optionally thinks, and sends the next
    (§7.1; Figure 9's joint experiment adds a 2 ms think time). On
    timeout the client retries the same request — against the next
    replica when [failover] is on (which is how slow leaders are
    detected and takeovers triggered), or against the same node when off
    (2PC has no recovery to trigger).

    Latency is measured from the {e first} transmission of a request to
    its reply, so retries during a leader change surface as latency, not
    as lost work. *)

type policy = {
  targets : int array;
      (** Replica node ids in failover order; requests start at
          [targets.(primary)]. *)
  primary : int;  (** Index into [targets]. *)
  failover : bool;  (** Advance to the next target on timeout. *)
  timeout : int;  (** Retry timeout (ns). *)
  think : int;  (** Pause between a reply and the next request (ns). *)
  read_ratio : float;  (** Fraction of [Get] commands. *)
  cross_shard_ratio : float;
      (** Fraction of [Mput] commands whose two keys live on different
          shards (sharded deployments; 0 disables and leaves the rng
          stream untouched). *)
  groups : int;
      (** Shard count the partner-key scan routes against (1 outside
          sharded deployments). *)
  relaxed_reads : bool;  (** Mark reads as allowing stale local answers. *)
  read_own_node : bool;
      (** Send reads to this client's own node (joint deployments where
          the local replica may answer them). *)
  key_space : int;  (** Keys are drawn from [0 .. key_space-1]. *)
  max_requests : int option;  (** Stop after this many replies. *)
}

val default_policy : targets:int array -> policy
(** Write-only closed loop without think time, 2 ms timeout, with
    fail-over, 64-key space, unbounded. *)

type t
(** One client. *)

val create :
  env:Ci_consensus.Wire.t Ci_engine.Node_env.t ->
  policy:policy ->
  stats:Run_stats.t ->
  t
(** [create ~env ~policy ~stats] prepares a client on the node behind
    [env] (simulated or live). The caller routes [Reply] messages to
    {!handle}. *)

val start : t -> unit
(** [start t] issues the first request. *)

val handle : t -> src:int -> Ci_consensus.Wire.t -> unit
(** [handle t ~src msg] processes a reply (other messages are
    ignored). *)

val node_id : t -> int
(** [node_id t] is the node this client runs on — the [client]
    field of every value it proposes. *)

val completed : t -> int
(** [completed t] is the number of acknowledged requests. *)

val retries : t -> int
(** [retries t] is how many timeouts fired. *)

val issued : t -> Ci_rsm.Command.t Ci_rsm.Vec.t
(** [issued t] is every command this client proposed, indexed by
    [req_id] — the ground truth for the non-triviality check. *)

val acked_writes : t -> int Ci_rsm.Vec.t
(** [acked_writes t] is the [req_id]s of acknowledged {e write}
    requests, oldest first — the ground truth for the session-integrity
    check (reads are excluded: they may legitimately be served without
    being learned). *)
