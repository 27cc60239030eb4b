(** 2PC in its Barrelfish agreement form (Section 2.2).

    A fixed coordinator drives every update through two phases: it
    broadcasts [Tp_prepare] and waits for an acknowledgement from {e
    all} replicas, then broadcasts [Tp_commit] and again waits for all
    commit acknowledgements before answering the client. The protocol
    is {b blocking}: a single slow replica (including the coordinator
    itself) stalls every update — the behaviour Section 2.2 and
    Figure 11's contrast demonstrate. There is no leader change.

    When [local_reads] is on (the 2PC-Joint configuration of §7.5), a
    replica answers [Get] commands from its local store, provided it
    holds no prepared-but-uncommitted instance — i.e. the read does not
    fall "in the gap between two phases" — otherwise the read is
    forwarded to the coordinator like a write. *)

type config = {
  replicas : int array;  (** Machine node ids of all replicas. *)
  coordinator : int;  (** The fixed coordinator (member of [replicas]). *)
  local_reads : bool;  (** Serve quiescent reads locally (2PC-Joint). *)
}

val default_config : replicas:int array -> config
(** [default_config ~replicas] coordinates from [replicas.(0)], without
    local reads. *)

type t
(** One 2PC replica. *)

val create : env:Wire.t Ci_engine.Node_env.t -> config:config -> t
(** [create ~env ~config] initializes the replica. *)

val handle : t -> src:int -> Wire.t -> unit
(** [handle t ~src msg] processes a client or protocol message. *)

val replica_core : t -> Replica_core.t
(** [replica_core t] exposes learner/executor state. *)

val is_coordinator : t -> bool
(** [is_coordinator t] is whether this replica coordinates. *)

val prepared_count : t -> int
(** [prepared_count t] is the number of locked (prepared, uncommitted)
    instances this participant holds. *)

val local_read_count : t -> int
(** [local_read_count t] counts reads served without the coordinator. *)

(** Participant side of 2PC {e over} per-shard consensus (the sharded
    deployment's cross-shard path). A router node coordinates; the
    participant runs on a shard replica and drives every
    [Tp_prepare]/[Tp_commit] through the shard's own consensus log as a
    {!Ci_rsm.Command.Prep}/{!Ci_rsm.Command.Fin} self-request, so locks
    and staged writes are replicated state. Idempotent under
    coordinator retries; holds no durable state of its own. *)
module Participant : sig
  type p
  (** One shard-side participant. *)

  val create : env:Wire.t Ci_engine.Node_env.t -> p
  (** [create ~env] prepares a participant on the node behind [env]
      (normally a shard's initial leader: the node routers address). *)

  val handle : p -> src:int -> Wire.t -> bool
  (** [handle t ~src msg] is [true] when the participant consumed the
      message ([Tp_prepare], [Tp_commit], or a consensus [Reply] to one
      of its own submissions); the caller hands everything else to the
      consensus core sharing the node. *)

  val issued : p -> Ci_rsm.Command.t Ci_rsm.Vec.t
  (** [issued t] is every command this participant submitted to its
      shard's consensus, indexed by [req_id] — ground truth for the
      non-triviality check, alongside the clients' logs. *)

  val prepares : p -> int
  (** Distinct transactions prepared. *)

  val finishes : p -> int
  (** Distinct transactions finished (commit or abort). *)

  val inflight : p -> int
  (** Submissions whose consensus reply is still pending. *)
end

val digest : t -> int
(** [digest t] is a structural fingerprint of the replica's protocol
    state for the explorer's visited-state table; hashtables are hashed
    in sorted key order and timestamps relative to the current clock.
    Equal states always produce equal digests. *)
