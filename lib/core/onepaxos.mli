(** 1Paxos: non-blocking agreement with a single active acceptor.

    The paper's contribution (Sections 4–5, Appendix A). Each replica
    plays proposer and learner; exactly {e one} replica at a time plays
    the active acceptor, the rest being cold backups. The failure-free
    data path per client command is therefore:

    {v client --request--> leader --accept--> acceptor --learn--> all
       learners, leader --reply--> client v}

    i.e. five boundary-crossing messages on three replicas, versus ten
    for collapsed Multi-Paxos or 2PC — the factor-of-two reduction of
    Figure 3.

    Availability of the acceptor role is restored through
    {!Paxos_utility}: the leader replaces a suspected acceptor
    ([AcceptorChange], carrying its uncommitted proposals), any proposer
    replaces a suspected leader ([LeaderChange]), and the freshness
    handshake ([must_be_fresh] / [IamFresh]) prevents a silently reset
    acceptor from being adopted with lost state. With both the leader
    and the acceptor slow at the same time the protocol stalls — but
    never loses consistency — and resumes when either recovers. *)

type config = {
  replicas : int array;  (** Machine node ids of all replicas. *)
  initial_leader : int;  (** Seeded leader (a member of [replicas]). *)
  initial_acceptor : int;
      (** Seeded active acceptor; place it on a different node than the
          leader (Section 5.4). *)
  acceptor_timeout : Ci_engine.Sim_time.t;
      (** Age of the oldest unanswered accept before the leader suspects
          the acceptor. *)
  prepare_timeout : Ci_engine.Sim_time.t;
      (** Wait for a [prepare_response] before suspecting the acceptor
          (covers the freshness-mismatch silence). *)
  check_period : Ci_engine.Sim_time.t;  (** Failure-detector scan period. *)
  pu_timeout : Ci_engine.Sim_time.t;  (** PaxosUtility retry timeout. *)
  relaxed_reads : bool;
      (** Serve [Get] commands marked [relaxed_read] from the local
          store without consensus (§7.5's relaxed consistency). *)
  max_batch : int;
      (** Commands per batched proposal ([Op_accept_batch]); [1] (the
          default) keeps the paper's one-command-per-message protocol
          byte-identical. *)
  batch_delay : Ci_engine.Sim_time.t;
      (** How long the leader holds a partial batch hoping for company;
          [0] flushes immediately. Only meaningful with the batching
          layer active. *)
  window : int;
      (** Pipeline depth: maximum batches concurrently in flight.
          [0] (the default) leaves the in-flight count unbounded, as in
          the paper's protocol. Setting it also activates the batching
          layer even at [max_batch = 1]. *)
  lease : Ci_engine.Sim_time.t;
      (** Leader-lease duration; [0] (the default) disables leases and
          leaves the protocol byte-identical. When on, the leader's
          failure-detector tick broadcasts [Le_renew] every [lease / 3];
          a granting replica promises not to help {e commit} a
          [Leader_change] naming a different owner for [lease] on its
          own clock (it silently vetoes such [Pu_accept]s), and the
          leader serves linearizable [Get]/[Range] locally while a
          majority of echoed grants are younger than
          [sent + lease - lease_skew] on {e its} clock. Failover while a
          lease is held costs up to one extra [lease] of unavailability
          — the classic trade. *)
  lease_skew : Ci_engine.Sim_time.t;
      (** Assumed bound on clock-{e rate} divergence over one lease
          window (clocks are never compared across nodes). The leader
          retires each grant [lease_skew] early, so a follower whose
          clock runs fast by less than this still honors its promise
          beyond the leader's belief. Must be [< lease]. *)
  unsafe_stale_adoption : bool;
      (** {b Test-only.} Re-introduces a historical split-brain: a
          deposed candidate's stale [Op_prepare_request] can still
          promote it to leader after the configuration log has moved
          leadership elsewhere (the believed-leader gate on adoption,
          the retry abandonment on prepare timeout, the takeover
          cancellation on a rival [Leader_change], and the acceptor's
          check of an accept against its decided log are all
          disabled).
          Exists so the model checker ({!Ci_explore}) can demonstrate
          that it finds and shrinks this bug class. Never enable
          outside tests. *)
}

val default_config : replicas:int array -> config
(** [default_config ~replicas] uses [replicas.(0)] as leader,
    [replicas.(1)] as acceptor, and timeouts suited to the multicore
    parameter preset (sub-millisecond detection). Requires at least two
    replicas. *)

type t
(** One 1Paxos replica. *)

val create : env:Wire.t Ci_engine.Node_env.t -> config:config -> t
(** [create ~env ~config] initializes the replica on the node behind
    [env] (simulated or live). All replicas must share an identical
    [config]. The caller routes messages to {!handle}. Raises
    [Invalid_argument] if [config.initial_leader] or
    [config.initial_acceptor] is not a member of [config.replicas], if
    fewer than two replicas are given, or if [max_batch < 1] /
    [window < 0]. *)

val start : t -> unit
(** [start t] bootstraps: the initial leader adopts the initial acceptor
    (first [prepare_request]) and the failure-detector timer begins on
    every replica. Call once per replica at simulation start. *)

val handle : t -> src:int -> Wire.t -> unit
(** [handle t ~src msg] processes any client or protocol message. *)

val is_leader : t -> bool
(** [is_leader t] is whether this replica currently holds an adopted
    leadership (it received a [prepare_response] it has not lost). *)

val believed_leader : t -> int option
(** [believed_leader t] is the global leader per this replica's applied
    configuration log. *)

val active_acceptor : t -> int option
(** [active_acceptor t] is the active acceptor per the applied
    configuration log. *)

val replica_core : t -> Replica_core.t
(** [replica_core t] exposes the learner/executor state (for metrics and
    consistency checking). *)

val leader_changes : t -> int
(** [leader_changes t] counts applied [LeaderChange] entries. *)

val acceptor_changes : t -> int
(** [acceptor_changes t] counts applied [AcceptorChange] entries. *)

val pending_count : t -> int
(** [pending_count t] is the number of client commands queued but not
    yet proposed. *)

val lease_reads : t -> int
(** [lease_reads t] counts reads this replica answered locally under a
    valid leader lease (skipping the accept round entirely). *)

val holds_lease : t -> bool
(** [holds_lease t] is whether this replica is leader {e and} a majority
    of grants are unexpired right now, i.e. a local read issued at this
    instant would be served without consensus. *)

type retained = {
  proposals : int;
      (** Undecided proposals the proposer keeps for re-proposal. An
          entry goes when its instance is decided. *)
  acceptances : int;
      (** Acceptances the acceptor keeps at or above its decided
          prefix. Below the prefix its decided log answers for them. *)
}

val retained : t -> retained
(** [retained t] counts the protocol-table entries this replica holds
    beyond its decided log: bounded by the instances in flight, not by
    the history. *)

val inject_acceptor_reset : t -> unit
(** [inject_acceptor_reset t] wipes this replica's acceptor-role state
    (promise, accepted proposals) and marks it fresh — the "silent
    reboot" fault the freshness check defends against. Test hook. *)

(** {1 Crash-recovery} *)

type stable
(** The durable registers a real deployment fsyncs before answering:
    the learner's decided log, the acceptor role's highest promise and
    accepted-proposal table, the freshness flag, the proposal-round
    counter, and the embedded {!Paxos_utility} registers. Leadership
    flags, in-flight proposals, tallies and timers are volatile. *)

val stable : t -> stable
(** [stable t] snapshots the durable registers. *)

val recover :
  env:Wire.t Ci_engine.Node_env.t -> config:config -> stable:stable -> t
(** [recover ~env ~config ~stable] rebuilds a replica from its durable
    registers after a crash, on a fresh node environment. The recovered
    replica rejoins as a {e follower} regardless of its pre-crash roles:
    it resyncs the configuration log from a majority
    ({!Paxos_utility.sync}), catches its decided log up from peers
    (learner sync), and restarts its failure detector. If it was the
    leader or active acceptor before the crash, the survivors' takeover
    machinery ([LeaderChange] / [AcceptorChange]) — not the restart —
    restores those roles elsewhere. *)

val digest : t -> int
(** [digest t] is a structural fingerprint of the replica's full
    protocol state (roles, proposer, batching, acceptor, learner and
    lease registers, plus the embedded {!Replica_core} and
    {!Paxos_utility} state) for the explorer's visited-state table.
    Absolute timestamps are hashed relative to the current clock;
    hashtables are hashed in sorted key order. Equal digests do not
    prove equal states (it is a hash), but equal states always produce
    equal digests. *)
