(** Wire format: every message any protocol in this repository sends.

    All replicas, clients and protocols in a simulation share one
    machine and hence one message type; this module is the union of the
    protocol vocabularies. Constructor prefixes identify the protocol:
    [Op_] 1Paxos, [Pu_] PaxosUtility (the embedded configuration
    consensus of Section 5.2/5.3), [Mp_] Multi-/Basic-Paxos, [Tp_] 2PC,
    [Ls_] learner catch-up, and unprefixed constructors for the
    client–replica dialogue. *)

type value = { client : int; req_id : int; cmd : Ci_rsm.Command.t }
(** A value consensus decides on: a client command tagged with its
    origin, so any replica can route the reply and the state machine can
    deduplicate retries. *)

val value_equal : value -> value -> bool
(** Structural equality on values. *)

val value_key : value -> int * int
(** [value_key v] is the [(client, req_id)] identity of [v]. *)

val pp_value : Format.formatter -> value -> unit
(** Prints a value as [c<client>#<req>:<cmd>]. *)

type config_entry =
  | Leader_change of { leader : int; acceptor : int }
      (** Node [leader] announces itself as global leader, assuming
          [acceptor] as the active acceptor (Section 5.3). *)
  | Acceptor_change of { acceptor : int; carried : (int * value) list }
      (** The global leader replaces the active acceptor with
          [acceptor], carrying its uncommitted proposed values so the
          next adoption re-proposes them (Section 5.2). *)
  | Epoch_change of { actives : int list }
      (** Cheap Paxos: install a new active acceptor set (head =
          leader). The sequence slot this entry is chosen at is the
          epoch number, so epoch succession is linearized by the
          configuration consensus itself. *)

val config_entry_equal : config_entry -> config_entry -> bool
(** Structural equality on configuration entries. *)

val pp_config_entry : Format.formatter -> config_entry -> unit
(** Prints an entry. *)

type t =
  (* Client dialogue. *)
  | Request of { req_id : int; cmd : Ci_rsm.Command.t; relaxed_read : bool }
      (** A client command. [relaxed_read] permits a stale local answer
          for reads (the paper's relaxed consistency mode, §7.5). *)
  | Reply of { req_id : int; result : Ci_rsm.Command.result }
      (** The commit acknowledgement a client waits for. *)
  | Forward of { v : value }
      (** A replica hands a pending request to the (new) leader. *)
  (* 1Paxos data path (Appendix A). *)
  | Op_prepare_request of { pn : Pn.t; must_be_fresh : bool; low : int }
      (** [low] is the new leader's first undecided instance: the
          acceptor answers for instances at or above it only. *)
  | Op_prepare_response of { pn : Pn.t; accepted : (int * (Pn.t * value)) list }
  | Op_abandon of { hpn : Pn.t }
  | Op_accept_request of { inst : int; pn : Pn.t; v : value }
  | Op_learn of { inst : int; v : value }
  | Op_accept_batch of { base : int; pn : Pn.t; vs : value array }
      (** Batched accept request: one consensus round covering
          instances [base .. base + |vs| - 1] in one boundary-crossing
          message (the batching layer; never sent at [max_batch = 1]). *)
  | Op_learn_batch of { base : int; vs : value array }
      (** Batched decision notification for instances
          [base .. base + |vs| - 1]. *)
  (* PaxosUtility: Basic-Paxos over the configuration-entry sequence. *)
  | Pu_prepare of { cseq : int; pn : Pn.t }
  | Pu_promise of {
      cseq : int;
      pn : Pn.t;
      accepted : (Pn.t * config_entry) option;
      chosen_suffix : (int * config_entry) list;
    }
  | Pu_reject of { cseq : int; pn : Pn.t; chosen_suffix : (int * config_entry) list }
  | Pu_accept of { cseq : int; pn : Pn.t; entry : config_entry }
  | Pu_accepted of { cseq : int; pn : Pn.t }
  | Pu_nack of { cseq : int; pn : Pn.t }
  | Pu_learn of { cseq : int; entry : config_entry }
  | Pu_read of { token : int; from_ : int }
  | Pu_read_reply of { token : int; chosen_suffix : (int * config_entry) list }
  (* Learner catch-up used by a fresh 1Paxos leader. *)
  | Ls_req of { token : int; from_ : int }
  | Ls_reply of { token : int; decisions : (int * value) list }
  (* Multi-Paxos data path. *)
  | Mp_prepare of { pn : Pn.t; low : int }
  | Mp_promise of { pn : Pn.t; accepted : (int * (Pn.t * value)) list }
  | Mp_reject of { pn : Pn.t }
  | Mp_accept of { inst : int; pn : Pn.t; v : value }
  | Mp_learn of { inst : int; pn : Pn.t; v : value }
  | Mp_accept_batch of { base : int; pn : Pn.t; vs : value array }
      (** Batched accepts for instances [base .. base + |vs| - 1] under
          one proposal number (the batching layer; never sent at
          [max_batch = 1]). *)
  | Mp_learn_batch of { base : int; pn : Pn.t; vs : value array }
      (** Batched acceptor acknowledgement mirroring
          {!Mp_accept_batch}. *)
  (* Mencius: multi-leader, round-robin instance ownership (§8). A
     [None] value is a skip — the owner ceding its slot so the log can
     advance past it. *)
  | Mn_accept of { inst : int; v : value option }
  | Mn_learn of { inst : int; v : value option }
  (* Cheap Paxos (§8): leader + reduced active acceptor set; auxiliaries
     join via a state handoff from a surviving active acceptor. *)
  | Cp_accept of { epoch : int; inst : int; v : value }
  | Cp_accepted of { epoch : int; inst : int; v : value }
  | Cp_learn of { epoch : int; inst : int; v : value }
  | Cp_state of { epoch : int; accepted : (int * value) list }
      (** Closure handoff: an active of the epoch being superseded sends
          its acceptor memory to the new epoch's leader {e when it
          applies} the [Epoch_change] — after which it acknowledges no
          further old-epoch accepts. Any commit racing the change needed
          this acceptor's earlier ack, so the handoff provably covers
          it. *)
  (* 2PC (Barrelfish-style agreement). *)
  | Tp_prepare of { inst : int; v : value }
  | Tp_ack of { inst : int }
  | Tp_commit of { inst : int; v : value }
  | Tp_commit_ack of { inst : int }
  | Tp_rollback of { inst : int }
  | Tp_nack of { inst : int }
      (** Participant refusal: the shard could not acquire the 2PC lock
          ([Prep] returned [Swapped false]); the coordinator aborts. *)
  (* Leader leases: grant/renew piggybacked on the protocols' existing
     periodic traffic so a leader can serve linearizable reads locally
     while its lease is provably unexpired. Timestamps never cross
     clocks: the leader stamps [sent] with its own clock and the grant
     echoes it back, so the leader reasons about expiry entirely in its
     own time base, and the grantee starts its own lease window from
     its own receipt time. *)
  | Le_renew of { pn : Pn.t; sent : int }
      (** Leader -> replicas: extend the lease for leadership [pn].
          [sent] is the leader's clock at transmission. *)
  | Le_grant of { pn : Pn.t; sent : int }
      (** Replica -> leader: granted. The grantee promises not to help
          elect a different leader for [lease] (its own clock) after
          receipt; the leader counts the lease as held only until
          [sent + lease - skew] (its own clock), so the follower's
          promise always outlives the leader's belief by at least the
          assumed clock-skew bound. *)

val pp : Format.formatter -> t -> unit
(** Prints a compact rendering of any message (for traces and test
    failures). *)

val kind : t -> string
(** [kind m] is the constructor name, for counting message types. *)
