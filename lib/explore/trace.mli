(** Replayable exploration traces.

    A trace is the model checker's entire schedule for one execution: a
    world configuration (protocol, population, budgets, seed) plus the
    ordered list of scheduler choices taken from the initial state.
    Because the simulated world is deterministic given the
    configuration, a trace replays to a bit-identical execution — the
    counterexamples {!Search} shrinks are values of this type, and
    [consensus_sim explore --replay] consumes their serialized form.

    The serialization is deliberately line-oriented plain text
    ([deliver 0 1], [drop 0 2], [fire 2], [crash 1] under a one-line
    config header) so counterexamples can be read, edited and diffed by
    hand. *)

type protocol = Ci_consensus.Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos
(** The registry's protocol names, re-exported; the config header
    spells them with {!Ci_consensus.Protocol.to_string}. *)

type config = {
  protocol : protocol;
  n_replicas : int;  (** Replica population (nodes [0 .. n-1]). *)
  n_clients : int;
      (** Closed-loop clients (nodes [n_replicas ..]), one outstanding
          command each. *)
  n_commands : int;  (** Commands each client submits in total. *)
  seed : int;  (** Seeds every per-node RNG; part of replay identity. *)
  drop_budget : int;  (** Maximum [Drop] choices per execution. *)
  crash_budget : int;
      (** Maximum [Crash] choices per execution; crashes that would
          destroy the replica majority are never enabled. *)
  fire_budget : int;
      (** Maximum [Fire] (timer) choices {e per node} per execution —
          bounds the depth contributed by self-rearming timers
          (failure detectors, client retries). *)
  unsafe_stale_adoption : bool;
      (** Forwarded to {!Ci_consensus.Onepaxos.config}: re-seeds the
          historical stale-adoption split-brain for checker tests. *)
}

val default_config : protocol:protocol -> config
(** 3 replicas, 1 client, 2 commands, seed 1, no fault budgets,
    fire budget 4 — the smallest configuration worth exhausting. *)

val validate_config : config -> (unit, string) result
(** Rejects populations and budgets outside the model checker's
    intended small-config envelope (2–7 replicas, 1–4 clients, 1–8
    commands). *)

type choice =
  | Deliver of { src : int; dst : int }
      (** Deliver the head of the [src]->[dst] FIFO link. *)
  | Drop of { src : int; dst : int }
      (** Discard the head of the [src]->[dst] link (costs budget). *)
  | Fire of { node : int }
      (** Fire [node]'s earliest pending timer, advancing the global
          clock to its deadline (costs per-node budget). *)
  | Crash of { node : int }
      (** Fail-stop [node] forever: volatile and durable state frozen,
          timers and inbound in-flight messages lost, future messages
          to it discarded (costs budget). *)

val choice_to_line : choice -> string
val choice_of_line : string -> choice option
val pp_choice : Format.formatter -> choice -> unit

val config_to_line : config -> string
(** The one-line [config k=v ...] header form. *)

val config_of_line : string -> config option

val to_string : config:config -> choice list -> string
(** Full serialized trace: magic header, config line, one choice per
    line. *)

val of_string : string -> (config * choice list, string) result
(** Inverse of {!to_string}; blank lines and [#] comments between
    choices are ignored. *)

val hash : choice list -> int64
(** FNV-1a (64-bit) over the serialized choices — the replay-identity
    fingerprint two runs of the same trace must agree on. *)

val hash_hex : choice list -> string
(** [hash] as 16 lowercase hex digits. *)
