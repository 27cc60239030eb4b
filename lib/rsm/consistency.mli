(** End-of-run consistency checker.

    Encodes the paper's two safety properties for consensus
    (Section 2.3) plus state-machine-level checks, evaluated over the
    logs every replica accumulated during a run:

    - {b consistency} (agreement): no two learners learn different
      values for the same instance;
    - {b non-triviality}: only proposed values are learned;
    - {b state convergence}: replicas that executed the same prefix have
      identical store fingerprints;
    - {b session integrity}: every acknowledged client request was
      learned at least once.

    The checker reads each replica's decided log in place: it copies no
    decisions, and its only scratch state marks which requests of the
    acknowledging clients some log holds. *)

type 'v replica_view = {
  replica : int;  (** Replica identifier (for reporting). *)
  log : 'v Op_log.t;  (** The replica's decided log, shared, not copied. *)
  fingerprint : int;  (** Store fingerprint after execution. *)
  executed_prefix : int;  (** First unexecuted instance. *)
}

type violation =
  | Disagreement of { inst : int; a : int; b : int }
      (** Replicas [a] and [b] learned different values at [inst]. *)
  | Unproposed of { replica : int; inst : int }
      (** A learned value was never proposed. *)
  | Fingerprint_mismatch of { a : int; b : int; prefix : int }
      (** Same executed prefix, different state. *)
  | Lost_ack of { client : int; req_id : int }
      (** A client got a reply but no replica learned the request. *)

type report = {
  violations : violation list;
  checked_instances : int;  (** Distinct instances examined. *)
  checked_replicas : int;
}

val ok : report -> bool
(** [ok r] is whether no violation was found. *)

val check :
  equal:('v -> 'v -> bool) ->
  proposed:('v -> bool) ->
  acked:(int * int Vec.t) list ->
  key_of:('v -> int * int) ->
  'v replica_view list ->
  report
(** [check ~equal ~proposed ~acked ~key_of views] evaluates all
    properties. [proposed v] says whether [v] was ever proposed by a
    client; [acked] pairs a client with the [req_id]s of its requests
    that received replies; [key_of v] extracts the [(client, req_id)]
    identity of a value. Violations are listed by property in the order
    above; within one property, by replica in [views] order, then by
    instance (acknowledgements: in [acked] order). *)

val pp_violation : Format.formatter -> violation -> unit
(** Prints one violation. *)

val pp : Format.formatter -> report -> unit
(** Prints a summary, listing violations if any. *)
