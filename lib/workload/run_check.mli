(** The end-of-run safety check, shared by {!Runner} and the live
    runtime.

    Reads the load sources' histories and the replicas' decided logs in
    place: it builds no table of proposed commands and copies no log. *)

type source = {
  node : int;  (** Node id: the [client] field of every value it issued. *)
  issued : Ci_rsm.Command.t Ci_rsm.Vec.t;  (** Commands by [req_id]. *)
  acked : int Ci_rsm.Vec.t;  (** [req_id]s of acknowledged writes. *)
}
(** One proposer of client values: a workload driver or a 2PC
    participant (which acks nothing). *)

val of_driver : Ci_load.Open_client.t -> source
val of_participant : node:int -> Ci_consensus.Twopc.Participant.p -> source

val proposed : source list -> Ci_consensus.Wire.value -> bool
(** [proposed sources v] is whether some source issued [v]'s command
    under [v]'s [(client, req_id)]. Mencius skip placeholders count as
    proposed: the protocol, not a client, proposes them. *)

val check :
  sources:source list ->
  views:Ci_consensus.Wire.value Ci_rsm.Consistency.replica_view array ->
  groups:int ->
  group_of_replica:(int -> int) ->
  txns:Ci_rsm.Atomicity.txn list ->
  Ci_rsm.Consistency.report * Ci_rsm.Atomicity.report option
(** [check ~sources ~views ~groups ~group_of_replica ~txns] runs
    {!Ci_rsm.Consistency.check} over the replicas' views ([views.(i)]
    belongs to replica [i]). With one group that is the whole check.
    With [groups > 1] each group is checked on its own: an acked
    single-shard write must be learned by its owning group, while an
    acked cross-shard write commits under its router's identity and goes
    to {!Ci_rsm.Atomicity.check} with the routers' [txns]. *)
