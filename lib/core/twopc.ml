module Node_env = Ci_engine.Node_env
module Command = Ci_rsm.Command

type config = { replicas : int array; coordinator : int; local_reads : bool }

let default_config ~replicas =
  if Array.length replicas < 1 then
    invalid_arg "Twopc.default_config: need at least one replica";
  { replicas; coordinator = replicas.(0); local_reads = false }

type round = {
  v : Wire.value;
  mutable acks : int;
  mutable commit_acks : int;
  mutable committed : bool;
}

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  self : int;
  core : Replica_core.t;
  others : int array; (* replicas minus self *)
  (* Coordinator. *)
  mutable next_inst : int;
  rounds : (int, round) Hashtbl.t;
  inflight : (int * int, int) Hashtbl.t;
  my_keys : (int * int, unit) Hashtbl.t;
  (* Participant. *)
  prepared : (int, Wire.value) Hashtbl.t;
  mutable n_local_reads : int;
}

let send t dst msg = t.env.Node_env.send ~dst msg
let broadcast_others t msg = Array.iter (fun dst -> send t dst msg) t.others

let reply_if_mine t (ex : Replica_core.executed) =
  let key = Wire.value_key ex.v in
  if Hashtbl.mem t.my_keys key then begin
    Hashtbl.remove t.my_keys key;
    send t ex.v.Wire.client
      (Wire.Reply { req_id = ex.v.Wire.req_id; result = ex.result })
  end

let learn_value t ~inst v =
  Hashtbl.remove t.inflight (Wire.value_key v);
  List.iter (reply_if_mine t) (Replica_core.learn t.core ~inst v)

(* Coordinator: once every replica acknowledged the prepare, the update
   can no longer be refused anywhere — commit it, answer the client, and
   let the commit acknowledgements merely retire the bookkeeping.
   Failure-free, commits complete in instance order, so execution (and
   the reply) happens inside [learn_value]; if a dropped prepare or ack
   left an earlier round open, this learn is non-contiguous and the
   reply waits until the gap fills — the client sees silence, never a
   premature answer. *)
let maybe_commit t ~inst round =
  if (not round.committed) && round.acks >= Array.length t.others then begin
    round.committed <- true;
    Hashtbl.remove t.inflight (Wire.value_key round.v);
    let executed = Replica_core.learn t.core ~inst round.v in
    broadcast_others t (Wire.Tp_commit { inst; v = round.v });
    List.iter (reply_if_mine t) executed;
    if Array.length t.others = 0 then Hashtbl.remove t.rounds inst
  end

let coordinate t v =
  let key = Wire.value_key v in
  Hashtbl.replace t.my_keys key ();
  match Replica_core.cached_result t.core ~client:(fst key) ~req_id:(snd key) with
  | Some result ->
    Hashtbl.remove t.my_keys key;
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    if not (Hashtbl.mem t.inflight key) then begin
      let inst = t.next_inst in
      t.next_inst <- t.next_inst + 1;
      Hashtbl.replace t.inflight key inst;
      let round = { v; acks = 0; commit_acks = 0; committed = false } in
      Hashtbl.replace t.rounds inst round;
      broadcast_others t (Wire.Tp_prepare { inst; v });
      maybe_commit t ~inst round
    end

(* A read may be answered locally unless this replica holds a
   prepared-but-uncommitted update to the same datum — the paper's "not
   received in the gap between two phases" (replicas lock their local
   copy of the datum, so the lock is per key). *)
let read_is_locked t cmd =
  (* [keys_of], not [key_of]: a [Range] is locked if {e any} key in its
     span has a prepared write pending, not just its low endpoint. *)
  match Command.keys_of cmd with
  | [] -> false
  | keys ->
    Hashtbl.fold
      (fun _ (v : Wire.value) locked ->
        locked
        ||
        match Command.key_of v.Wire.cmd with
        | Some k -> List.mem k keys
        | None -> false)
      t.prepared false

let handle_request t ~src ~req_id ~cmd =
  let v = { Wire.client = src; req_id; cmd } in
  if t.self = t.cfg.coordinator then coordinate t v
  else if t.cfg.local_reads && Command.is_read cmd && not (read_is_locked t cmd)
  then begin
    t.n_local_reads <- t.n_local_reads + 1;
    match Replica_core.local_read t.core cmd with
    | Some result -> send t src (Wire.Reply { req_id; result })
    | None -> ()
  end
  else
    (* 2PC has no leader change: hand the command to the coordinator. *)
    send t t.cfg.coordinator (Wire.Forward { v })

let handle t ~src msg =
  match msg with
  | Wire.Request { req_id; cmd; relaxed_read = _ } -> handle_request t ~src ~req_id ~cmd
  | Wire.Forward { v } ->
    if t.self = t.cfg.coordinator then coordinate t v
    else send t t.cfg.coordinator (Wire.Forward { v })
  | Wire.Tp_prepare { inst; v } ->
    Hashtbl.replace t.prepared inst v;
    send t src (Wire.Tp_ack { inst })
  | Wire.Tp_ack { inst } ->
    (match Hashtbl.find_opt t.rounds inst with
     | Some round ->
       round.acks <- round.acks + 1;
       maybe_commit t ~inst round
     | None -> ())
  | Wire.Tp_commit { inst; v } ->
    Hashtbl.remove t.prepared inst;
    learn_value t ~inst v;
    send t src (Wire.Tp_commit_ack { inst })
  | Wire.Tp_commit_ack { inst } ->
    (match Hashtbl.find_opt t.rounds inst with
     | Some round ->
       round.commit_acks <- round.commit_acks + 1;
       if round.commit_acks >= Array.length t.others then
         Hashtbl.remove t.rounds inst
     | None -> ())
  | Wire.Tp_rollback { inst } -> Hashtbl.remove t.prepared inst
  | Wire.Reply _ | Wire.Op_prepare_request _ | Wire.Op_prepare_response _
  | Wire.Op_abandon _ | Wire.Op_accept_request _ | Wire.Op_learn _
  | Wire.Pu_prepare _ | Wire.Pu_promise _ | Wire.Pu_reject _ | Wire.Pu_accept _
  | Wire.Pu_accepted _ | Wire.Pu_nack _ | Wire.Pu_learn _ | Wire.Pu_read _
  | Wire.Pu_read_reply _ | Wire.Ls_req _ | Wire.Ls_reply _ | Wire.Mp_prepare _
  | Wire.Mp_promise _ | Wire.Mp_reject _ | Wire.Mp_accept _ | Wire.Mp_learn _ | Wire.Op_accept_batch _ | Wire.Op_learn_batch _ | Wire.Mp_accept_batch _ | Wire.Mp_learn_batch _ | Wire.Mn_accept _ | Wire.Mn_learn _ | Wire.Cp_accept _ | Wire.Cp_accepted _ | Wire.Cp_learn _ | Wire.Cp_state _ | Wire.Tp_nack _ | Wire.Le_renew _ | Wire.Le_grant _ ->
    ()

let create ~env ~config =
  let self = env.Node_env.id in
  {
    env;
    cfg = config;
    self;
    core = Replica_core.create ~replica:self;
    others = Array.of_list (List.filter (fun id -> id <> self) (Array.to_list config.replicas));
    next_inst = 0;
    rounds = Hashtbl.create 256;
    inflight = Hashtbl.create 256;
    my_keys = Hashtbl.create 64;
    prepared = Hashtbl.create 64;
    n_local_reads = 0;
  }

let replica_core t = t.core
let is_coordinator t = t.self = t.cfg.coordinator
let prepared_count t = Hashtbl.length t.prepared
let local_read_count t = t.n_local_reads

(* ----- Shard participant (2PC over per-shard consensus) ----------------- *)

(* In the sharded deployment the coordinator is a router node and each
   participant is one shard's consensus group, entered through a
   replica node. The participant below does not keep any durable state
   of its own: a [Tp_prepare]/[Tp_commit] is turned into a [Prep]/[Fin]
   command submitted to the local consensus as a self-request, so the
   lock and the staged write live in the shard's replicated log. The
   participant merely correlates the consensus [Reply] back to the
   coordinator's message — losing it (crash) is harmless because the
   coordinator retries and [Prep]/[Fin] are idempotent in the store. *)
module Participant = struct
  type phase = P_prep | P_fin
  type tstate = {
    mutable coord : int;
    mutable prep : [ `Unseen | `Inflight of int | `Decided of bool ];
    mutable fin : [ `Unseen | `Inflight of int | `Done ];
  }

  type p = {
    env : Wire.t Node_env.t;
    mutable next_req : int;
    pending : (int, int * phase) Hashtbl.t; (* own req_id -> txn, phase *)
    txns : (int, tstate) Hashtbl.t;
    issued : Command.t Ci_rsm.Vec.t; (* by req_id *)
    mutable n_prepares : int;
    mutable n_finishes : int;
  }

  let create ~env =
    {
      env;
      next_req = 0;
      pending = Hashtbl.create 64;
      txns = Hashtbl.create 64;
      issued = Ci_rsm.Vec.create ();
      n_prepares = 0;
      n_finishes = 0;
    }

  let tstate t ~txn ~coord =
    match Hashtbl.find_opt t.txns txn with
    | Some ts ->
      ts.coord <- coord;
      ts
    | None ->
      let ts = { coord; prep = `Unseen; fin = `Unseen } in
      Hashtbl.add t.txns txn ts;
      ts

  let self_request t ~req_id cmd =
    t.env.Node_env.send ~dst:t.env.Node_env.id
      (Wire.Request { req_id; cmd; relaxed_read = false })

  let submit t ~txn ~phase cmd =
    let req_id = t.next_req in
    t.next_req <- t.next_req + 1;
    Ci_rsm.Vec.push t.issued cmd;
    Hashtbl.replace t.pending req_id (txn, phase);
    self_request t ~req_id cmd;
    req_id

  let reply t ~dst msg = t.env.Node_env.send ~dst msg

  (* [handle t ~src msg] is [true] when the participant consumed the
     message; the caller passes everything else to the consensus core. *)
  let handle t ~src msg =
    match msg with
    | Wire.Tp_prepare { inst = txn; v } ->
      let ts = tstate t ~txn ~coord:src in
      (match ts.prep with
      | `Unseen -> (
        match v.Wire.cmd with
        | Command.Prep _ as cmd ->
          t.n_prepares <- t.n_prepares + 1;
          ts.prep <- `Inflight (submit t ~txn ~phase:P_prep cmd)
        | _ -> () (* malformed prepare: refuse to propose it *))
      | `Inflight req_id ->
        (* Coordinator retry while consensus is still deciding: re-send
           the same self-request. Protocols dedup on (client, req_id),
           and the duplicate covers a submission that died with a
           crashed incarnation. *)
        self_request t ~req_id v.Wire.cmd
      | `Decided ok ->
        reply t ~dst:src
          (if ok then Wire.Tp_ack { inst = txn } else Wire.Tp_nack { inst = txn }));
      true
    | Wire.Tp_commit { inst = txn; v } ->
      let ts = tstate t ~txn ~coord:src in
      (match ts.fin with
      | `Unseen -> (
        match v.Wire.cmd with
        | Command.Fin _ as cmd ->
          t.n_finishes <- t.n_finishes + 1;
          ts.fin <- `Inflight (submit t ~txn ~phase:P_fin cmd)
        | _ -> ())
      | `Inflight req_id -> self_request t ~req_id v.Wire.cmd
      | `Done -> reply t ~dst:src (Wire.Tp_commit_ack { inst = txn }));
      true
    | Wire.Reply { req_id; result } -> (
      match Hashtbl.find_opt t.pending req_id with
      | None -> false (* not ours; an embedded client may want it *)
      | Some (txn, phase) ->
        Hashtbl.remove t.pending req_id;
        (match Hashtbl.find_opt t.txns txn with
        | None -> ()
        | Some ts -> (
          match phase with
          | P_prep ->
            let ok = match result with Command.Swapped b -> b | _ -> false in
            ts.prep <- `Decided ok;
            reply t ~dst:ts.coord
              (if ok then Wire.Tp_ack { inst = txn }
               else Wire.Tp_nack { inst = txn })
          | P_fin ->
            ts.fin <- `Done;
            reply t ~dst:ts.coord (Wire.Tp_commit_ack { inst = txn })));
        true)
    | _ -> false

  let issued t = t.issued
  let prepares t = t.n_prepares
  let finishes t = t.n_finishes
  let inflight t = Hashtbl.length t.pending
end

(* Structural fingerprint for the explorer's visited-state table;
   hashtables in sorted key order (see {!Onepaxos.digest}). *)
let digest t =
  let tbl_list tbl =
    Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] |> List.sort compare
  in
  let rounds =
    Hashtbl.fold
      (fun i r l -> (i, r.v, r.acks, r.commit_acks, r.committed) :: l)
      t.rounds []
    |> List.sort compare
  in
  Hashtbl.hash_param 1000 1000
    ( Replica_core.digest t.core, t.next_inst, rounds, tbl_list t.inflight,
      tbl_list t.my_keys, tbl_list t.prepared )
