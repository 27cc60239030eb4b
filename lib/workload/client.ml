module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command

type policy = {
  targets : int array;
  primary : int;
  failover : bool;
  timeout : int;
  think : int;
  read_ratio : float;
  cross_shard_ratio : float;
  groups : int;
  relaxed_reads : bool;
  read_own_node : bool;
  key_space : int;
  max_requests : int option;
}

let default_policy ~targets =
  {
    targets;
    primary = 0;
    failover = true;
    timeout = Ci_engine.Sim_time.ms 2;
    think = 0;
    read_ratio = 0.;
    cross_shard_ratio = 0.;
    groups = 1;
    relaxed_reads = false;
    read_own_node = false;
    key_space = 64;
    max_requests = None;
  }

type t = {
  env : Wire.t Node_env.t;
  policy : policy;
  stats : Run_stats.t;
  rng : Rng.t;
  mutable target_idx : int;
  mutable next_req : int;
  mutable current : (int * Command.t * int) option; (* req_id, cmd, first sent *)
  mutable attempt : int; (* distinguishes timeout timers *)
  mutable retry_timer : Node_env.timer option;
  mutable done_count : int;
  mutable retry_count : int;
  log : Command.t Ci_rsm.Vec.t; (* by req_id *)
  acked : int Ci_rsm.Vec.t; (* req_ids of acknowledged writes *)
}

let now t = t.env.Node_env.now ()

(* A partner key for a cross-shard write: deterministic scan from the
   first key, so no extra rng draws perturb the stream; falls back to
   the next key when the keyspace cannot reach another group (groups =
   1, or fewer keys than groups need). *)
let partner_key t ~k1 =
  let ks = t.policy.key_space and groups = t.policy.groups in
  let g1 = Ci_consensus.Shard.group_of_key ~groups k1 in
  let rec scan k n =
    if n = 0 then (k1 + 1) mod ks
    else if k <> k1 && Ci_consensus.Shard.group_of_key ~groups k <> g1 then k
    else scan ((k + 1) mod ks) (n - 1)
  in
  scan ((k1 + 1) mod ks) ks

(* The cross-shard draw is guarded so a zero ratio consumes nothing
   from the stream: default workloads stay byte-identical. *)
let pick_command t =
  if
    t.policy.cross_shard_ratio > 0.
    && Rng.chance t.rng t.policy.cross_shard_ratio
  then begin
    let k1 = Rng.int t.rng t.policy.key_space in
    let d1 = Rng.int t.rng 1_000_000 and d2 = Rng.int t.rng 1_000_000 in
    Command.Mput { k1; d1; k2 = partner_key t ~k1; d2 }
  end
  else if Rng.chance t.rng t.policy.read_ratio then
    Command.Get { key = Rng.int t.rng t.policy.key_space }
  else
    Command.Put
      { key = Rng.int t.rng t.policy.key_space; data = Rng.int t.rng 1_000_000 }

let target_for t cmd =
  if t.policy.read_own_node && Command.is_read cmd then t.env.Node_env.id
  else t.policy.targets.(t.target_idx)

(* The timeout timer is cancelled on reply (each reply used to leave a
   stale timer in the event queue for its full 2 ms — hundreds of dead
   events per client at microsecond commit latencies). The [attempt]
   generation check stays as belt and braces: cancellation is an
   optimization, not a correctness requirement. *)
let rec transmit t ~req_id ~cmd =
  let dst = target_for t cmd in
  t.env.Node_env.send ~dst
    (Wire.Request { req_id; cmd; relaxed_read = t.policy.relaxed_reads });
  t.attempt <- t.attempt + 1;
  let this_attempt = t.attempt in
  t.retry_timer <-
    Some
      (t.env.Node_env.after_cancel ~delay:t.policy.timeout (fun () ->
           t.retry_timer <- None;
           match t.current with
           | Some (r, c, _) when r = req_id && this_attempt = t.attempt ->
             t.retry_count <- t.retry_count + 1;
             if t.policy.failover then
               t.target_idx <-
                 (t.target_idx + 1) mod Array.length t.policy.targets;
             transmit t ~req_id:r ~cmd:c
           | Some _ | None -> ()))

let cancel_retry_timer t =
  match t.retry_timer with
  | Some tm ->
    Node_env.cancel_timer tm;
    t.retry_timer <- None
  | None -> ()

let issue t =
  let limit_reached =
    match t.policy.max_requests with Some m -> t.done_count >= m | None -> false
  in
  if not limit_reached then begin
    let req_id = t.next_req in
    t.next_req <- t.next_req + 1;
    let cmd = pick_command t in
    Ci_rsm.Vec.push t.log cmd;
    t.current <- Some (req_id, cmd, now t);
    transmit t ~req_id ~cmd
  end

let start t = issue t

let handle t ~src:_ msg =
  match msg with
  | Wire.Reply { req_id; result = _ } ->
    (match t.current with
     | Some (r, cmd, sent_at) when r = req_id ->
       t.current <- None;
       cancel_retry_timer t;
       t.done_count <- t.done_count + 1;
       (* Closed loop: the request was intended the instant it was
          first sent, so both measures coincide. *)
       Run_stats.record t.stats ~intended_at:sent_at ~sent_at
         ~replied_at:(now t);
       if not (Command.is_read cmd) then Ci_rsm.Vec.push t.acked req_id;
       if t.policy.think > 0 then
         t.env.Node_env.after ~delay:t.policy.think (fun () -> issue t)
       else issue t
     | Some _ | None -> () (* stale duplicate reply *))
  | _ -> () (* clients only consume replies *)

let node_id t = t.env.Node_env.id
let completed t = t.done_count
let retries t = t.retry_count
let issued t = t.log
let acked_writes t = t.acked

let create ~env ~policy ~stats =
  if Array.length policy.targets = 0 then
    invalid_arg "Client.create: empty target list";
  {
    env;
    policy;
    stats;
    rng = Rng.split env.Node_env.rng;
    target_idx = policy.primary mod Array.length policy.targets;
    next_req = 0;
    current = None;
    attempt = 0;
    retry_timer = None;
    done_count = 0;
    retry_count = 0;
    log = Ci_rsm.Vec.create ();
    acked = Ci_rsm.Vec.create ();
  }
