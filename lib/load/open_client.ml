module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command

type mix = { reads : float; cas : float; ranges : float }

type closed_loop = {
  think : int;
  read_ratio : float;
  cross_shard_ratio : float;
  key_space : int;
}

type open_loop = {
  arrival : Arrival.spec;
  key_dist : Key_dist.spec;
  key_space : int;
  mix : mix;
  range_span : int;
  population : int;
  sessions : int;
}

type loop = Closed of closed_loop | Open of open_loop

type config = {
  targets : int array;
  primary : int;
  failover : bool;
  timeout : int;
  relaxed_reads : bool;
  read_own_node : bool;
  groups : int;
  stop_at : int;
  loop : loop;
}

let default_config ~targets =
  {
    targets;
    primary = 0;
    failover = true;
    timeout = Ci_engine.Sim_time.ms 2;
    relaxed_reads = false;
    read_own_node = false;
    groups = 1;
    stop_at = Ci_engine.Sim_time.ms 50;
    loop =
      Open
        {
          arrival = Arrival.Fixed 50_000.;
          key_dist = Key_dist.Uniform;
          key_space = 64;
          mix = { reads = 0.5; cas = 0.; ranges = 0. };
          range_span = 8;
          population = 100_000;
          sessions = 16;
        };
  }

let validate_config ~who cfg =
  let in_unit x = x >= 0. && x <= 1. in
  let checks =
    [
      (Array.length cfg.targets = 0, "empty target list");
      (cfg.timeout <= 0, "client timeout must be > 0");
      (cfg.groups < 1, "groups must be >= 1");
    ]
    @
    match cfg.loop with
    | Closed c ->
      [
        (c.think < 0, "think must be >= 0");
        (not (in_unit c.read_ratio), "read_ratio must be in [0, 1]");
        (not (in_unit c.cross_shard_ratio), "cross_shard_ratio must be in [0, 1]");
        (c.key_space < 1, "key_space must be >= 1");
      ]
    | Open o ->
      let m = o.mix in
      [
        (o.key_space < 1, "key_space must be >= 1");
        (o.population < 1, "population must be >= 1");
        (o.sessions < 1, "sessions must be >= 1");
        ( m.reads < 0. || m.cas < 0. || m.ranges < 0.
          || m.reads +. m.cas +. m.ranges > 1. +. 1e-9,
          "mix fractions must be >= 0 and sum <= 1" );
        (o.range_span < 1, "range_span must be >= 1");
      ]
  in
  List.iter (fun (bad, m) -> if bad then invalid_arg (who ^ ": " ^ m)) checks;
  match cfg.loop with
  | Closed _ -> ()
  | Open o -> (
    try
      Arrival.validate o.arrival;
      Key_dist.validate o.key_dist ~key_space:o.key_space
    with Invalid_argument m -> invalid_arg (who ^ ": " ^ m))

type sink = Samples of Run_stats.t | Histograms of Load_stats.t

(* One request, from its first transmission to its reply. *)
type op = {
  req : int;
  cmd : Command.t;
  lclient : int;
  intended : int;
  sent : int;
  mutable attempt : int; (* distinguishes timeout timers *)
  mutable timer : Node_env.timer option;
}

type pending = { p_lclient : int; p_cmd : Command.t; p_intended : int }

(* The open loop's own state: the schedule, the sampler, the backlog of
   arrivals waiting for a session and the session tracker. Per (logical
   client, key), [own] holds that client's acked write payloads, newest
   first. Payloads are globally unique, so a read returning one of the
   client's *older* payloads proves the read serialized before an
   already-acked write — a read-your-writes violation no value
   coincidence can fake. *)
type arrivals = {
  o : open_loop;
  sampler : Key_dist.t;
  schedule : Arrival.t;
  backlog : pending Queue.t;
  own : Session_store.t;
  mutable next_intended : int;
  mutable next_data : int;
}

type mode = Closed_mode of closed_loop | Open_mode of arrivals

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  sink : sink;
  rng : Rng.t;
  mode : mode;
  mutable target_idx : int;
  mutable next_req : int;
  inflight : (int, op) Hashtbl.t; (* req_id -> op *)
  log : Command.t Ci_rsm.Vec.t; (* by req_id *)
  acked : int Ci_rsm.Vec.t; (* req_ids of acknowledged writes *)
  mutable n_done : int;
  mutable n_retries : int;
}

let now t = t.env.Node_env.now ()

let with_load t f = match t.sink with Histograms s -> f s | Samples _ -> ()

(* ---------- the shared request path ---------- *)

let target_for t cmd =
  if t.cfg.read_own_node && Command.is_read cmd then t.env.Node_env.id
  else t.cfg.targets.(t.target_idx)

(* The timeout timer is cancelled on reply; the [attempt] generation
   check stays as belt and braces, since cancellation is an
   optimization, not a correctness requirement. A timeout rotates only
   if its attempt went to the still-current target: one rotation per
   outage, however many requests time out against the dead node. *)
let rec transmit t op =
  let dst = target_for t op.cmd in
  t.env.Node_env.send ~dst
    (Wire.Request { req_id = op.req; cmd = op.cmd; relaxed_read = t.cfg.relaxed_reads });
  op.attempt <- op.attempt + 1;
  let this_attempt = op.attempt in
  op.timer <-
    Some
      (t.env.Node_env.after_cancel ~delay:t.cfg.timeout (fun () ->
           op.timer <- None;
           if Hashtbl.mem t.inflight op.req && this_attempt = op.attempt then begin
             t.n_retries <- t.n_retries + 1;
             with_load t Load_stats.note_retry;
             if t.cfg.failover && dst = t.cfg.targets.(t.target_idx) then
               t.target_idx <- (t.target_idx + 1) mod Array.length t.cfg.targets;
             transmit t op
           end))

let send_op t ~lclient ~cmd ~intended =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  Ci_rsm.Vec.push t.log cmd;
  let op = { req; cmd; lclient; intended; sent = now t; attempt = 0; timer = None } in
  Hashtbl.replace t.inflight req op;
  transmit t op

let cancel_op_timer op =
  match op.timer with
  | Some tm ->
    Node_env.cancel_timer tm;
    op.timer <- None
  | None -> ()

(* ---------- the closed loop ---------- *)

(* A partner key for a cross-shard write: deterministic scan from the
   first key, so no extra rng draws perturb the stream; falls back to
   the next key when the keyspace cannot reach another group (groups =
   1, or fewer keys than groups need). *)
let partner_key t (c : closed_loop) ~k1 =
  let ks = c.key_space and groups = t.cfg.groups in
  let g1 = Ci_consensus.Shard.group_of_key ~groups k1 in
  let rec scan k n =
    if n = 0 then (k1 + 1) mod ks
    else if k <> k1 && Ci_consensus.Shard.group_of_key ~groups k <> g1 then k
    else scan ((k + 1) mod ks) (n - 1)
  in
  scan ((k1 + 1) mod ks) ks

(* The cross-shard draw is guarded so a zero ratio consumes nothing
   from the stream: default workloads stay byte-identical. *)
let draw_closed t (c : closed_loop) =
  if c.cross_shard_ratio > 0. && Rng.chance t.rng c.cross_shard_ratio then begin
    let k1 = Rng.int t.rng c.key_space in
    let d1 = Rng.int t.rng 1_000_000 and d2 = Rng.int t.rng 1_000_000 in
    Command.Mput { k1; d1; k2 = partner_key t c ~k1; d2 }
  end
  else if Rng.chance t.rng c.read_ratio then
    Command.Get { key = Rng.int t.rng c.key_space }
  else Command.Put { key = Rng.int t.rng c.key_space; data = Rng.int t.rng 1_000_000 }

(* Closed loop: the request is intended the instant it is sent. *)
let issue_closed t c =
  let at = now t in
  if at < t.cfg.stop_at then send_op t ~lclient:0 ~cmd:(draw_closed t c) ~intended:at

(* ---------- the open loop ---------- *)

(* Globally unique write payload: the driver's sequence number tagged
   with its node id, so concurrent drivers never mint the same value. *)
let fresh_data t a =
  let d = (a.next_data * 1024) + (t.env.Node_env.id land 1023) in
  a.next_data <- a.next_data + 1;
  d

(* Draw order is fixed (logical client, key, op class, then payload
   draws) so a load point is reproducible from the run seed alone. *)
let pick t a =
  let lclient = Rng.int t.rng a.o.population in
  let key = Key_dist.sample a.sampler t.rng in
  let u = Rng.float t.rng 1. in
  let m = a.o.mix in
  let cmd =
    if u < m.reads then Command.Get { key }
    else if u < m.reads +. m.ranges then Command.Range { lo = key; hi = key + a.o.range_span }
    else if u < m.reads +. m.ranges +. m.cas then
      let expect =
        match Session_store.newest a.own ~lclient ~key with Some d -> d | None -> 0
      in
      Command.Cas { key; expect; data = fresh_data t a }
    else Command.Put { key; data = fresh_data t a }
  in
  (lclient, cmd)

(* Bounded sessions: at most [sessions] requests in flight; the rest
   queue in the driver with their intended stamps intact, so the time
   spent waiting for a session is charged to the measured latency. *)
let pump t a =
  while Hashtbl.length t.inflight < a.o.sessions && not (Queue.is_empty a.backlog) do
    let p = Queue.pop a.backlog in
    send_op t ~lclient:p.p_lclient ~cmd:p.p_cmd ~intended:p.p_intended
  done;
  match t.sink with
  | Histograms s -> Load_stats.note_backlog s (Queue.length a.backlog)
  | Samples _ -> ()

let enqueue t a ~intended =
  let lclient, cmd = pick t a in
  (match t.sink with
  | Histograms s -> Load_stats.note_issued s ~at:intended
  | Samples _ -> ());
  Queue.push { p_lclient = lclient; p_cmd = cmd; p_intended = intended } a.backlog;
  pump t a

(* The arrival loop: issue every op whose intended instant has passed
   (a late timer issues the whole backlog at once — catch-up, not
   omission), then sleep until the next intended arrival. *)
let rec tick t a =
  let at = now t in
  while a.next_intended <= at && a.next_intended < t.cfg.stop_at do
    enqueue t a ~intended:a.next_intended;
    a.next_intended <- a.next_intended + Arrival.gap a.schedule t.rng
  done;
  if a.next_intended < t.cfg.stop_at then
    t.env.Node_env.after ~delay:(max 1 (a.next_intended - at)) (fun () -> tick t a)

let check_ryw t a op result =
  match (op.cmd, result) with
  | Command.Get { key }, Command.Found got -> (
    match Session_store.newest a.own ~lclient:op.lclient ~key with
    | None -> ()
    | Some newest -> (
      match got with
      | None ->
        (* An acked write exists and nothing deletes: reading an empty
           cell is unconditionally stale. *)
        with_load t Load_stats.note_stale_read
      | Some d ->
        if d <> newest && Session_store.mem a.own ~lclient:op.lclient ~key d then
          with_load t Load_stats.note_stale_read))
  | _ -> ()

let note_own_write a op result =
  match (op.cmd, result) with
  | Command.Put { key; data }, _ | Command.Cas { key; data; _ }, Command.Swapped true ->
    Session_store.push a.own ~lclient:op.lclient ~key data
  | _ -> ()

(* ---------- driving ---------- *)

let start t =
  match t.mode with Closed_mode c -> issue_closed t c | Open_mode a -> tick t a

let handle t ~src:_ msg =
  match msg with
  | Wire.Reply { req_id; result } -> (
    match Hashtbl.find_opt t.inflight req_id with
    | None -> () (* stale duplicate reply *)
    | Some op -> (
      Hashtbl.remove t.inflight req_id;
      cancel_op_timer op;
      t.n_done <- t.n_done + 1;
      let replied_at = now t in
      (match t.sink with
      | Samples s ->
        Run_stats.record s ~intended_at:op.intended ~sent_at:op.sent ~replied_at
      | Histograms s ->
        (match result with Command.Rejected -> Load_stats.note_rejected s | _ -> ());
        Load_stats.record s ~intended_at:op.intended ~sent_at:op.sent ~replied_at);
      (* A failed swap was still ordered: it stays in [acked] so the
         consistency checker demands its decision, like any write. *)
      if not (Command.is_read op.cmd) then Ci_rsm.Vec.push t.acked req_id;
      match t.mode with
      | Closed_mode c ->
        if c.think > 0 then t.env.Node_env.after ~delay:c.think (fun () -> issue_closed t c)
        else issue_closed t c
      | Open_mode a ->
        check_ryw t a op result;
        note_own_write a op result;
        pump t a))
  | _ -> () (* drivers only consume replies *)

let node_id t = t.env.Node_env.id
let completed t = t.n_done
let retries t = t.n_retries

let outstanding t =
  Hashtbl.length t.inflight
  + match t.mode with Open_mode a -> Queue.length a.backlog | Closed_mode _ -> 0

let issued t = t.log
let acked_writes t = t.acked

let create ~env ~config ~sink =
  validate_config ~who:"Open_client.create" config;
  let rng = Rng.split env.Node_env.rng in
  let mode =
    match config.loop with
    | Closed c -> Closed_mode c
    | Open o ->
      Open_mode
        {
          o;
          sampler = Key_dist.compile o.key_dist ~key_space:o.key_space;
          schedule = Arrival.compile o.arrival;
          backlog = Queue.create ();
          own = Session_store.create ~key_space:o.key_space;
          next_intended = 0;
          next_data = 1;
        }
  in
  {
    env;
    cfg = config;
    sink;
    rng;
    mode;
    target_idx = config.primary mod Array.length config.targets;
    next_req = 0;
    inflight = Hashtbl.create 64;
    log = Ci_rsm.Vec.create ();
    acked = Ci_rsm.Vec.create ();
    n_done = 0;
    n_retries = 0;
  }
