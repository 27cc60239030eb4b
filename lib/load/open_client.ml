module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command

type mix = { reads : float; cas : float; ranges : float }

type config = {
  targets : int array;
  primary : int;
  failover : bool;
  timeout : int;
  arrival : Arrival.spec;
  key_dist : Key_dist.spec;
  key_space : int;
  mix : mix;
  range_span : int;
  population : int;
  sessions : int;
  relaxed_reads : bool;
  stop_at : int;
}

let default_config ~targets =
  {
    targets;
    primary = 0;
    failover = true;
    timeout = Ci_engine.Sim_time.ms 2;
    arrival = Arrival.Fixed 50_000.;
    key_dist = Key_dist.Uniform;
    key_space = 64;
    mix = { reads = 0.5; cas = 0.; ranges = 0. };
    range_span = 8;
    population = 100_000;
    sessions = 16;
    relaxed_reads = false;
    stop_at = Ci_engine.Sim_time.ms 50;
  }

let validate_config cfg =
  if Array.length cfg.targets = 0 then
    invalid_arg "Open_client: empty target list";
  if cfg.timeout <= 0 then invalid_arg "Open_client: timeout must be > 0";
  if cfg.key_space < 1 then invalid_arg "Open_client: key_space must be >= 1";
  if cfg.population < 1 then
    invalid_arg "Open_client: population must be >= 1";
  if cfg.sessions < 1 then invalid_arg "Open_client: sessions must be >= 1";
  let m = cfg.mix in
  if
    m.reads < 0. || m.cas < 0. || m.ranges < 0.
    || m.reads +. m.cas +. m.ranges > 1. +. 1e-9
  then invalid_arg "Open_client: mix fractions must be >= 0 and sum <= 1";
  if cfg.range_span < 1 then
    invalid_arg "Open_client: range_span must be >= 1";
  Arrival.validate cfg.arrival;
  Key_dist.validate cfg.key_dist ~key_space:cfg.key_space

type inflight = {
  i_req : int;
  i_cmd : Command.t;
  i_lclient : int;
  i_intended : int;
  i_sent : int;
  mutable i_attempt : int;
  mutable i_timer : Node_env.timer option;
}

type pending = { p_lclient : int; p_cmd : Command.t; p_intended : int }

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  stats : Load_stats.t;
  rng : Rng.t;
  sampler : Key_dist.t;
  arrival : Arrival.t;
  mutable target_idx : int;
  mutable next_req : int;
  mutable next_intended : int;
  mutable next_data : int;
  backlog : pending Queue.t;
  inflight : (int, inflight) Hashtbl.t; (* req_id -> op *)
  (* Session tracker: per (logical client, key), that client's acked
     write payloads, newest first. Payloads are globally unique, so a
     read returning one of the client's *older* payloads proves the
     read serialized before an already-acked write — a read-your-writes
     violation no value coincidence can fake. *)
  own : Session_store.t;
  log : Command.t Ci_rsm.Vec.t; (* by req_id *)
  acked : int Ci_rsm.Vec.t; (* req_ids of acknowledged writes *)
  mutable n_done : int;
}

let now t = t.env.Node_env.now ()

(* Globally unique write payload: the driver's sequence number tagged
   with its node id, so concurrent drivers never mint the same value. *)
let fresh_data t =
  let d = (t.next_data * 1024) + (t.env.Node_env.id land 1023) in
  t.next_data <- t.next_data + 1;
  d

let own_newest t ~lclient ~key = Session_store.newest t.own ~lclient ~key
let own_push t ~lclient ~key d = Session_store.push t.own ~lclient ~key d

(* Draw order is fixed (logical client, key, op class, then payload
   draws) so a load point is reproducible from the run seed alone. *)
let pick t =
  let lclient = Rng.int t.rng t.cfg.population in
  let key = Key_dist.sample t.sampler t.rng in
  let u = Rng.float t.rng 1. in
  let m = t.cfg.mix in
  let cmd =
    if u < m.reads then Command.Get { key }
    else if u < m.reads +. m.ranges then
      Command.Range { lo = key; hi = key + t.cfg.range_span }
    else if u < m.reads +. m.ranges +. m.cas then
      let expect =
        match own_newest t ~lclient ~key with Some d -> d | None -> 0
      in
      Command.Cas { key; expect; data = fresh_data t }
    else Command.Put { key; data = fresh_data t }
  in
  (lclient, cmd)

let rec transmit t op =
  let dst = t.cfg.targets.(t.target_idx) in
  t.env.Node_env.send ~dst
    (Wire.Request
       { req_id = op.i_req; cmd = op.i_cmd; relaxed_read = t.cfg.relaxed_reads });
  op.i_attempt <- op.i_attempt + 1;
  let this_attempt = op.i_attempt in
  op.i_timer <-
    Some
      (t.env.Node_env.after_cancel ~delay:t.cfg.timeout (fun () ->
           op.i_timer <- None;
           if
             Hashtbl.mem t.inflight op.i_req
             && this_attempt = op.i_attempt
           then begin
             Load_stats.note_retry t.stats;
             if t.cfg.failover then
               t.target_idx <-
                 (t.target_idx + 1) mod Array.length t.cfg.targets;
             transmit t op
           end))

let send_op t (p : pending) =
  let req_id = t.next_req in
  t.next_req <- t.next_req + 1;
  Ci_rsm.Vec.push t.log p.p_cmd;
  let op =
    {
      i_req = req_id;
      i_cmd = p.p_cmd;
      i_lclient = p.p_lclient;
      i_intended = p.p_intended;
      i_sent = now t;
      i_attempt = 0;
      i_timer = None;
    }
  in
  Hashtbl.replace t.inflight req_id op;
  transmit t op

(* Bounded sessions: at most [sessions] requests in flight; the rest
   queue in the driver with their intended stamps intact, so the time
   spent waiting for a session is charged to the measured latency. *)
let pump t =
  while
    Hashtbl.length t.inflight < t.cfg.sessions
    && not (Queue.is_empty t.backlog)
  do
    send_op t (Queue.pop t.backlog)
  done;
  Load_stats.note_backlog t.stats (Queue.length t.backlog)

let enqueue t ~intended =
  let lclient, cmd = pick t in
  Load_stats.note_issued t.stats ~at:intended;
  Queue.push { p_lclient = lclient; p_cmd = cmd; p_intended = intended }
    t.backlog;
  pump t

(* The arrival loop: issue every op whose intended instant has passed
   (a late timer issues the whole backlog at once — catch-up, not
   omission), then sleep until the next intended arrival. *)
let rec tick t =
  let at = now t in
  while t.next_intended <= at && t.next_intended < t.cfg.stop_at do
    enqueue t ~intended:t.next_intended;
    t.next_intended <- t.next_intended + Arrival.gap t.arrival t.rng
  done;
  if t.next_intended < t.cfg.stop_at then
    t.env.Node_env.after
      ~delay:(max 1 (t.next_intended - at))
      (fun () -> tick t)

let start t = tick t

let cancel_op_timer op =
  match op.i_timer with
  | Some tm ->
    Node_env.cancel_timer tm;
    op.i_timer <- None
  | None -> ()

let check_ryw t op result =
  match (op.i_cmd, result) with
  | Command.Get { key }, Command.Found got -> (
    match own_newest t ~lclient:op.i_lclient ~key with
    | None -> ()
    | Some newest -> (
      match got with
      | None ->
        (* An acked write exists and nothing deletes: reading an empty
           cell is unconditionally stale. *)
        Load_stats.note_stale_read t.stats
      | Some d ->
        if
          d <> newest
          && Session_store.mem t.own ~lclient:op.i_lclient ~key d
        then Load_stats.note_stale_read t.stats))
  | _ -> ()

let note_write_acked t op result =
  match (op.i_cmd, result) with
  | Command.Put { key; data }, _ ->
    Ci_rsm.Vec.push t.acked op.i_req;
    own_push t ~lclient:op.i_lclient ~key data
  | Command.Cas { key; data; _ }, Command.Swapped true ->
    Ci_rsm.Vec.push t.acked op.i_req;
    own_push t ~lclient:op.i_lclient ~key data
  | Command.Cas _, _ ->
    (* The failed swap was still ordered: keep it in [acked] so the
       consistency checker demands its decision, like any write. *)
    Ci_rsm.Vec.push t.acked op.i_req
  | _ -> ()

let handle t ~src:_ msg =
  match msg with
  | Wire.Reply { req_id; result } -> (
    match Hashtbl.find_opt t.inflight req_id with
    | None -> () (* stale duplicate reply *)
    | Some op ->
      Hashtbl.remove t.inflight req_id;
      cancel_op_timer op;
      t.n_done <- t.n_done + 1;
      (match result with
      | Command.Rejected -> Load_stats.note_rejected t.stats
      | _ -> ());
      Load_stats.record t.stats ~intended_at:op.i_intended ~sent_at:op.i_sent
        ~replied_at:(now t);
      check_ryw t op result;
      note_write_acked t op result;
      pump t)
  | _ -> () (* drivers only consume replies *)

let node_id t = t.env.Node_env.id
let completed t = t.n_done
let outstanding t = Hashtbl.length t.inflight + Queue.length t.backlog
let issued t = t.log
let acked_writes t = t.acked

let create ~env ~config ~stats =
  validate_config config;
  let rng = Rng.split env.Node_env.rng in
  {
    env;
    cfg = config;
    stats;
    rng;
    sampler = Key_dist.compile config.key_dist ~key_space:config.key_space;
    arrival = Arrival.compile config.arrival;
    target_idx = config.primary mod Array.length config.targets;
    next_req = 0;
    next_intended = 0;
    next_data = 1;
    backlog = Queue.create ();
    inflight = Hashtbl.create 64;
    own = Session_store.create ~key_space:config.key_space;
    log = Ci_rsm.Vec.create ();
    acked = Ci_rsm.Vec.create ();
    n_done = 0;
  }
