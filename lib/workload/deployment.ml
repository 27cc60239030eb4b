module Protocol = Ci_consensus.Protocol
module Twopc = Ci_consensus.Twopc
module Shard = Ci_consensus.Shard
module Wire = Ci_consensus.Wire
module Replica_core = Ci_consensus.Replica_core
module Open_client = Ci_load.Open_client
module Load_stats = Ci_load.Load_stats
module Run_stats = Ci_load.Run_stats
module Metrics = Ci_obs.Metrics

type open_loop = Open_client.open_loop = {
  arrival : Ci_load.Arrival.spec;
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Open_client.mix;
  range_span : int;
  population : int;
  sessions : int;
}

let default_open_loop =
  {
    arrival = Ci_load.Arrival.Fixed 50_000.;
    key_dist = Ci_load.Key_dist.Uniform;
    key_space = 65_536;
    mix = { Open_client.reads = 0.5; cas = 0.; ranges = 0. };
    range_span = 16;
    population = 100_000;
    sessions = 16;
  }

type config = {
  protocol : Protocol.name;
  knobs : Protocol.knobs;
  groups : int;
  replicas : int;
  clients : int;
  joint : bool;
  timeout : int;
  closed_loop : Open_client.closed_loop;
  open_loop : open_loop option;
  window : int * int;
  bucket : int;
  shared_sinks : bool;
}

(* ---------- layout ---------- *)

type role =
  | Replica of { group : int; participant : bool }
  | Router of { group : int }
  | Load of { index : int }

let total_replicas c = c.groups * c.replicas
let n_routers c = if c.groups = 1 then 0 else c.groups
let client_base c = if c.joint then 0 else total_replicas c + n_routers c
let n_nodes c = if c.joint then total_replicas c else client_base c + c.clients
let group_ids c g = Array.init c.replicas (fun j -> (g * c.replicas) + j)
let has_participant c i = c.groups > 1 && i < total_replicas c && i mod c.replicas = 0

let roles c i =
  let total = total_replicas c in
  let base = client_base c in
  (if i < total then
     [ Replica { group = i / c.replicas; participant = has_participant c i } ]
   else [])
  @ (if i >= total && i < total + n_routers c then [ Router { group = i - total } ]
     else [])
  @ if i >= base && i < base + c.clients then [ Load { index = i - base } ] else []

let targets c =
  if n_routers c = 0 then Array.init (total_replicas c) Fun.id
  else Array.init (n_routers c) (fun j -> total_replicas c + j)

(* Mencius distributes load by design: its clients spread over the
   leaders instead of all addressing replica 0. *)
let primary c k =
  if n_routers c > 0 then k mod n_routers c
  else if Protocol.leaderless c.protocol then k mod c.replicas
  else 0

(* Client [k]'s driver: the workload inputs, placed by the layout and
   the protocol. An open loop stops arriving at the window's end; a
   closed loop runs until the backend stops delivering. *)
let driver_config c k =
  {
    Open_client.targets = targets c;
    primary = primary c k;
    failover = Protocol.client_failover c.protocol;
    timeout = c.timeout;
    relaxed_reads = c.knobs.Protocol.relaxed_reads;
    read_own_node =
      c.joint && (c.knobs.Protocol.local_reads || c.knobs.Protocol.relaxed_reads);
    groups = c.groups;
    stop_at = (if Option.is_none c.open_loop then max_int else snd c.window);
    loop =
      (match c.open_loop with
      | Some ol -> Open_client.Open ol
      | None -> Open_client.Closed c.closed_loop);
  }

let validate ~who ~nemesis c =
  let fail m = invalid_arg (who ^ ": " ^ m) in
  let k = c.knobs in
  let name = Protocol.to_string c.protocol in
  let crash_pause =
    Ci_faults.crashes nemesis <> [] || Ci_faults.pauses nemesis <> []
  in
  List.iter
    (fun (bad, m) -> if bad then fail m)
    [
      (c.replicas < 1, "need at least one replica");
      ((not c.joint) && c.clients < 1, "need clients");
      (c.groups < 1, "groups must be >= 1");
      ( c.groups > 1 && not (Protocol.shardable c.protocol),
        "groups > 1 requires a shardable protocol (1paxos or multipaxos)" );
      (c.groups > 1 && c.joint, "groups > 1 requires dedicated placement");
      ( c.groups > 1 && k.Protocol.relaxed_reads,
        "relaxed reads are not routed across shards" );
      (k.Protocol.batch < 1, "batch must be >= 1");
      (k.Protocol.batch_delay < 0, "batch_delay must be >= 0");
      (k.Protocol.window < 0, "pipeline must be >= 0");
      (k.Protocol.lease < 0, "lease must be >= 0");
      ( k.Protocol.lease > 0 && not (Protocol.leases c.protocol),
        "leader leases require 1paxos or multipaxos (got " ^ name ^ ")" );
      ( k.Protocol.lease > 0
        && (k.Protocol.lease_skew < 0 || k.Protocol.lease_skew >= k.Protocol.lease),
        "lease_skew must be in [0, lease)" );
      ( k.Protocol.lease > 0 && k.Protocol.relaxed_reads,
        "leases and relaxed reads are mutually exclusive read paths" );
      ( c.replicas < 2 && (c.open_loop <> None || not (Ci_faults.is_empty nemesis)),
        "open-loop load and fault schedules need >= 2 replicas per group" );
      (c.open_loop <> None && c.joint, "open-loop load requires dedicated placement");
      ( crash_pause && c.joint,
        "nemesis crash/pause requires dedicated placement (a joint node's client \
         would die with its replica)" );
      ( crash_pause && not (Protocol.recoverable c.protocol),
        "nemesis crash/pause requires a protocol with crash-recovery (got " ^ name
        ^ ")" );
    ];
  Open_client.validate_config ~who (driver_config c 0)

(* ---------- building ---------- *)

type handler = src:int -> Wire.t -> unit

(* Node [id]'s roles; [sink] is the sink it reports (a shared sink is
   reported by the first client node only). *)
type node = {
  id : int;
  mutable replica : Protocol.replica option;
  mutable participant : Twopc.Participant.p option;
  mutable router : Shard.Router.t option;
  mutable driver : Open_client.t option;
  mutable sink : Open_client.sink option;
}

type t = { install : int -> handler -> unit; nodes : node list }

let handler n : handler =
  match n with
  | { replica = Some r; participant = Some p; _ } ->
    fun ~src msg ->
      if not (Twopc.Participant.handle p ~src msg) then r.Protocol.handle ~src msg
  | { replica = Some r; driver = Some d; _ } -> (
    (* Joint node: replies are the driver's, the rest the replica's. *)
    fun ~src msg ->
      match msg with
      | Wire.Reply _ -> Open_client.handle d ~src msg
      | _ -> r.Protocol.handle ~src msg)
  | { replica = Some r; _ } -> r.Protocol.handle
  | { router = Some r; _ } -> Shard.Router.handle r
  | { driver = Some d; _ } -> Open_client.handle d
  | _ -> fun ~src:_ _ -> ()

let build ?node c ~env ~install =
  let nodes =
    List.init (n_nodes c) Fun.id
    |> List.filter (fun i -> node = None || node = Some i)
    |> List.map (fun id ->
           {
             id;
             replica = None;
             participant = None;
             router = None;
             driver = None;
             sink = None;
           })
  in
  let new_sink () =
    match c.open_loop with
    | None -> Open_client.Samples (Run_stats.create ~bucket:c.bucket)
    | Some _ ->
      Open_client.Histograms (Load_stats.create ~from_:(fst c.window) ~until_:(snd c.window))
  in
  let shared = lazy (new_sink ()) in
  let phase f = List.iter (fun n -> List.iter (f n) (roles c n.id)) nodes in
  (* Replicas, then drivers: the order in which the simulator's shared
     random stream has always been split. *)
  phase (fun n -> function
    | Replica { group; _ } ->
      n.replica <-
        Some (Protocol.create c.protocol c.knobs ~replicas:(group_ids c group) (env n.id))
    | Router _ | Load _ -> ());
  phase (fun n -> function
    | Load { index = k } ->
      let sink = if c.shared_sinks then Lazy.force shared else new_sink () in
      n.driver <- Some (Open_client.create ~env:(env n.id) ~config:(driver_config c k) ~sink);
      if k = 0 || not c.shared_sinks then n.sink <- Some sink
    | Replica _ | Router _ -> ());
  phase (fun n -> function
    | Replica { participant = true; _ } ->
      n.participant <- Some (Twopc.Participant.create ~env:(env n.id))
    | Router _ ->
      n.router <-
        Some
          (Shard.Router.create ~env:(env n.id)
             ~config:
               {
                 Shard.Router.groups = c.groups;
                 leader_of = Array.init c.groups (fun g -> g * c.replicas);
                 retry_timeout = c.timeout;
               })
    | Replica _ | Load _ -> ());
  List.iter (fun n -> install n.id (handler n)) nodes;
  { install; nodes }

let start ?node t =
  let each f =
    List.iter (fun n -> if node = None || node = Some n.id then f n) t.nodes
  in
  each (fun n -> Option.iter (fun r -> r.Protocol.start ()) n.replica);
  each (fun n -> Option.iter Open_client.start n.driver)

let crash t i =
  let n = List.find (fun n -> n.id = i) t.nodes in
  match n.replica with
  | Some { Protocol.crash = Some capture; _ } ->
    let restart = capture () in
    Some
      (fun env ->
        n.replica <- Some (restart env);
        t.install i (handler n))
  | Some _ | None -> None

let sum t f = List.fold_left (fun acc n -> acc + f n) 0 t.nodes
let count f = Option.fold ~none:0 ~some:f

let replies t = sum t (fun n -> count Open_client.completed n.driver)
let retries t = sum t (fun n -> count Open_client.retries n.driver)

(* ---------- reports ---------- *)

type replica_report = {
  view : Wire.value Ci_rsm.Consistency.replica_view;
  leader_changes : int;
  acceptor_changes : int;
  lease_reads : int;
  retained : Ci_consensus.Onepaxos.retained option;
}

type report = {
  replica : replica_report option;
  sources : Run_check.source list;
  txns : Ci_rsm.Atomicity.txn list;
  routed : (int * int * int) option;  (** forwarded, committed, aborted *)
  retries : int;
  sink : Open_client.sink option;
}

let report (n : node) =
  {
    replica =
      Option.map
        (fun r ->
          {
            view = Replica_core.view r.Protocol.core;
            leader_changes = r.Protocol.leader_changes ();
            acceptor_changes = r.Protocol.acceptor_changes ();
            lease_reads = r.Protocol.lease_reads ();
            retained = r.Protocol.retained ();
          })
        n.replica;
    (* Participants propose [Prep]/[Fin] under their own node's identity:
       as much client input as the clients' commands. *)
    sources =
      List.filter_map Fun.id
        [
          Option.map Run_check.of_driver n.driver;
          Option.map (Run_check.of_participant ~node:n.id) n.participant;
        ];
    txns = Option.fold ~none:[] ~some:Shard.Router.txn_reports n.router;
    routed =
      Option.map
        (fun r ->
          (Shard.Router.forwarded r, Shard.Router.committed r, Shard.Router.aborted r))
        n.router;
    retries = count Open_client.retries n.driver;
    sink = n.sink;
  }

let reports t = List.map report t.nodes

(* ---------- assembly ---------- *)

type outcome = {
  consistency : Ci_rsm.Consistency.report;
  atomicity : Ci_rsm.Atomicity.report option;
  leader_changes : int;
  leader_changes_max : int;
  leader_changes_sum : int;
  acceptor_changes : int;
  acceptor_changes_sum : int;
  lease_reads : int;
  retained : Ci_consensus.Onepaxos.retained array;
  retries : int;
  stats : Run_stats.t;
  load : Load_stats.t option;
  timeline : float array;
  failover : Ci_obs.Failover.t option;
}

let pool create merge = function
  | [ s ] -> s
  | sinks ->
    let pooled = create () in
    List.iter (fun s -> merge ~into:pooled s) sinks;
    pooled

(* Commit rates over [0, until_) in 100 ms buckets, full buckets only:
   the wall-clock timeline failover figures overlay across backends. *)
let timeline_of completions ~until_ =
  let bucket = 100_000_000 in
  let counts = Array.make (until_ / bucket) 0 in
  Array.iter
    (fun t ->
      let b = t / bucket in
      if b < Array.length counts then counts.(b) <- counts.(b) + 1)
    completions;
  Array.map (fun c -> float_of_int c *. 1e9 /. float_of_int bucket) counts

let assemble c ~nemesis ~prefix ~metrics ~until_ ~faults:(dropped, duplicated)
    reports =
  let set_int k v = Metrics.set_int metrics (prefix ^ k) v in
  let reps : replica_report list = List.filter_map (fun (r : report) -> r.replica) reports in
  let consistency, atomicity =
    Run_check.check
      ~sources:(List.concat_map (fun r -> r.sources) reports)
      ~views:(Array.of_list (List.map (fun r -> r.view) reps))
      ~groups:c.groups
      ~group_of_replica:(fun i -> i / c.replicas)
      ~txns:(List.concat_map (fun r -> r.txns) reports)
  in
  let lc = Array.of_list (List.map (fun (r : replica_report) -> r.leader_changes) reps) in
  let ac = Array.of_list (List.map (fun (r : replica_report) -> r.acceptor_changes) reps) in
  let sum = Array.fold_left ( + ) 0 and peak = Array.fold_left max 0 in
  let lease_reads = List.fold_left (fun a (r : replica_report) -> a + r.lease_reads) 0 reps in
  if c.groups > 1 then begin
    let routed = List.filter_map (fun r -> r.routed) reports in
    let total f = List.fold_left (fun a x -> a + f x) 0 routed in
    set_int "shard.groups" c.groups;
    set_int "shard.forwarded" (total (fun (f, _, _) -> f));
    set_int "shard.committed" (total (fun (_, x, _) -> x));
    set_int "shard.aborted" (total (fun (_, _, a) -> a))
  end;
  (* Lease, load and fault keys exist only when the feature is on, so
     default-spec metric dumps are unchanged. *)
  if c.knobs.Protocol.lease > 0 then set_int "lease.reads" lease_reads;
  let sinks = List.filter_map (fun (r : report) -> r.sink) reports in
  let stats =
    pool
      (fun () -> Run_stats.create ~bucket:c.bucket)
      Run_stats.merge
      (List.filter_map (function Open_client.Samples s -> Some s | _ -> None) sinks)
  in
  let load =
    match List.filter_map (function Open_client.Histograms s -> Some s | _ -> None) sinks with
    | [] -> None
    | sinks ->
      Some
        (pool
           (fun () -> Load_stats.create ~from_:(fst c.window) ~until_:(snd c.window))
           Load_stats.merge sinks)
  in
  Option.iter
    (fun s ->
      let lp = Load_stats.latency_percentiles s in
      let sp = Load_stats.service_percentiles s in
      set_int "load.issued" (Load_stats.issued s);
      set_int "load.completed" (Load_stats.completed s);
      set_int "load.rejected" (Load_stats.rejected s);
      set_int "load.stale_reads" (Load_stats.stale_reads s);
      set_int "load.max_backlog" (Load_stats.max_backlog s);
      Metrics.set_float metrics (prefix ^ "load.throughput") (Load_stats.throughput s);
      set_int "load.p50" lp.Load_stats.p50;
      set_int "load.p99" lp.Load_stats.p99;
      set_int "load.p999" lp.Load_stats.p999;
      set_int "load.service_p50" sp.Load_stats.p50;
      set_int "load.service_p99" sp.Load_stats.p99;
      set_int "load.service_p999" sp.Load_stats.p999)
    load;
  let completions = Run_stats.completions_in stats ~from_:0 ~until_ in
  let failover =
    match Ci_faults.first_fault_at nemesis with
    | Some fault_at when fault_at >= 0 && fault_at < until_ ->
      set_int "faults.dropped" dropped;
      set_int "faults.duplicated" duplicated;
      let f = Ci_obs.Failover.analyze ~completions ~from_:0 ~fault_at ~until_ in
      Ci_obs.Failover.record metrics f;
      Some f
    | Some _ | None -> None
  in
  {
    consistency;
    atomicity;
    leader_changes = Protocol.total_leader_changes c.protocol lc;
    leader_changes_max = peak lc;
    leader_changes_sum = sum lc;
    acceptor_changes = peak ac;
    acceptor_changes_sum = sum ac;
    lease_reads;
    retained = Array.of_list (List.filter_map (fun (r : replica_report) -> r.retained) reps);
    retries = List.fold_left (fun a (r : report) -> a + r.retries) 0 reports;
    stats;
    load;
    timeline = timeline_of completions ~until_;
    failover;
  }
