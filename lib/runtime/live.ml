module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Replica_core = Ci_consensus.Replica_core
module Protocol = Ci_consensus.Protocol
module Client = Ci_workload.Client
module Run_stats = Ci_workload.Run_stats
module Run_check = Ci_workload.Run_check
module Metrics = Ci_obs.Metrics
module Summary = Ci_stats.Summary
module Shard = Ci_consensus.Shard
module Twopc = Ci_consensus.Twopc
module Atomicity = Ci_rsm.Atomicity

type protocol = Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos

type transport = Spsc | Socket

type spec = {
  protocol : protocol;
  n_replicas : int;
  n_clients : int;
  groups : int;
  cross_shard_ratio : float;
  duration_s : float;
  drain_s : float;
  transport : transport;
  queue_slots : int;
  slot_size : int;
  seed : int;
  client_timeout : int;
  think : int;
  read_ratio : float;
  key_space : int;
  outbox_cap : int;
  lease : int;
  lease_skew : int;
  open_loop : Ci_workload.Runner.open_loop option;
  nemesis : Ci_faults.t;
}

let default_spec ~protocol =
  {
    protocol;
    n_replicas = 3;
    n_clients = 2;
    groups = 1;
    cross_shard_ratio = 0.;
    duration_s = 1.0;
    drain_s = 0.2;
    transport = Spsc;
    queue_slots = 64;
    slot_size = 128;
    seed = 42;
    client_timeout = Sim_time.ms 150;
    think = 0;
    read_ratio = 0.;
    key_space = 64;
    outbox_cap = 4096;
    lease = 0;
    lease_skew = 0;
    open_loop = None;
    nemesis = Ci_faults.empty;
  }

let transport_of_string = function
  | "spsc" | "rings" -> Some Spsc
  | "socket" | "sockets" -> Some Socket
  | _ -> None

let transport_name = function Spsc -> "spsc" | Socket -> "socket"

type queue_totals = {
  q_count : int;
  q_msgs : int;
  q_blocked : int;
  q_occupancy_peak : int;
  q_outbox_peak : int;
  q_outbox_dropped : int;
}

type result = {
  spec : spec;
  cores : int;
  wall_s : float;
  ops : int;
  throughput : float;
  latency : Summary.t;
  retries : int;
  leader_changes : int;
  acceptor_changes : int;
  retained : Ci_consensus.Onepaxos.retained array;
  timeline : float array;
  queues : queue_totals;
  full_ring_sends : int array;
      (* per node: sends that found the destination ring full *)
  alloc_words_per_op : float;
      (* words allocated per committed op across replica+router domains *)
  lease_reads : int;
      (* reads served locally under an unexpired lease, summed *)
  load : Ci_load.Load_stats.t option;
      (* open-loop sink pooled over the drivers; Some iff spec.open_loop *)
  consistency : Consistency.report;
  atomicity : Atomicity.report option;
  metrics : Metrics.t;
  failover : Ci_obs.Failover.t option;
}

(* The node-local nemesis: a sorted transition timeline the node's own
   event loop evaluates against the monotonic clock. No controller
   thread, so crash, recovery and message processing can never race —
   the domain that owns the state is the only one that ever kills or
   revives it. *)
type nem_mode = Up | Paused | Down

type nem_ctl = {
  mutable transitions : (int * [ `Crash | `Restart | `Pause | `Resume ]) list;
  mutable mode : nem_mode;
  on_crash : unit -> unit;
      (** Capture the durable registers, discard everything volatile. *)
  on_restart : unit -> unit;
      (** Rebuild the replica through the protocol's [recover]. *)
}

(* Per-node runtime state. Everything here is owned by the node's
   domain (or, on the socket transport, its process) once spawned; the
   main domain builds it beforehand and reads it back only after the
   joins. All message traffic goes through [tr] — the endpoint hides
   whether the bytes cross SPSC slots or a kernel socket. *)
type node_state = {
  id : int;
  tr : Transport.t;
  selfq : Wire.t Queue.t; (* collapsed-role local deliveries *)
  mutable timers : Timer_wheel.t;
      (* Mutable so a crash can discard every armed timer by swapping in
         a fresh wheel (the environment reads the field per call). *)
  mutable handler : src:int -> Wire.t -> unit;
  (* Sender-side link faults: rules indexed by destination, coin flips
     from this node's own stream. [None] (the fault-free case) keeps the
     send path untouched. *)
  nem_links : Ci_faults.link_rule list array option;
  nem_rng : Rng.t;
  mutable nem : nem_ctl option;
  mutable n_fault_dropped : int;
  mutable n_fault_duplicated : int;
  mutable alloc_bytes : float;
      (* bytes this node's domain allocated over its lifetime, written
         by the domain itself just before it exits *)
}

let validate spec =
  (match spec.protocol with
  | Onepaxos | Multipaxos -> ()
  | Twopc | Mencius | Cheappaxos ->
    invalid_arg
      (Printf.sprintf "Live.run: live runs 1paxos and multipaxos only (got %s)"
         (Protocol.to_string spec.protocol)));
  if spec.n_replicas < 2 then invalid_arg "Live.run: need >= 2 replicas";
  if spec.n_clients < 1 then invalid_arg "Live.run: need >= 1 client";
  if spec.groups < 1 then invalid_arg "Live.run: groups must be >= 1";
  if not (spec.cross_shard_ratio >= 0. && spec.cross_shard_ratio <= 1.) then
    invalid_arg "Live.run: cross_shard_ratio must be in [0, 1]";
  if spec.duration_s <= 0. then invalid_arg "Live.run: duration_s must be > 0";
  if spec.drain_s < 0. then invalid_arg "Live.run: drain_s must be >= 0";
  if spec.queue_slots < 1 then invalid_arg "Live.run: queue_slots must be >= 1";
  if
    spec.slot_size < Spsc_bytes.min_slot_size
    || spec.slot_size land (spec.slot_size - 1) <> 0
  then
    invalid_arg
      (Printf.sprintf "Live.run: slot_size must be a power of two >= %d"
         Spsc_bytes.min_slot_size);
  if spec.client_timeout <= 0 then
    invalid_arg "Live.run: client_timeout must be > 0";
  if spec.think < 0 then invalid_arg "Live.run: think must be >= 0";
  if not (spec.read_ratio >= 0. && spec.read_ratio <= 1.) then
    invalid_arg "Live.run: read_ratio must be in [0, 1]";
  if spec.key_space < 1 then invalid_arg "Live.run: key_space must be >= 1";
  if spec.outbox_cap < 1 then invalid_arg "Live.run: outbox_cap must be >= 1";
  if spec.lease < 0 then invalid_arg "Live.run: lease must be >= 0";
  if spec.lease > 0 && spec.lease_skew >= spec.lease then
    invalid_arg "Live.run: lease_skew must be < lease";
  if spec.transport = Socket then begin
    if spec.groups > 1 then
      invalid_arg "Live.run: the socket transport does not shard yet (groups must be 1)";
    if not (Ci_faults.is_empty spec.nemesis) then
      invalid_arg
        "Live.run: nemesis is in-process only; the socket transport gets its \
         faults from the operating system";
    if spec.open_loop <> None then
      invalid_arg
        "Live.run: the open-loop driver is in-process only (socket children \
         run closed-loop clients)"
  end;
  if not (Ci_faults.is_empty spec.nemesis) then begin
    (match
       Ci_faults.validate ~n_nodes:(spec.groups * spec.n_replicas) spec.nemesis
     with
    | Ok () -> ()
    | Error e -> invalid_arg ("Live.run: nemesis: " ^ e));
    if Ci_faults.slows spec.nemesis <> [] then
      invalid_arg
        "Live.run: nemesis Slow faults are simulator-only (the live runtime \
         cannot throttle a real core); use Pause instead"
  end

let env_for st ~t0 ~seed =
  let now () = Clock.now_ns () - t0 in
  let raw_send ~dst msg = Transport.send st.tr ~dst msg in
  let send ~dst msg =
    if dst = st.id then Queue.push msg st.selfq
    else
      match st.nem_links with
      | None -> raw_send ~dst msg
      | Some rules -> (
        match if dst < Array.length rules then rules.(dst) else [] with
        | [] -> raw_send ~dst msg
        | rules ->
          let t = now () in
          let open Ci_faults in
          let in_window r = t >= r.l_from && t < r.l_until in
          let drop_p, dup_p, extra =
            List.fold_left
              (fun (dr, du, ex) r ->
                if not (in_window r) then (dr, du, ex)
                else
                  match r.l_kind with
                  | L_drop p -> (Float.max dr p, du, ex)
                  | L_dup p -> (dr, Float.max du p, ex)
                  | L_delay d -> (dr, du, ex + d))
              (0., 0., 0) rules
          in
          let deliver () =
            if extra > 0 then
              (* A laggy link holds the message back; timer-wheel order
                 is FIFO among equal deadlines, and real networks may
                 reorder anyway. *)
              Timer_wheel.at st.timers ~deadline:(t + extra) (fun () ->
                  raw_send ~dst msg)
            else raw_send ~dst msg
          in
          if drop_p >= 1. || (drop_p > 0. && Rng.chance st.nem_rng drop_p) then
            st.n_fault_dropped <- st.n_fault_dropped + 1
          else if dup_p >= 1. || (dup_p > 0. && Rng.chance st.nem_rng dup_p)
          then begin
            st.n_fault_duplicated <- st.n_fault_duplicated + 1;
            deliver ();
            deliver ()
          end
          else deliver ())
  in
  {
    Node_env.id = st.id;
    send;
    now;
    after = (fun ~delay f -> Timer_wheel.at st.timers ~deadline:(now () + delay) f);
    after_cancel =
      (fun ~delay f ->
        let tok = Timer_wheel.at_token st.timers ~deadline:(now () + delay) f in
        { Node_env.cancel = (fun () -> Timer_wheel.cancel st.timers tok) });
    rng = Rng.create ~seed;
    note_phase = (fun ~phase:_ -> ());
  }

(* How long to spin on an idle loop before yielding the core. On a host
   with fewer cores than domains (the 1-core CI box included) the
   [sleepf] arm is what lets the other domains run at all. *)
let spin_budget = 200
let idle_sleep_s = 50e-6

let rec nem_transitions ctl now =
  match ctl.transitions with
  | (t, tr) :: rest when t <= now ->
    ctl.transitions <- rest;
    (match tr with
    | `Crash ->
      ctl.mode <- Down;
      ctl.on_crash ()
    | `Restart ->
      ctl.mode <- Up;
      ctl.on_restart ()
    | `Pause -> if ctl.mode = Up then ctl.mode <- Paused
    | `Resume -> if ctl.mode = Paused then ctl.mode <- Up);
    nem_transitions ctl now
  | _ -> ()

let rec run_selfq st acc =
  if Queue.is_empty st.selfq then acc
  else begin
    let msg = Queue.pop st.selfq in
    st.handler ~src:st.id msg;
    run_selfq st (acc + 1)
  end

(* The hot loop. Deliberately allocation-free on its steady state —
   every helper it calls is a top-level tail-recursive function, the
   only heap traffic is the decoded inbound messages and the selfq
   cells. (The previous incarnation built closures and refs on every
   iteration; at spin rates that WAS the live runtime's allocation
   profile.) [ctl], when given, is polled every 256 iterations — the
   socket transport's out-of-band phase control. *)
let event_loop ?ctl st ~t0 ~stop ~m_work =
  let idle = ref 0 in
  let tick = ref 0 in
  while not (Atomic.get stop) do
    (match ctl with
    | Some f ->
      incr tick;
      if !tick land 255 = 0 then f ()
    | None -> ());
    (* Nemesis transitions due at this instant, applied by the owning
       domain itself — crash/restart never race the handler. *)
    (match st.nem with
    | None -> ()
    | Some ctl -> nem_transitions ctl (Clock.now_ns () - t0));
    match st.nem with
    | Some { mode = Down | Paused; _ } ->
      (* Dead or stopped: touch nothing — inbound queues fill up and the
         senders' capped outboxes absorb (then shed) the backlog, which
         is exactly what a peer of a dead process sees. Sleep instead of
         spinning; the only thing to watch for is the next transition. *)
      Unix.sleepf idle_sleep_s
    | _ ->
      (* 1. Retry parked sends; 2. collapsed-role self deliveries;
         3. drain inbound, budgeted per source; 4. due timers. *)
      let work = Transport.flush st.tr in
      let work = work + run_selfq st 0 in
      let work = work + Transport.drain st.tr st.handler in
      let work =
        work + Timer_wheel.run_due st.timers ~now:(Clock.now_ns () - t0)
      in
      if work > 0 then begin
        idle := 0;
        Metrics.add m_work work
      end
      else begin
        incr idle;
        if !idle <= spin_budget then Domain.cpu_relax ()
        else Unix.sleepf idle_sleep_s
      end
  done

let ms = Sim_time.ms

(* Failure-detection timeouts are wall-clock here: commits take
   microseconds, so a 50 ms round-trip budget fires only when something
   is genuinely wedged — never because a GC pause or a scheduling gap
   delayed one reply. *)
let knobs spec =
  {
    Protocol.default_knobs with
    rtt = ms 50;
    lease = spec.lease;
    lease_skew = spec.lease_skew;
  }

let fresh_state ~id ~tr ~nem_links ~nem_seed =
  {
    id;
    tr;
    selfq = Queue.create ();
    timers = Timer_wheel.create ();
    handler = (fun ~src:_ _ -> ());
    nem_links;
    nem_rng = Rng.create ~seed:nem_seed;
    nem = None;
    n_fault_dropped = 0;
    n_fault_duplicated = 0;
    alloc_bytes = 0.;
  }

(* Publish the endpoint-side counters under the metric keys both
   backends share; [full_by_kind] answers "which message kind hit the
   full ring" without a perf run. *)
let record_ring_metrics metrics states =
  let full_kinds = Hashtbl.create 8 in
  Array.iter
    (fun st ->
      Metrics.set_int metrics
        (Printf.sprintf "live.node%d.full_ring_sends" st.id)
        (Transport.blocked st.tr);
      List.iter
        (fun (k, c) ->
          Hashtbl.replace full_kinds k
            (c + Option.value (Hashtbl.find_opt full_kinds k) ~default:0))
        (Transport.full_by_kind st.tr))
    states;
  Hashtbl.iter
    (fun k c -> Metrics.set_int metrics ("live.ring.full." ^ k) c)
    full_kinds

(* ---------- in-process runner: domains over byte rings ---------- *)

let run_inproc spec =
  let n_replicas = spec.n_replicas and n_clients = spec.n_clients in
  (* Group-major node layout, like the sim runner: replicas of group g
     are nodes [g*R .. (g+1)*R-1], routers (sharded runs only) come
     next, clients last. *)
  let n_groups = spec.groups in
  let total_replicas = n_groups * n_replicas in
  let n_routers = if n_groups = 1 then 0 else n_groups in
  let client_base = total_replicas + n_routers in
  let n = client_base + n_clients in
  let replica_ids = Array.init total_replicas Fun.id in
  let router_ids = Array.init n_routers (fun j -> total_replicas + j) in
  let group_ids g = Array.sub replica_ids (g * n_replicas) n_replicas in
  let group_of_replica i = i / n_replicas in
  (* The mesh: mesh.(dst).(src) carries src -> dst as encoded bytes. *)
  let mesh =
    Transport.rings_mesh ~n ~slots:spec.queue_slots ~slot_size:spec.slot_size
  in
  (* Sender-side link rules, per source node. [None] for every node
     when the schedule carries none — the fault-free send path stays
     untouched. *)
  let link_rules_of =
    let all = Ci_faults.link_rules spec.nemesis in
    fun src ->
      if List.for_all (fun r -> r.Ci_faults.l_src <> src) all then None
      else begin
        let per_dst = Array.make n [] in
        List.iter
          (fun r ->
            if r.Ci_faults.l_src = src then
              per_dst.(r.Ci_faults.l_dst) <- r :: per_dst.(r.Ci_faults.l_dst))
          all;
        Array.map_inplace List.rev per_dst;
        Some per_dst
      end
  in
  let states =
    Array.init n (fun id ->
        fresh_state ~id
          ~tr:(Transport.rings_endpoint mesh ~id ~outbox_cap:spec.outbox_cap)
          ~nem_links:(link_rules_of id)
          ~nem_seed:(spec.nemesis.Ci_faults.seed + (id * 7919)))
  in
  let metrics = Metrics.create () in
  (* Registered before the spawns; incremented from every domain. *)
  let m_work = Metrics.counter metrics "live.events" in
  let t0 = Clock.now_ns () in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  let env_of id = env_for states.(id) ~t0 ~seed:(spec.seed + ((id + 1) * 1_000_003)) in
  let knobs = knobs spec in
  let replicas =
    Array.init total_replicas (fun i ->
        Protocol.create spec.protocol knobs
          ~replicas:(group_ids (group_of_replica i))
          (env_of i))
  in
  (* Sharded runs put a 2PC participant in front of each group's entry
     replica — same wrapping as the sim runner; everything the
     participant does not consume falls through to the replica. *)
  let participants =
    Array.init
      (if n_groups = 1 then 0 else n_groups)
      (fun g -> Twopc.Participant.create ~env:(env_of (g * n_replicas)))
  in
  let wrap_handler i h =
    if n_groups > 1 && i mod n_replicas = 0 then begin
      let p = participants.(group_of_replica i) in
      fun ~src msg -> if Twopc.Participant.handle p ~src msg then () else h ~src msg
    end
    else h
  in
  Array.iteri
    (fun i r -> states.(i).handler <- wrap_handler i r.Protocol.handle)
    replicas;
  (* Routers: hash single-shard commands to their group's entry replica,
     run cross-shard multi-puts as 2PC transactions. *)
  let routers =
    Array.init n_routers (fun j ->
        let config =
          {
            Shard.Router.groups = n_groups;
            leader_of = Array.init n_groups (fun g -> g * n_replicas);
            retry_timeout = spec.client_timeout;
          }
        in
        let r =
          Shard.Router.create ~env:(env_of (total_replicas + j)) ~config
        in
        states.(total_replicas + j).handler <-
          (fun ~src msg -> Shard.Router.handle r ~src msg);
        r)
  in
  (* Nemesis crash/pause timelines, attached per affected replica. The
     closures run inside the replica's own domain (step 0 of its event
     loop); [replicas.(i)] rewritten by a restart is read by the main
     domain only after the joins. *)
  if not (Ci_faults.is_empty spec.nemesis) then begin
    let per_node = Hashtbl.create 4 in
    let add node t tr =
      Hashtbl.replace per_node node
        ((t, tr) :: Option.value (Hashtbl.find_opt per_node node) ~default:[])
    in
    List.iter
      (fun c ->
        add c.Ci_faults.c_node c.Ci_faults.c_at `Crash;
        Option.iter
          (fun d -> add c.c_node (c.c_at + d) `Restart)
          c.Ci_faults.c_restart)
      (Ci_faults.crashes spec.nemesis);
    List.iter
      (fun p ->
        add p.Ci_faults.p_node p.Ci_faults.p_from `Pause;
        add p.p_node p.Ci_faults.p_until `Resume)
      (Ci_faults.pauses spec.nemesis);
    Hashtbl.iter
      (fun i trs ->
        let st = states.(i) in
        let restart = ref None in
        let on_crash () =
          (* The durable registers survive (modeled fsync); the mailbox,
             parked sends, armed timers and the handler die with the
             process. *)
          restart := Option.map (fun capture -> capture ()) replicas.(i).Protocol.crash;
          Queue.clear st.selfq;
          Transport.clear_outboxes st.tr;
          st.timers <- Timer_wheel.create ();
          st.handler <- (fun ~src:_ _ -> ())
        in
        let on_restart () =
          st.timers <- Timer_wheel.create ();
          Option.iter
            (fun restart ->
              let r = restart (env_of i) in
              replicas.(i) <- r;
              st.handler <- wrap_handler i r.Protocol.handle)
            !restart
        in
        st.nem <-
          Some
            { transitions = List.sort compare trs; mode = Up; on_crash; on_restart })
      per_node
  end;
  let client_stats =
    Array.init n_clients (fun _ -> Run_stats.create ~bucket:(ms 10))
  in
  let policy =
    {
      (Client.default_policy
         ~targets:(if n_routers = 0 then replica_ids else router_ids))
      with
      Client.timeout = spec.client_timeout;
      think = spec.think;
      read_ratio = spec.read_ratio;
      cross_shard_ratio = spec.cross_shard_ratio;
      groups = n_groups;
      key_space = spec.key_space;
    }
  in
  let clients =
    if spec.open_loop <> None then [||]
    else
      Array.init n_clients (fun i ->
          let policy =
            if n_routers > 0 then
              { policy with Client.primary = i mod n_routers }
            else policy
          in
          Client.create ~env:(env_of (client_base + i)) ~policy
            ~stats:client_stats.(i))
  in
  (* Open-loop drivers: one per client node, each with its own sink
     (each runs in its own domain; the sinks are merged after the
     joins). The measurement window is the whole measured phase. *)
  let duration_ns = int_of_float (spec.duration_s *. 1e9) in
  let load_sinks, drivers =
    match spec.open_loop with
    | None -> ([||], [||])
    | Some ol ->
      let sinks =
        Array.init n_clients (fun _ ->
            Ci_load.Load_stats.create ~from_:0 ~until_:duration_ns)
      in
      let drivers =
        Array.init n_clients (fun i ->
            let config =
              {
                Ci_load.Open_client.targets =
                  (if n_routers = 0 then replica_ids else router_ids);
                primary = (if n_routers > 0 then i mod n_routers else 0);
                failover = true;
                timeout = spec.client_timeout;
                arrival = ol.Ci_workload.Runner.arrival;
                key_dist = ol.Ci_workload.Runner.key_dist;
                key_space = ol.Ci_workload.Runner.key_space;
                mix = ol.Ci_workload.Runner.mix;
                range_span = ol.Ci_workload.Runner.range_span;
                population = ol.Ci_workload.Runner.population;
                sessions = ol.Ci_workload.Runner.sessions;
                relaxed_reads = false;
                stop_at = duration_ns;
              }
            in
            Ci_load.Open_client.create
              ~env:(env_of (client_base + i))
              ~config ~stats:sinks.(i))
      in
      (sinks, drivers)
  in
  Array.iteri
    (fun i c ->
      (* Quiesced clients stop consuming replies, so they issue nothing
         new and record nothing outside the measured phase. *)
      states.(client_base + i).handler <-
        (fun ~src msg ->
          if not (Atomic.get quiesce) then Client.handle c ~src msg))
    clients;
  Array.iteri
    (fun i d ->
      states.(client_base + i).handler <-
        (fun ~src msg ->
          if not (Atomic.get quiesce) then Ci_load.Open_client.handle d ~src msg))
    drivers;
  let domains =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let a0 = Gc.allocated_bytes () in
            (if i < total_replicas then replicas.(i).Protocol.start ()
             else if i >= client_base then
               if Array.length drivers > 0 then
                 Ci_load.Open_client.start drivers.(i - client_base)
               else Client.start clients.(i - client_base));
            event_loop states.(i) ~t0 ~stop ~m_work;
            (* [Gc.allocated_bytes] is domain-local; the delta is what
               this node's whole lifetime allocated, written before the
               join so the main domain can read it afterwards. *)
            states.(i).alloc_bytes <- Gc.allocated_bytes () -. a0))
  in
  Unix.sleepf spec.duration_s;
  let t_quiesce = Clock.now_ns () - t0 in
  Atomic.set quiesce true;
  Unix.sleepf spec.drain_s;
  Atomic.set stop true;
  Array.iter Domain.join domains;
  (* Everything below reads domain-owned state after the joins. *)
  let wall_s = float_of_int t_quiesce /. 1e9 in
  let load =
    if Array.length load_sinks = 0 then None
    else begin
      let pooled = Ci_load.Load_stats.create ~from_:0 ~until_:duration_ns in
      Array.iter (fun s -> Ci_load.Load_stats.merge ~into:pooled s) load_sinks;
      Some pooled
    end
  in
  let ops =
    Array.fold_left
      (fun acc s -> acc + Run_stats.completed_in s ~from_:0 ~until_:t_quiesce)
      0 client_stats
    + (match load with Some s -> Ci_load.Load_stats.completed s | None -> 0)
  in
  let latencies =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Run_stats.latencies_in s ~from_:0 ~until_:t_quiesce)
            client_stats))
  in
  let retries =
    Array.fold_left (fun acc c -> acc + Client.retries c) 0 clients
    + (match load with Some s -> Ci_load.Load_stats.retries s | None -> 0)
  in
  let counts f = Array.map (fun r -> f r ()) replicas in
  let leader_changes =
    Protocol.total_leader_changes spec.protocol
      (counts (fun r -> r.Protocol.leader_changes))
  in
  let acceptor_changes =
    Array.fold_left max 0 (counts (fun r -> r.Protocol.acceptor_changes))
  in
  let queues_total =
    {
      q_count = Transport.mesh_queue_count mesh;
      q_msgs = Transport.mesh_msgs mesh;
      q_blocked =
        Array.fold_left (fun acc s -> acc + Transport.blocked s.tr) 0 states;
      q_occupancy_peak = Transport.mesh_occupancy_peak mesh;
      q_outbox_peak =
        Array.fold_left (fun acc s -> max acc (Transport.outbox_peak s.tr)) 0 states;
      q_outbox_dropped =
        Array.fold_left
          (fun acc s -> acc + Transport.outbox_dropped s.tr)
          0 states;
    }
  in
  (* Consistency: the same check as Runner.run, over live views. *)
  let consistency, atomicity =
    Run_check.check
      ~sources:
        (List.concat
           [
             Array.to_list (Array.map Run_check.of_client clients);
             Array.to_list (Array.map Run_check.of_driver drivers);
             Array.to_list
               (Array.mapi
                  (fun g p -> Run_check.of_participant ~node:(g * n_replicas) p)
                  participants);
           ])
      ~views:(Array.map (fun r -> Replica_core.view r.Protocol.core) replicas)
      ~groups:n_groups ~group_of_replica
      ~txns:(Array.to_list routers |> List.concat_map Shard.Router.txn_reports)
  in
  let full_ring_sends = Array.map (fun s -> Transport.blocked s.tr) states in
  record_ring_metrics metrics states;
  Metrics.set_int metrics "live.queue.jumbo" (Transport.mesh_jumbo mesh);
  (* Allocation accounting covers the protocol-side domains (replicas
     and routers): the event-loop hot path the Gc guard pins. *)
  let alloc_words_per_op =
    let bytes = ref 0. in
    for i = 0 to client_base - 1 do
      bytes := !bytes +. states.(i).alloc_bytes
    done;
    let words = !bytes /. float_of_int (Sys.word_size / 8) in
    if ops > 0 then words /. float_of_int ops else 0.
  in
  Metrics.set_float metrics "live.alloc.words_per_op" alloc_words_per_op;
  if n_groups > 1 then begin
    let sum f = Array.fold_left (fun a r -> a + f r) 0 routers in
    Metrics.set_int metrics "live.shard.groups" n_groups;
    Metrics.set_int metrics "live.shard.forwarded" (sum Shard.Router.forwarded);
    Metrics.set_int metrics "live.shard.committed" (sum Shard.Router.committed);
    Metrics.set_int metrics "live.shard.aborted" (sum Shard.Router.aborted)
  end;
  let lease_reads =
    Array.fold_left ( + ) 0 (counts (fun r -> r.Protocol.lease_reads))
  in
  if spec.lease > 0 then Metrics.set_int metrics "live.lease.reads" lease_reads;
  (match load with
  | Some s ->
    let lp = Ci_load.Load_stats.latency_percentiles s in
    let sp = Ci_load.Load_stats.service_percentiles s in
    Metrics.set_int metrics "live.load.issued" (Ci_load.Load_stats.issued s);
    Metrics.set_int metrics "live.load.completed"
      (Ci_load.Load_stats.completed s);
    Metrics.set_int metrics "live.load.rejected"
      (Ci_load.Load_stats.rejected s);
    Metrics.set_int metrics "live.load.stale_reads"
      (Ci_load.Load_stats.stale_reads s);
    Metrics.set_int metrics "live.load.max_backlog"
      (Ci_load.Load_stats.max_backlog s);
    Metrics.set_float metrics "live.load.throughput"
      (Ci_load.Load_stats.throughput s);
    Metrics.set_int metrics "live.load.p50" lp.Ci_load.Load_stats.p50;
    Metrics.set_int metrics "live.load.p99" lp.Ci_load.Load_stats.p99;
    Metrics.set_int metrics "live.load.p999" lp.Ci_load.Load_stats.p999;
    Metrics.set_int metrics "live.load.service_p50" sp.Ci_load.Load_stats.p50;
    Metrics.set_int metrics "live.load.service_p99" sp.Ci_load.Load_stats.p99;
    Metrics.set_int metrics "live.load.service_p999" sp.Ci_load.Load_stats.p999
  | None -> ());
  Metrics.set_int metrics "live.ops" ops;
  Metrics.set_int metrics "live.retries" retries;
  Metrics.set_int metrics "live.queue.msgs" queues_total.q_msgs;
  Metrics.set_int metrics "live.queue.blocked" queues_total.q_blocked;
  Metrics.set_int metrics "live.queue.occupancy_peak"
    queues_total.q_occupancy_peak;
  Metrics.set_int metrics "live.queue.outbox_peak" queues_total.q_outbox_peak;
  Metrics.set_int metrics "live.queue.outbox_dropped"
    queues_total.q_outbox_dropped;
  let completions =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Run_stats.completions_in s ~from_:0 ~until_:t_quiesce)
            client_stats))
  in
  Array.sort compare completions;
  (* Wall-clock commit rates over the measured phase, 100 ms buckets
     (full buckets only) — the live twin of [Runner.result.timeline],
     so failover figures can overlay both backends. *)
  let timeline =
    let bucket = 100_000_000 in
    let counts = Array.make (t_quiesce / bucket) 0 in
    Array.iter
      (fun t ->
        let b = t / bucket in
        if b < Array.length counts then counts.(b) <- counts.(b) + 1)
      completions;
    Array.map (fun c -> float_of_int c *. 1e9 /. float_of_int bucket) counts
  in
  let failover =
    match Ci_faults.first_fault_at spec.nemesis with
    | Some fault_at when fault_at >= 0 && fault_at < t_quiesce ->
      Metrics.set_int metrics "live.faults.dropped"
        (Array.fold_left (fun acc s -> acc + s.n_fault_dropped) 0 states);
      Metrics.set_int metrics "live.faults.duplicated"
        (Array.fold_left (fun acc s -> acc + s.n_fault_duplicated) 0 states);
      let f =
        Ci_obs.Failover.analyze ~completions ~from_:0 ~fault_at
          ~until_:t_quiesce
      in
      Ci_obs.Failover.record metrics f;
      Some f
    | Some _ | None -> None
  in
  {
    spec;
    cores = Domain.recommended_domain_count ();
    wall_s;
    ops;
    throughput = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    latency = Summary.of_samples latencies;
    retries;
    leader_changes;
    acceptor_changes;
    retained =
      Array.of_list
        (List.filter_map (fun r -> r.Protocol.retained ()) (Array.to_list replicas));
    timeline;
    queues = queues_total;
    full_ring_sends;
    alloc_words_per_op;
    lease_reads;
    load;
    consistency;
    atomicity;
    metrics;
    failover;
  }

(* ---------- socket runner: processes over stream sockets ---------- *)

(* What a child process reports back over its control socket before
   exiting, through [Marshal]. The replica view carries the decided log
   itself, whose equality function is a closure: children are forks of
   the parent's executable, so [Marshal.Closures] round-trips it. *)
type harvest = {
  h_view : Wire.value Consistency.replica_view option; (* replicas *)
  h_leader_changes : int;
  h_acceptor_changes : int;
  h_retained : Ci_consensus.Onepaxos.retained option;
  h_lease_reads : int;
  h_client_node : int; (* clients: env node id *)
  h_issued : Command.t Ci_rsm.Vec.t;
  h_acked : int Ci_rsm.Vec.t;
  h_stats : Run_stats.t option;
  h_retries : int;
  h_events : int;
  h_blocked : int;
  h_outbox_dropped : int;
  h_outbox_peak : int;
  h_sent : int;
  h_full_kinds : (string * int) list;
  h_alloc_bytes : float;
}

(* One node of the mesh, running alone in a forked process: same
   node_state, same event loop, same protocol cores — only the
   transport and the phase control differ from the in-process runner.
   The parent drives phases with single control bytes ('q' quiesce,
   's' stop); the child answers with its marshalled harvest. *)
let socket_child spec ~id ~t0 ~fds ~ctl_fd =
  let n_replicas = spec.n_replicas in
  let client_base = n_replicas in
  let replica_ids = Array.init n_replicas Fun.id in
  let tr = Transport.socket_endpoint ~id ~fds ~outbox_cap:spec.outbox_cap in
  let st =
    fresh_state ~id ~tr ~nem_links:None
      ~nem_seed:(spec.nemesis.Ci_faults.seed + (id * 7919))
  in
  let env = env_for st ~t0 ~seed:(spec.seed + ((id + 1) * 1_000_003)) in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  Unix.set_nonblock ctl_fd;
  let ctl_buf = Bytes.create 1 in
  let ctl () =
    match Unix.read ctl_fd ctl_buf 0 1 with
    | 0 -> Atomic.set stop true (* parent died: shut down *)
    | _ -> (
      match Bytes.get ctl_buf 0 with
      | 'q' -> Atomic.set quiesce true
      | 's' -> Atomic.set stop true
      | _ -> ())
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let replica =
    if id < n_replicas then
      Some (Protocol.create spec.protocol (knobs spec) ~replicas:replica_ids env)
    else None
  in
  let stats = Run_stats.create ~bucket:(ms 10) in
  let client =
    if id >= client_base then begin
      let policy =
        {
          (Client.default_policy ~targets:replica_ids) with
          Client.timeout = spec.client_timeout;
          think = spec.think;
          read_ratio = spec.read_ratio;
          key_space = spec.key_space;
        }
      in
      Some (Client.create ~env ~policy ~stats)
    end
    else None
  in
  Option.iter (fun r -> st.handler <- r.Protocol.handle) replica;
  (match client with
  | Some c ->
    st.handler <-
      (fun ~src msg -> if not (Atomic.get quiesce) then Client.handle c ~src msg)
  | None -> ());
  let metrics = Metrics.create () in
  let m_work = Metrics.counter metrics "live.events" in
  let a0 = Gc.allocated_bytes () in
  (match replica with
  | Some r -> r.Protocol.start ()
  | None -> Option.iter Client.start client);
  event_loop ~ctl st ~t0 ~stop ~m_work;
  st.alloc_bytes <- Gc.allocated_bytes () -. a0;
  let count f = match replica with Some r -> f r () | None -> 0 in
  let harvest =
    {
      h_view = Option.map (fun r -> Replica_core.view r.Protocol.core) replica;
      h_leader_changes = count (fun r -> r.Protocol.leader_changes);
      h_acceptor_changes = count (fun r -> r.Protocol.acceptor_changes);
      h_retained = Option.bind replica (fun r -> r.Protocol.retained ());
      h_lease_reads = count (fun r -> r.Protocol.lease_reads);
      h_client_node =
        (match client with Some c -> Client.node_id c | None -> -1);
      h_issued =
        (match client with Some c -> Client.issued c | None -> Ci_rsm.Vec.create ());
      h_acked =
        (match client with
        | Some c -> Client.acked_writes c
        | None -> Ci_rsm.Vec.create ());
      h_stats = (match client with Some _ -> Some stats | None -> None);
      h_retries = (match client with Some c -> Client.retries c | None -> 0);
      h_events = Metrics.counter_value m_work;
      h_blocked = Transport.blocked tr;
      h_outbox_dropped = Transport.outbox_dropped tr;
      h_outbox_peak = Transport.outbox_peak tr;
      h_sent = Transport.sent tr;
      h_full_kinds = Transport.full_by_kind tr;
      h_alloc_bytes = st.alloc_bytes;
    }
  in
  Unix.clear_nonblock ctl_fd;
  let oc = Unix.out_channel_of_descr ctl_fd in
  Marshal.to_channel oc harvest [ Marshal.Closures ];
  flush oc

let run_socket spec =
  let n_replicas = spec.n_replicas and n_clients = spec.n_clients in
  let client_base = n_replicas in
  let n = n_replicas + n_clients in
  (* One stream socketpair per unordered pair of nodes, plus a control
     pair per node. All created before any fork, so every process
     inherits exactly the descriptors it needs and closes the rest. *)
  let mesh_fds = Array.init n (fun _ -> Array.make n None) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      mesh_fds.(i).(j) <- Some a;
      mesh_fds.(j).(i) <- Some b
    done
  done;
  let ctl = Array.init n (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t0 = Clock.now_ns () in
  flush stdout;
  flush stderr;
  let pids =
    Array.init n (fun id ->
        match Unix.fork () with
        | 0 ->
          (try
             for i = 0 to n - 1 do
               if i <> id then
                 Array.iter (Option.iter Unix.close) mesh_fds.(i)
             done;
             Array.iteri
               (fun j (pfd, cfd) ->
                 Unix.close pfd;
                 if j <> id then Unix.close cfd)
               ctl;
             socket_child spec ~id ~t0 ~fds:mesh_fds.(id)
               ~ctl_fd:(snd ctl.(id))
           with _ -> Unix._exit 2);
          Unix._exit 0
        | pid -> pid)
  in
  Array.iter (fun row -> Array.iter (Option.iter Unix.close) row) mesh_fds;
  Array.iter (fun (_, cfd) -> Unix.close cfd) ctl;
  let phase_byte c =
    let b = Bytes.make 1 c in
    Array.iter
      (fun (pfd, _) ->
        try ignore (Unix.write pfd b 0 1)
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> ())
      ctl
  in
  Unix.sleepf spec.duration_s;
  let t_quiesce = Clock.now_ns () - t0 in
  phase_byte 'q';
  Unix.sleepf spec.drain_s;
  phase_byte 's';
  let harvests =
    Array.map
      (fun (pfd, _) ->
        let ic = Unix.in_channel_of_descr pfd in
        match (Marshal.from_channel ic : harvest) with
        | h -> h
        | exception End_of_file ->
          failwith "Live.run: a socket-transport child died before reporting")
      ctl
  in
  Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Array.iter (fun (pfd, _) -> try Unix.close pfd with Unix.Unix_error _ -> ()) ctl;
  Sys.set_signal Sys.sigpipe old_sigpipe;
  (* Assembly: the same checks and shapes as the in-process runner,
     over the children's reports. *)
  let wall_s = float_of_int t_quiesce /. 1e9 in
  let client_harvests =
    Array.to_list harvests |> List.filteri (fun i _ -> i >= client_base)
  in
  let client_stats = List.filter_map (fun h -> h.h_stats) client_harvests in
  let ops =
    List.fold_left
      (fun acc s -> acc + Run_stats.completed_in s ~from_:0 ~until_:t_quiesce)
      0 client_stats
  in
  let latencies =
    Array.concat
      (List.map
         (fun s -> Run_stats.latencies_in s ~from_:0 ~until_:t_quiesce)
         client_stats)
  in
  let retries =
    List.fold_left (fun acc h -> acc + h.h_retries) 0 client_harvests
  in
  (* Clients harvest zero counts, which neither a max nor a sum sees. *)
  let leader_changes =
    Protocol.total_leader_changes spec.protocol
      (Array.map (fun h -> h.h_leader_changes) harvests)
  in
  let acceptor_changes =
    Array.fold_left (fun acc h -> max acc h.h_acceptor_changes) 0 harvests
  in
  let queues_total =
    {
      q_count = n * (n - 1);
      q_msgs = Array.fold_left (fun acc h -> acc + h.h_sent) 0 harvests;
      q_blocked = Array.fold_left (fun acc h -> acc + h.h_blocked) 0 harvests;
      q_occupancy_peak = 0; (* kernel-owned on this transport *)
      q_outbox_peak =
        Array.fold_left (fun acc h -> max acc h.h_outbox_peak) 0 harvests;
      q_outbox_dropped =
        Array.fold_left (fun acc h -> acc + h.h_outbox_dropped) 0 harvests;
    }
  in
  let consistency, _ =
    Run_check.check
      ~sources:
        (List.map
           (fun h ->
             { Run_check.node = h.h_client_node; issued = h.h_issued; acked = h.h_acked })
           client_harvests)
      ~views:(Array.of_list (List.filter_map (fun h -> h.h_view) (Array.to_list harvests)))
      ~groups:1 ~group_of_replica:Fun.id ~txns:[]
  in
  let metrics = Metrics.create () in
  let m_work = Metrics.counter metrics "live.events" in
  Metrics.add m_work (Array.fold_left (fun acc h -> acc + h.h_events) 0 harvests);
  let full_kinds = Hashtbl.create 8 in
  Array.iteri
    (fun i h ->
      Metrics.set_int metrics
        (Printf.sprintf "live.node%d.full_ring_sends" i)
        h.h_blocked;
      List.iter
        (fun (k, c) ->
          Hashtbl.replace full_kinds k
            (c + Option.value (Hashtbl.find_opt full_kinds k) ~default:0))
        h.h_full_kinds)
    harvests;
  Hashtbl.iter
    (fun k c -> Metrics.set_int metrics ("live.ring.full." ^ k) c)
    full_kinds;
  let alloc_words_per_op =
    let bytes = ref 0. in
    for i = 0 to client_base - 1 do
      bytes := !bytes +. harvests.(i).h_alloc_bytes
    done;
    let words = !bytes /. float_of_int (Sys.word_size / 8) in
    if ops > 0 then words /. float_of_int ops else 0.
  in
  Metrics.set_float metrics "live.alloc.words_per_op" alloc_words_per_op;
  Metrics.set_int metrics "live.ops" ops;
  Metrics.set_int metrics "live.retries" retries;
  Metrics.set_int metrics "live.queue.msgs" queues_total.q_msgs;
  Metrics.set_int metrics "live.queue.blocked" queues_total.q_blocked;
  Metrics.set_int metrics "live.queue.outbox_peak" queues_total.q_outbox_peak;
  Metrics.set_int metrics "live.queue.outbox_dropped"
    queues_total.q_outbox_dropped;
  let completions =
    Array.concat
      (List.map
         (fun s -> Run_stats.completions_in s ~from_:0 ~until_:t_quiesce)
         client_stats)
  in
  Array.sort compare completions;
  let timeline =
    let bucket = 100_000_000 in
    let counts = Array.make (t_quiesce / bucket) 0 in
    Array.iter
      (fun t ->
        let b = t / bucket in
        if b < Array.length counts then counts.(b) <- counts.(b) + 1)
      completions;
    Array.map (fun c -> float_of_int c *. 1e9 /. float_of_int bucket) counts
  in
  {
    spec;
    cores = Domain.recommended_domain_count ();
    wall_s;
    ops;
    throughput = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    latency = Summary.of_samples latencies;
    retries;
    leader_changes;
    acceptor_changes;
    retained =
      Array.of_list (List.filter_map (fun h -> h.h_retained) (Array.to_list harvests));
    timeline;
    queues = queues_total;
    full_ring_sends = Array.map (fun h -> h.h_blocked) harvests;
    alloc_words_per_op;
    lease_reads =
      Array.fold_left (fun acc h -> acc + h.h_lease_reads) 0 harvests;
    load = None;
    consistency;
    atomicity = None;
    metrics;
    failover = None;
  }

let run spec =
  validate spec;
  match spec.transport with Spsc -> run_inproc spec | Socket -> run_socket spec
