module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Consistency = Ci_rsm.Consistency
module Protocol = Ci_consensus.Protocol
module Deployment = Ci_workload.Deployment
module Run_stats = Ci_load.Run_stats
module Metrics = Ci_obs.Metrics
module Summary = Ci_stats.Summary
module Atomicity = Ci_rsm.Atomicity
module Pool = Ci_workload.Pool

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
   worker domain (or, on the socket transport, its process) once
   started; the main domain builds it beforehand and reads it back only
   after every node's loop has finished. All message traffic goes
   through [tr] — the endpoint hides whether the bytes cross SPSC slots
   or a kernel socket. *)
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
  mutable idle_sleeps : int;
  mutable idle_sleep_ns : int; (* wall time those sleeps took *)
  mutable timer_slack_ns : int; (* the slack the loop ran with *)
}


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

let duration_ns spec = int_of_float (spec.duration_s *. 1e9)

(* The system under test, whichever transport carries it: client
   domains (or processes) each own their sinks, measured over the whole
   measured phase. *)
let config spec =
  {
    Deployment.protocol = spec.protocol;
    knobs = knobs spec;
    groups = spec.groups;
    replicas = spec.n_replicas;
    clients = spec.n_clients;
    joint = false;
    timeout = spec.client_timeout;
    closed_loop =
      {
        Ci_load.Open_client.think = spec.think;
        read_ratio = spec.read_ratio;
        cross_shard_ratio = spec.cross_shard_ratio;
        key_space = spec.key_space;
      };
    open_loop = spec.open_loop;
    window = (0, duration_ns spec);
    bucket = ms 10;
    shared_sinks = false;
  }

let validate spec =
  if spec.n_replicas < 2 then invalid_arg "Live.run: need >= 2 replicas";
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
  if spec.outbox_cap < 1 then invalid_arg "Live.run: outbox_cap must be >= 1";
  Deployment.validate ~who:"Live.run" ~nemesis:spec.nemesis (config spec);
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

(* Linux lets a sleep overrun by the thread's timer slack, 50 µs by
   default, so the 50 µs idle sleep used to last about 105 µs, and a
   closed-loop op pays one such wake-up per hop it waits on. A node loop
   runs with 1 µs of slack and gives the thread its old value back. *)
let loop_timer_slack_ns = 1_000

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
   profile.) One clock read per iteration serves the nemesis, the
   timers, the phase control [ctl] and the idle-sleep accounting: the
   read after a sleep closes it. *)
let run_loop ctl st ~t0 ~stop ~m_work =
  let idle = ref 0 in
  let slept_at = ref (-1) in
  while not (Atomic.get stop) do
    let now = Clock.now_ns () - t0 in
    if !slept_at >= 0 then begin
      st.idle_sleeps <- st.idle_sleeps + 1;
      st.idle_sleep_ns <- st.idle_sleep_ns + (now - !slept_at);
      slept_at := -1
    end;
    ctl now;
    (* Nemesis transitions due at this instant, applied by the owning
       domain itself — crash/restart never race the handler. *)
    (match st.nem with None -> () | Some c -> nem_transitions c now);
    match st.nem with
    | Some { mode = Down | Paused; _ } ->
      (* Dead or stopped: touch nothing — inbound queues fill up and the
         senders' capped outboxes absorb (then shed) the backlog, which
         is exactly what a peer of a dead process sees. Sleep instead of
         spinning; the only thing to watch for is the next transition. *)
      slept_at := now;
      Unix.sleepf idle_sleep_s
    | _ ->
      (* 1. Retry parked sends; 2. collapsed-role self deliveries;
         3. drain inbound, budgeted per source; 4. due timers. *)
      let work = Transport.flush st.tr in
      let work = work + run_selfq st 0 in
      let work = work + Transport.drain st.tr st.handler in
      let work = work + Timer_wheel.run_due st.timers ~now in
      if work > 0 then begin
        idle := 0;
        Metrics.add m_work work
      end
      else begin
        incr idle;
        if !idle <= spin_budget then Domain.cpu_relax ()
        else begin
          slept_at := now;
          Unix.sleepf idle_sleep_s
        end
      end
  done

(* [ctl now], when given, runs on every iteration with its clock read:
   the out-of-band phase control of the node that drives the run's
   phases. Restoring the thread's slack reads back the one the loop ran
   with. *)
let event_loop ?(ctl = ignore) st ~t0 ~stop ~m_work =
  let slack = Clock.set_timer_slack_ns loop_timer_slack_ns in
  Fun.protect
    ~finally:(fun () -> st.timer_slack_ns <- Clock.set_timer_slack_ns slack)
    (fun () -> run_loop ctl st ~t0 ~stop ~m_work)

(* Sender-side link rules of node [src], indexed by destination; [None]
   when the schedule has none from [src], so the fault-free send path
   stays untouched. *)
let link_rules spec ~n src =
  let mine =
    List.filter (fun r -> r.Ci_faults.l_src = src) (Ci_faults.link_rules spec.nemesis)
  in
  if mine = [] then None
  else begin
    let per_dst = Array.make n [] in
    List.iter
      (fun r -> per_dst.(r.Ci_faults.l_dst) <- r :: per_dst.(r.Ci_faults.l_dst))
      mine;
    Array.map_inplace List.rev per_dst;
    Some per_dst
  end

let node_state spec ~n ~id ~tr =
  {
    id;
    tr;
    selfq = Queue.create ();
    timers = Timer_wheel.create ();
    handler = (fun ~src:_ _ -> ());
    nem_links = link_rules spec ~n id;
    nem_rng = Rng.create ~seed:(spec.nemesis.Ci_faults.seed + (id * 7919));
    nem = None;
    n_fault_dropped = 0;
    n_fault_duplicated = 0;
    alloc_bytes = 0.;
    idle_sleeps = 0;
    idle_sleep_ns = 0;
    timer_slack_ns = 0;
  }

(* Node [i]'s crash/pause timeline. The closures run inside the node's
   own event loop (step 0), so crash, recovery and message processing
   never race. *)
let attach_nemesis spec d st ~env =
  let mine = ref [] in
  let add t tr = mine := (t, tr) :: !mine in
  List.iter
    (fun c ->
      if c.Ci_faults.c_node = st.id then begin
        add c.Ci_faults.c_at `Crash;
        Option.iter (fun down -> add (c.Ci_faults.c_at + down) `Restart) c.c_restart
      end)
    (Ci_faults.crashes spec.nemesis);
  List.iter
    (fun p ->
      if p.Ci_faults.p_node = st.id then begin
        add p.Ci_faults.p_from `Pause;
        add p.Ci_faults.p_until `Resume
      end)
    (Ci_faults.pauses spec.nemesis);
  if !mine <> [] then begin
    let restart = ref None in
    let on_crash () =
      (* The durable registers survive (modeled fsync); the mailbox,
         parked sends, armed timers and the handler die with the
         process. *)
      restart := Deployment.crash d st.id;
      Queue.clear st.selfq;
      Transport.clear_outboxes st.tr;
      st.timers <- Timer_wheel.create ();
      st.handler <- (fun ~src:_ _ -> ())
    in
    let on_restart () =
      st.timers <- Timer_wheel.create ();
      Option.iter (fun restart -> restart (env st.id)) !restart
    in
    st.nem <-
      Some { transitions = List.sort compare !mine; mode = Up; on_crash; on_restart }
  end

(* Build the deployment's roles on [state i]'s node (every node, or
   only [node]) and attach each built node's nemesis. Quiesced client
   nodes stop consuming replies, so they issue nothing new and record
   nothing outside the measured phase. *)
let deploy ?node spec ~state ~t0 ~quiesce =
  let cfg = config spec in
  let base = Deployment.client_base cfg in
  let env i = env_for (state i) ~t0 ~seed:(spec.seed + ((i + 1) * 1_000_003)) in
  let install i h =
    (state i).handler <-
      (if i < base then h
       else fun ~src msg -> if not (Atomic.get quiesce) then h ~src msg)
  in
  let d = Deployment.build ?node cfg ~env ~install in
  for i = 0 to Deployment.n_nodes cfg - 1 do
    if node = None || node = Some i then attach_nemesis spec d (state i) ~env
  done;
  d

(* What one node reports after its event loop stops: the deployment's
   view of it plus its endpoint's counters. A socket child sends it
   back through [Marshal]; the replica view carries the decided log,
   whose equality function is a closure, and children are forks of the
   parent's executable, so [Marshal.Closures] round-trips it. *)
type node_report = {
  dep : Deployment.report;
  events : int;
  blocked : int;
  outbox_dropped : int;
  outbox_peak : int;
  sent : int;
  full_kinds : (string * int) list;
  alloc_bytes : float;
  fault_dropped : int;
  fault_duplicated : int;
  idle_sleeps : int;
  idle_sleep_ns : int;
  timer_slack_ns : int;
}

let node_report st dep ~events =
  {
    dep;
    events;
    blocked = Transport.blocked st.tr;
    outbox_dropped = Transport.outbox_dropped st.tr;
    outbox_peak = Transport.outbox_peak st.tr;
    sent = Transport.sent st.tr;
    full_kinds = Transport.full_by_kind st.tr;
    alloc_bytes = st.alloc_bytes;
    fault_dropped = st.n_fault_dropped;
    fault_duplicated = st.n_fault_duplicated;
    idle_sleeps = st.idle_sleeps;
    idle_sleep_ns = st.idle_sleep_ns;
    timer_slack_ns = st.timer_slack_ns;
  }

(* The result of either transport, from its nodes' reports.
   [links] is (queue count, messages carried, ring occupancy peak). *)
let finish spec ~t_quiesce ~links:(q_count, q_msgs, q_occupancy_peak) ?jumbo
    (nodes : node_report array) =
  let cfg = config spec in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 nodes in
  let peak f = Array.fold_left (fun acc r -> max acc (f r)) 0 nodes in
  let metrics = Metrics.create () in
  Metrics.add (Metrics.counter metrics "live.events") (sum (fun r -> r.events));
  let o =
    Deployment.assemble cfg ~nemesis:spec.nemesis ~prefix:"live." ~metrics
      ~until_:t_quiesce
      ~faults:(sum (fun r -> r.fault_dropped), sum (fun r -> r.fault_duplicated))
      (Array.to_list (Array.map (fun r -> r.dep) nodes))
  in
  let ops =
    Run_stats.completed_in o.Deployment.stats ~from_:0 ~until_:t_quiesce
    + Option.fold ~none:0 ~some:Ci_load.Load_stats.completed o.Deployment.load
  in
  (* [full_by_kind] answers "which message kind hit the full ring"
     without a perf run. *)
  let full_kinds = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      Metrics.set_int metrics (Printf.sprintf "live.node%d.full_ring_sends" i) r.blocked;
      List.iter
        (fun (k, c) ->
          Hashtbl.replace full_kinds k
            (c + Option.value (Hashtbl.find_opt full_kinds k) ~default:0))
        r.full_kinds)
    nodes;
  Hashtbl.iter
    (fun k c -> Metrics.set_int metrics ("live.ring.full." ^ k) c)
    full_kinds;
  Option.iter (Metrics.set_int metrics "live.queue.jumbo") jumbo;
  (* Allocation accounting covers the protocol-side nodes (replicas and
     routers): the event-loop hot path the Gc guard pins. *)
  let alloc_words_per_op =
    let bytes = ref 0. in
    for i = 0 to Deployment.client_base cfg - 1 do
      bytes := !bytes +. nodes.(i).alloc_bytes
    done;
    let words = !bytes /. float_of_int (Sys.word_size / 8) in
    if ops > 0 then words /. float_of_int ops else 0.
  in
  let queues =
    {
      q_count;
      q_msgs;
      q_blocked = sum (fun r -> r.blocked);
      q_occupancy_peak;
      q_outbox_peak = peak (fun r -> r.outbox_peak);
      q_outbox_dropped = sum (fun r -> r.outbox_dropped);
    }
  in
  Metrics.set_float metrics "live.alloc.words_per_op" alloc_words_per_op;
  Metrics.set_int metrics "live.ops" ops;
  Metrics.set_int metrics "live.retries" o.Deployment.retries;
  Metrics.set_int metrics "live.queue.msgs" queues.q_msgs;
  Metrics.set_int metrics "live.queue.blocked" queues.q_blocked;
  Metrics.set_int metrics "live.queue.occupancy_peak" queues.q_occupancy_peak;
  Metrics.set_int metrics "live.queue.outbox_peak" queues.q_outbox_peak;
  Metrics.set_int metrics "live.queue.outbox_dropped" queues.q_outbox_dropped;
  let sleeps = sum (fun r -> r.idle_sleeps) in
  Metrics.set_int metrics "live.idle.sleeps" sleeps;
  Metrics.set_float metrics "live.idle.sleep_us_mean"
    (if sleeps > 0 then float_of_int (sum (fun r -> r.idle_sleep_ns)) /. float_of_int sleeps /. 1e3
     else 0.);
  Metrics.set_int metrics "live.idle.timer_slack_ns" (peak (fun r -> r.timer_slack_ns));
  let wall_s = float_of_int t_quiesce /. 1e9 in
  {
    spec;
    cores = Domain.recommended_domain_count ();
    wall_s;
    ops;
    throughput = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    latency =
      Summary.of_samples
        (Run_stats.latencies_in o.Deployment.stats ~from_:0 ~until_:t_quiesce);
    retries = o.Deployment.retries;
    leader_changes = o.Deployment.leader_changes;
    acceptor_changes = o.Deployment.acceptor_changes;
    retained = o.Deployment.retained;
    timeline = o.Deployment.timeline;
    queues;
    full_ring_sends = Array.map (fun r -> r.blocked) nodes;
    alloc_words_per_op;
    lease_reads = o.Deployment.lease_reads;
    load = o.Deployment.load;
    consistency = o.Deployment.consistency;
    atomicity = o.Deployment.atomicity;
    metrics;
    failover = o.Deployment.failover;
  }

(* ---------- in-process transport: domains over byte rings ---------- *)

let run_inproc spec =
  let n = Deployment.n_nodes (config spec) in
  (* The mesh: mesh.(dst).(src) carries src -> dst as encoded bytes. *)
  let mesh =
    Transport.rings_mesh ~n ~slots:spec.queue_slots ~slot_size:spec.slot_size
  in
  let states =
    Array.init n (fun id ->
        node_state spec ~n ~id
          ~tr:(Transport.rings_endpoint mesh ~id ~outbox_cap:spec.outbox_cap))
  in
  let t0 = Clock.now_ns () in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  let d = deploy spec ~state:(Array.get states) ~t0 ~quiesce in
  let work = Array.init n (fun _ -> Metrics.counter (Metrics.create ()) "live.events") in
  let node ?ctl i () =
    let a0 = Gc.allocated_bytes () in
    Deployment.start ~node:i d;
    event_loop ?ctl states.(i) ~t0 ~stop ~m_work:work.(i);
    (* [Gc.allocated_bytes] is domain-local; the delta is what this
       node's whole lifetime allocated, written before the gang
       completes so the main domain can read it afterwards. *)
    states.(i).alloc_bytes <- Gc.allocated_bytes () -. a0
  in
  (* The caller runs the last node, a client, and its loop drives the
     phases: quiesce [duration_s] after it starts, stop [drain_s]
     later. *)
  let drain_ns = int_of_float (spec.drain_s *. 1e9) in
  let t_quiesce = ref 0 in
  let host () =
    let quiesce_at = Clock.now_ns () - t0 + duration_ns spec in
    let ctl now =
      if not (Atomic.get quiesce) then begin
        if now >= quiesce_at then begin
          t_quiesce := now;
          Atomic.set quiesce true
        end
      end
      else if now >= !t_quiesce + drain_ns then Atomic.set stop true
    in
    node ~ctl (n - 1) ()
  in
  (* The other nodes run as one gang of pool workers, a loop each: the
     loops wait on each other's messages, so each needs a domain of its
     own. *)
  Pool.run_gang
    (Array.init (n - 1) (fun i -> node i))
    ~caller:host
    ~abort:(fun () -> Atomic.set stop true);
  let t_quiesce = !t_quiesce in
  (* Everything below reads domain-owned state after the gang completed. *)
  let nodes =
    Array.of_list
      (List.mapi
         (fun i dep ->
           node_report states.(i) dep ~events:(Metrics.counter_value work.(i)))
         (Deployment.reports d))
  in
  finish spec ~t_quiesce
    ~links:
      ( Transport.mesh_queue_count mesh,
        Transport.mesh_msgs mesh,
        Transport.mesh_occupancy_peak mesh )
    ~jumbo:(Transport.mesh_jumbo mesh) nodes

(* ---------- socket transport: processes over stream sockets ---------- *)

(* One node of the mesh, running alone in a forked process: same
   node_state, same event loop, same deployment — only the transport
   and the phase control differ from the in-process runner. The parent
   drives phases with single control bytes ('q' quiesce, 's' stop); the
   child answers with its marshalled report. *)
let socket_child spec ~n ~id ~t0 ~fds ~ctl_fd =
  let st =
    node_state spec ~n ~id
      ~tr:(Transport.socket_endpoint ~id ~fds ~outbox_cap:spec.outbox_cap)
  in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  let ctl_buf = Bytes.create 1 in
  let ctl_fds = [ ctl_fd ] in
  (* A zero-timeout select at most once per idle sleep: the idle poll
     reads nothing and raises nothing, and a ready fd's read cannot
     block. *)
  let poll_every = int_of_float (idle_sleep_s *. 1e9) in
  let next_poll = ref 0 in
  let ctl now =
    if now >= !next_poll then begin
      next_poll := now + poll_every;
      match Unix.select ctl_fds [] [] 0. with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read ctl_fd ctl_buf 0 1 with
        | 0 -> Atomic.set stop true (* parent died: shut down *)
        | _ -> (
          match Bytes.get ctl_buf 0 with
          | 'q' -> Atomic.set quiesce true
          | 's' -> Atomic.set stop true
          | _ -> ())
        | exception Unix.Unix_error (EINTR, _, _) -> ())
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  in
  let d = deploy ~node:id spec ~state:(fun _ -> st) ~t0 ~quiesce in
  let m_work = Metrics.counter (Metrics.create ()) "live.events" in
  let a0 = Gc.allocated_bytes () in
  Deployment.start d;
  event_loop ~ctl st ~t0 ~stop ~m_work;
  st.alloc_bytes <- Gc.allocated_bytes () -. a0;
  let report =
    node_report st
      (List.hd (Deployment.reports d))
      ~events:(Metrics.counter_value m_work)
  in
  let oc = Unix.out_channel_of_descr ctl_fd in
  Marshal.to_channel oc report [ Marshal.Closures ];
  flush oc

let run_socket spec =
  let n = Deployment.n_nodes (config spec) in
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
             socket_child spec ~n ~id ~t0 ~fds:mesh_fds.(id)
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
  let nodes =
    Array.map
      (fun (pfd, _) ->
        let ic = Unix.in_channel_of_descr pfd in
        match (Marshal.from_channel ic : node_report) with
        | r -> r
        | exception End_of_file ->
          failwith "Live.run: a socket-transport child died before reporting")
      ctl
  in
  Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Array.iter (fun (pfd, _) -> try Unix.close pfd with Unix.Unix_error _ -> ()) ctl;
  Sys.set_signal Sys.sigpipe old_sigpipe;
  (* The kernel owns the socket buffers: no occupancy to report. *)
  finish spec ~t_quiesce
    ~links:(n * (n - 1), Array.fold_left (fun acc r -> acc + r.sent) 0 nodes, 0)
    nodes

let run spec =
  validate spec;
  match spec.transport with Spsc -> run_inproc spec | Socket -> run_socket spec
