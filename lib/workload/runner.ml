module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Cpu = Ci_machine.Cpu
module Sim = Ci_engine.Sim
module Sim_time = Ci_engine.Sim_time
module Metrics = Ci_obs.Metrics
module Consistency = Ci_rsm.Consistency
module Protocol = Ci_consensus.Protocol
module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Run_stats = Ci_load.Run_stats

type protocol = Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos

type placement =
  | Dedicated of { n_replicas : int; n_clients : int }
  | Joint of { n_nodes : int }

type open_loop = Deployment.open_loop = {
  arrival : Ci_load.Arrival.spec;
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Ci_load.Open_client.mix;
  range_span : int;
  population : int;
  sessions : int;
}

let default_open_loop = Deployment.default_open_loop

type spec = {
  protocol : protocol;
  placement : placement;
  groups : int;
  cross_shard_ratio : float;
  topology : Topology.t;
  params : Net_params.t;
  duration : int;
  warmup : int;
  drain : int;
  seed : int;
  read_ratio : float;
  relaxed_reads : bool;
  local_reads : bool;
  think : int;
  timeout : int;
  nemesis : Ci_faults.t;
  bucket : int;
  colocate_acceptor : bool;
  batch : int;
  batch_delay : int;
  pipeline : int;
  lease : int;
  lease_skew : int;
  open_loop : open_loop option;
  trace : Ci_obs.Event.ring option;
}

let default_spec ~protocol ~placement =
  {
    protocol;
    placement;
    groups = 1;
    cross_shard_ratio = 0.;
    topology = Topology.opteron_48;
    params = Net_params.multicore;
    duration = Sim_time.ms 50;
    warmup = Sim_time.ms 5;
    drain = Sim_time.ms 5;
    seed = 42;
    read_ratio = 0.;
    relaxed_reads = false;
    local_reads = false;
    think = 0;
    timeout = Sim_time.ms 2;
    nemesis = Ci_faults.empty;
    bucket = Sim_time.ms 10;
    colocate_acceptor = false;
    batch = 1;
    batch_delay = Sim_time.us 5;
    pipeline = 0;
    lease = 0;
    lease_skew = 0;
    open_loop = None;
    trace = None;
  }

type window_counts = {
  w_messages : int;
  w_sends : int;
  w_self : int;
  w_retries : int;
  w_replies : int;
}

type window_split = {
  warmup_w : window_counts;
  measure_w : window_counts;
  drain_w : window_counts;
}

type core_usage = {
  u_core : int;
  u_busy_ns : int;
  u_util : float;
  u_queue_peak : int;
  u_slowed_ns : int;
}

type result = {
  commits : int;
  total_replies : int;
  throughput : float;
  latency : Ci_stats.Summary.t;
  timeline : float array;
  messages : int;
  messages_total : int;
  self_delivered : int;
  self_delivered_total : int;
  retries : int;
  retries_total : int;
  windows : window_split;
  cores : core_usage list;
  leader_changes : int;
  leader_changes_sum : int;
  acceptor_changes : int;
  acceptor_changes_sum : int;
  sim_events : int;
  lease_reads : int;
  load : Ci_load.Load_stats.t option;
  metrics : Metrics.t;
  consistency : Consistency.report;
  atomicity : Ci_rsm.Atomicity.report option;
  failover : Ci_obs.Failover.t option;
}

(* One instant's view of every cumulative counter — taken at the window
   boundaries from inside the simulation. *)
type snap = {
  s_delivered : int;
  s_sent : int;
  s_self : int;
  s_retries : int;
  s_replies : int;
  s_io : (int * int * int) array; (* per node: sent, received, self *)
  s_busy : int array; (* per core: elapsed occupation ns *)
}

(* Per-replica nemesis bookkeeping. [alive] is the {e current}
   incarnation's liveness cell — a crash flips the cell the dead
   incarnation's timers were gated on, a restart installs a fresh cell,
   so stale timers can never act for their successor. *)
type nem_state = {
  mutable alive : bool ref;
  mutable paused : bool;
  pending : (unit -> unit) Queue.t;
      (** Messages and timer thunks deferred while paused, replayed in
          arrival order at resume (SIGCONT drains the backlog). *)
  mutable restart : (Protocol.env -> unit) option;
      (** Set at the crash instant: rebuilds the replica from the
          durable registers captured then. *)
}

(* Gate a node environment for one incarnation: timers of a dead
   incarnation never fire, timers of a paused one are deferred. Sends
   need no gate — they only originate from handlers and timers, both of
   which are gated. *)
let gate_env (base : Wire.t Node_env.t) st alive =
  let wrap f () =
    if !alive then if st.paused then Queue.add f st.pending else f ()
  in
  {
    base with
    Node_env.after = (fun ~delay f -> base.Node_env.after ~delay (wrap f));
    after_cancel = (fun ~delay f -> base.Node_env.after_cancel ~delay (wrap f));
  }

let run spec =
  let n_cores = Topology.n_cores spec.topology in
  let n_replicas, n_clients, joint =
    match spec.placement with
    | Dedicated { n_replicas; n_clients } -> (n_replicas, n_clients, false)
    | Joint { n_nodes } -> (n_nodes, n_nodes, true)
  in
  let fail m = invalid_arg ("Runner.run: " ^ m) in
  if spec.duration <= 0 then fail "duration must be > 0";
  if spec.warmup < 0 || spec.drain < 0 then fail "warmup and drain must be >= 0";
  if spec.params.Net_params.coalesce < 1 then fail "coalesce must be >= 1";
  let w0 = spec.warmup and w1 = spec.warmup + spec.duration in
  let horizon = w1 + spec.drain in
  (* Protocol timeouts scale with the network round trip; one hop costs
     send + prop + recv + handler. *)
  let hop =
    spec.params.Net_params.send_cost + spec.params.Net_params.prop_inter
    + spec.params.Net_params.recv_cost + spec.params.Net_params.handler_cost
  in
  let config =
    {
      Deployment.protocol = spec.protocol;
      knobs =
        {
          Protocol.rtt = 2 * hop;
          relaxed_reads = spec.relaxed_reads;
          local_reads = spec.local_reads;
          lease = spec.lease;
          lease_skew = spec.lease_skew;
          batch = spec.batch;
          batch_delay = spec.batch_delay;
          window = spec.pipeline;
          colocate_acceptor = spec.colocate_acceptor;
          unsafe_stale_adoption = false;
        };
      groups = spec.groups;
      replicas = n_replicas;
      clients = n_clients;
      joint;
      timeout = spec.timeout;
      closed_loop =
        {
          Ci_load.Open_client.think = spec.think;
          read_ratio = spec.read_ratio;
          cross_shard_ratio = spec.cross_shard_ratio;
          key_space = 64 (* every simulated figure's keyspace *);
        };
      open_loop = spec.open_loop;
      window = (w0, w1);
      bucket = spec.bucket;
      shared_sinks = true;
    }
  in
  Deployment.validate ~who:"Runner.run" ~nemesis:spec.nemesis config;
  let total_replicas = Deployment.total_replicas config in
  if total_replicas > n_cores then fail "more replicas than cores";
  let has_crashpause =
    Ci_faults.crashes spec.nemesis <> [] || Ci_faults.pauses spec.nemesis <> []
  in
  (match Ci_faults.validate ~n_cores ~n_nodes:total_replicas spec.nemesis with
  | Ok () -> ()
  | Error e -> fail ("nemesis: " ^ e));
  let machine =
    Machine.create ~seed:spec.seed ~topology:spec.topology ~params:spec.params ()
  in
  (* Replicas occupy cores 0..R-1, like the paper's taskset layout.
     Sharded runs lay groups out group-major over the same contiguous
     range, so group g spans cores [g*R, (g+1)*R): with the Topology's
     socket structure, growing the socket count spreads whole groups
     across sockets — exactly what the shards figure sweeps. Routers and
     clients share the cores after the replicas. *)
  let tail_cores = n_cores - total_replicas in
  let nodes =
    Array.init (Deployment.n_nodes config) (fun i ->
        if i < total_replicas then Machine.add_node machine ~core:i
        else if tail_cores < 1 then fail "no cores left for clients"
        else
          Machine.add_node machine
            ~core:(total_replicas + ((i - total_replicas) mod tail_cores)))
  in
  let nem =
    Array.init total_replicas (fun _ ->
        { alive = ref true; paused = false; pending = Queue.create (); restart = None })
  in
  (* Environments and handlers are wrapped only under a crash/pause
     schedule: the empty-nemesis path hands protocols the machine's own
     environment, untouched. A wrapped handler buffers while paused. *)
  let gated i = has_crashpause && i < total_replicas in
  let env i =
    let base = Machine.env nodes.(i) in
    if gated i then gate_env base nem.(i) nem.(i).alive else base
  in
  let install i h =
    if gated i then
      let st = nem.(i) in
      Machine.set_handler nodes.(i) (fun ~src msg ->
          if st.paused then Queue.add (fun () -> h ~src msg) st.pending
          else h ~src msg)
    else Machine.set_handler nodes.(i) h
  in
  let d = Deployment.build config ~env ~install in
  (* Typed observability: record trace events when the caller supplied a
     ring, labelling message events with their wire constructor names. *)
  Machine.set_observer ~msg_label:Wire.kind machine spec.trace;
  let do_crash ~node:i =
    let st = nem.(i) in
    st.restart <- Deployment.crash d i;
    st.alive := false;
    st.paused <- false;
    Queue.clear st.pending;
    Machine.set_node_down nodes.(i) true
  in
  let do_restart ~node:i =
    let st = nem.(i) in
    Machine.set_node_down nodes.(i) false;
    let alive = ref true in
    st.alive <- alive;
    Option.iter
      (fun restart -> restart (gate_env (Machine.env nodes.(i)) st alive))
      st.restart
  in
  let do_pause ~node:i =
    nem.(i).paused <- true;
    Machine.note_phase nodes.(i) ~phase:"paused"
  in
  let do_resume ~node:i =
    let st = nem.(i) in
    if st.paused then begin
      st.paused <- false;
      Machine.note_phase nodes.(i) ~phase:"resumed";
      while not (Queue.is_empty st.pending) do
        (Queue.pop st.pending) ()
      done
    end
  in
  Nemesis.install machine ~nemesis:spec.nemesis ~crash:do_crash
    ~restart:do_restart ~pause:do_pause ~resume:do_resume;
  Deployment.start d;
  (* Counter snapshots at the window boundaries, taken from inside the
     simulation so every count is confined to its window (previously
     [messages] and [retries] covered the whole run while [commits]
     covered only [w0, w1) — the window-skew bug). *)
  let take_snap () =
    {
      s_delivered = Machine.total_messages machine;
      s_sent = Machine.messages_sent_total machine;
      s_self = Machine.self_delivered_total machine;
      s_retries = Deployment.retries d;
      s_replies = Deployment.replies d;
      s_io = Machine.io_snapshot machine;
      s_busy =
        Array.init n_cores (fun c -> Cpu.busy_elapsed (Machine.cpu machine ~core:c));
    }
  in
  let snap0 = ref None and snap1 = ref None in
  let sim = Machine.sim machine in
  Sim.schedule_at sim ~time:w0 (fun () -> snap0 := Some (take_snap ()));
  Sim.schedule_at sim ~time:w1 (fun () -> snap1 := Some (take_snap ()));
  Machine.run_until machine ~time:horizon;
  (* Measurements. *)
  let n_nodes = Machine.n_nodes machine in
  let zero_snap =
    {
      s_delivered = 0;
      s_sent = 0;
      s_self = 0;
      s_retries = 0;
      s_replies = 0;
      s_io = Array.make n_nodes (0, 0, 0);
      s_busy = Array.make n_cores 0;
    }
  in
  let s_end = take_snap () in
  let s0 = Option.value !snap0 ~default:s_end in
  let s1 = Option.value !snap1 ~default:s_end in
  let window_diff a b =
    {
      w_messages = b.s_delivered - a.s_delivered;
      w_sends = b.s_sent - a.s_sent;
      w_self = b.s_self - a.s_self;
      w_retries = b.s_retries - a.s_retries;
      w_replies = b.s_replies - a.s_replies;
    }
  in
  let windows =
    {
      warmup_w = window_diff zero_snap s0;
      measure_w = window_diff s0 s1;
      drain_w = window_diff s1 s_end;
    }
  in
  let used_cores =
    Array.to_list nodes |> List.map Machine.core_of |> List.sort_uniq compare
  in
  let cores =
    List.map
      (fun c ->
        let cpu = Machine.cpu machine ~core:c in
        let busy = s1.s_busy.(c) - s0.s_busy.(c) in
        {
          u_core = c;
          u_busy_ns = busy;
          u_util = float_of_int busy /. float_of_int spec.duration;
          u_queue_peak = Cpu.queue_peak cpu;
          u_slowed_ns = Cpu.slowed_total cpu;
        })
      used_cores
  in
  (* Metrics registry: every number the tables rest on, keyed
     hierarchically. *)
  let metrics = Metrics.create () in
  let set_window prefix w =
    Metrics.set_int metrics (prefix ^ ".messages") w.w_messages;
    Metrics.set_int metrics (prefix ^ ".sends") w.w_sends;
    Metrics.set_int metrics (prefix ^ ".self") w.w_self;
    Metrics.set_int metrics (prefix ^ ".retries") w.w_retries;
    Metrics.set_int metrics (prefix ^ ".replies") w.w_replies
  in
  set_window "warmup" windows.warmup_w;
  set_window "measure" windows.measure_w;
  set_window "drain" windows.drain_w;
  Metrics.set_int metrics "messages.total" s_end.s_delivered;
  Metrics.set_int metrics "self.total" s_end.s_self;
  Metrics.set_int metrics "retries.total" s_end.s_retries;
  for id = 0 to n_nodes - 1 do
    let sent_of (s, _, _) = s and recv_of (_, r, _) = r and self_of (_, _, x) = x in
    let win name f =
      Metrics.set_int metrics (Printf.sprintf "node%d.%s.warmup" id name) (f s0.s_io.(id));
      Metrics.set_int metrics
        (Printf.sprintf "node%d.%s.measure" id name)
        (f s1.s_io.(id) - f s0.s_io.(id));
      Metrics.set_int metrics
        (Printf.sprintf "node%d.%s.drain" id name)
        (f s_end.s_io.(id) - f s1.s_io.(id))
    in
    win "sent" sent_of;
    win "recv" recv_of;
    win "self" self_of
  done;
  List.iter
    (fun u ->
      Metrics.set_int metrics (Printf.sprintf "core%d.busy_ns.measure" u.u_core) u.u_busy_ns;
      Metrics.set_float metrics (Printf.sprintf "core%d.util.measure" u.u_core) u.u_util;
      Metrics.set_int metrics (Printf.sprintf "core%d.queue_peak" u.u_core) u.u_queue_peak;
      Metrics.set_int metrics (Printf.sprintf "core%d.slowed_ns" u.u_core) u.u_slowed_ns)
    cores;
  let ch = Machine.channel_totals machine in
  Metrics.set_int metrics "channels.count" ch.Machine.ch_count;
  Metrics.set_int metrics "channels.blocked" ch.Machine.ch_blocked;
  Metrics.set_int metrics "channels.stall_ns" ch.Machine.ch_stall_ns;
  Metrics.set_int metrics "channels.occupancy_peak" ch.Machine.ch_occupancy_peak;
  Metrics.set_int metrics "channels.outbox_peak" ch.Machine.ch_outbox_peak;
  let coalesce_groups, coalesce_messages = Machine.coalescing_totals machine in
  Metrics.set_int metrics "coalesce.groups" coalesce_groups;
  Metrics.set_int metrics "coalesce.messages" coalesce_messages;
  let sim_events = Ci_engine.Sim.events_fired (Machine.sim machine) in
  Metrics.set_int metrics "sim.events" sim_events;
  (match spec.trace with
   | Some ring -> Metrics.set_int metrics "trace.dropped" (Ci_obs.Event.dropped ring)
   | None -> ());
  let o =
    Deployment.assemble config ~nemesis:spec.nemesis ~prefix:"" ~metrics
      ~until_:horizon
      ~faults:(Machine.fault_dropped machine, Machine.fault_duplicated machine)
      (Deployment.reports d)
  in
  let commits =
    Run_stats.completed_in o.Deployment.stats ~from_:w0 ~until_:w1
    + Option.fold ~none:0 ~some:Ci_load.Load_stats.completed o.Deployment.load
  in
  let throughput =
    float_of_int commits /. Sim_time.to_s_float spec.duration
  in
  Metrics.set_int metrics "commits.measure" commits;
  Metrics.set_float metrics "throughput.ops" throughput;
  Metrics.set_int metrics "leader_changes.max" o.Deployment.leader_changes_max;
  Metrics.set_int metrics "leader_changes.sum" o.Deployment.leader_changes_sum;
  Metrics.set_int metrics "acceptor_changes.max" o.Deployment.acceptor_changes;
  Metrics.set_int metrics "acceptor_changes.sum" o.Deployment.acceptor_changes_sum;
  {
    commits;
    total_replies = s_end.s_replies;
    throughput;
    latency =
      Ci_stats.Summary.of_samples
        (Run_stats.latencies_in o.Deployment.stats ~from_:w0 ~until_:w1);
    timeline =
      Ci_stats.Timeseries.rates_per_sec
        (Run_stats.timeline o.Deployment.stats)
        ~upto:horizon;
    messages = windows.measure_w.w_messages;
    messages_total = s_end.s_delivered;
    self_delivered = windows.measure_w.w_self;
    self_delivered_total = s_end.s_self;
    retries = windows.measure_w.w_retries;
    retries_total = s_end.s_retries;
    windows;
    cores;
    leader_changes = o.Deployment.leader_changes;
    leader_changes_sum = o.Deployment.leader_changes_sum;
    acceptor_changes = o.Deployment.acceptor_changes;
    acceptor_changes_sum = o.Deployment.acceptor_changes_sum;
    sim_events;
    lease_reads = o.Deployment.lease_reads;
    load = o.Deployment.load;
    metrics;
    consistency = o.Deployment.consistency;
    atomicity = o.Deployment.atomicity;
    failover = o.Deployment.failover;
  }

let leader_util r =
  match List.find_opt (fun u -> u.u_core = 0) r.cores with
  | Some u -> u.u_util
  | None -> 0.

let pp_result fmt r =
  Format.fprintf fmt
    "commits=%d throughput=%.0f op/s latency: %a; msgs=%d/%d self=%d/%d \
     retries=%d/%d lc=%d(sum %d) ac=%d(sum %d) leader-util=%.2f; %a"
    r.commits r.throughput Ci_stats.Summary.pp r.latency r.messages
    r.messages_total r.self_delivered r.self_delivered_total r.retries
    r.retries_total r.leader_changes r.leader_changes_sum r.acceptor_changes
    r.acceptor_changes_sum (leader_util r) Consistency.pp r.consistency
