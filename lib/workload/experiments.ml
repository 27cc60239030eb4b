module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Sim_time = Ci_engine.Sim_time
module Protocol = Ci_consensus.Protocol

(* ----- E1: Section 3 network characteristics --------------------------- *)

type netchar_row = {
  setting : string;
  trans_us : float;
  ping_us : float;
  prop_us : float;
  ratio : float;
}

(* Transmission delay: a sender pushes [k] messages into an effectively
   unbounded queue; the average core time per send approximates the
   transmission delay (the paper's first experiment). *)
let measure_trans ?(peer_core = 1) ~params ~topology k =
  let raw = { (Net_params.raw_channel params) with Net_params.queue_slots = k + 1 } in
  let m : int Machine.t = Machine.create ~topology ~params:raw () in
  let a = Machine.add_node m ~core:0 and b = Machine.add_node m ~core:peer_core in
  Machine.set_handler b (fun ~src:_ _ -> ());
  for i = 1 to k do
    Machine.send a ~dst:(Machine.node_id b) i
  done;
  Machine.run m;
  let busy = Ci_machine.Cpu.busy_total (Machine.cpu m ~core:0) in
  float_of_int busy /. float_of_int k /. 1000.

(* Propagation delay: with a single-slot queue the sender stalls until
   the head pointer comes back, so consecutive sends are spaced by
   2*trans + 2*prop (the paper's second experiment). *)
let measure_ping ?(peer_core = 1) ~params ~topology k =
  let raw = { (Net_params.raw_channel params) with Net_params.queue_slots = 1 } in
  let m : int Machine.t = Machine.create ~topology ~params:raw () in
  let a = Machine.add_node m ~core:0 and b = Machine.add_node m ~core:peer_core in
  let received = ref 0 and last = ref 0 in
  Machine.set_handler b (fun ~src:_ _ ->
      incr received;
      last := Machine.now m);
  for i = 1 to k do
    Machine.send a ~dst:(Machine.node_id b) i
  done;
  Machine.run m;
  assert (!received = k);
  float_of_int !last /. float_of_int k /. 1000.

let netchar ?jobs () =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let k = 1000 in
  let row (setting, peer_core, params, topology) =
    let trans_us = measure_trans ~peer_core ~params ~topology k in
    let ping_us = measure_ping ~peer_core ~params ~topology k in
    let prop_us = Float.max 0. ((ping_us -. (2. *. trans_us)) /. 2.) in
    let ratio = if prop_us > 0. then trans_us /. prop_us else infinity in
    { setting; trans_us; ping_us; prop_us; ratio }
  in
  Array.to_list
    (Pool.parallel_map ~jobs row
       [|
         (* Cores 0 and 1 share the 48-core machine's first socket; core 6
            sits on the next one — Figure 1's non-uniformity. *)
         ("mc-shared-llc", 1, Net_params.multicore, Topology.opteron_48);
         ("mc-cross-socket", 6, Net_params.multicore, Topology.opteron_48);
         ("lan", 1, Net_params.lan, Topology.create ~sockets:2 ~cores_per_socket:1);
       |])

(* ----- generic sweeps ---------------------------------------------------- *)

type point = {
  x : int;
  throughput : float;
  latency_us : float;
  leader_util : float;
}

type series = { label : string; points : point list }

let point_of_result x (r : Runner.result) =
  {
    x;
    throughput = r.Runner.throughput;
    latency_us = r.Runner.latency.Ci_stats.Summary.mean /. 1000.;
    leader_util = Runner.leader_util r;
  }

let guard_consistent context (r : Runner.result) =
  if not (Ci_rsm.Consistency.ok r.Runner.consistency) then
    Format.kasprintf failwith "%s: consistency violated: %a" context
      Ci_rsm.Consistency.pp r.Runner.consistency

let resolve_jobs = function Some j -> j | None -> Pool.default_jobs ()

(* Every experiment batch funnels through one [Pool.parallel_map] over
   the flattened spec array. Results are keyed by input index, and each
   run owns all its mutable state (DESIGN.md §8), so the rendered
   output is byte-identical at any job count. *)
let run_all ~jobs specs = Pool.parallel_map ~jobs Runner.run specs

(* Run several labelled sweeps as a single parallel batch so the pool
   load-balances across series, then regroup the results by index. *)
let sweep_group ~jobs (groups : (string * (int * Runner.spec) list) list) :
    series list =
  let specs =
    Array.of_list (List.concat_map (fun (_, xs) -> List.map snd xs) groups)
  in
  let results = run_all ~jobs specs in
  let i = ref 0 in
  List.map
    (fun (label, xs) ->
      let points =
        List.map
          (fun (x, _) ->
            let r = results.(!i) in
            incr i;
            guard_consistent label r;
            point_of_result x r)
          xs
      in
      { label; points })
    groups

let sweep ~jobs ~label ~make_spec xs : series =
  match
    sweep_group ~jobs [ (label, List.map (fun x -> (x, make_spec x)) xs) ]
  with
  | [ s ] -> s
  | _ -> assert false

(* ----- E2: Figure 2 ------------------------------------------------------ *)

let lan_topology n = Topology.create ~sockets:n ~cores_per_socket:1

let fig2 ?jobs ?(clients = [ 1; 2; 3; 5; 10; 20; 35; 50; 75; 100 ]) ?duration () =
  let jobs = resolve_jobs jobs in
  let multicore_clients = List.filter (fun c -> c <= 45) clients in
  let mc_spec c =
    let s =
      Runner.default_spec ~protocol:Runner.Multipaxos
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    match duration with Some d -> { s with Runner.duration = d } | None -> s
  in
  let lan_spec c =
    let s =
      Runner.default_spec ~protocol:Runner.Multipaxos
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    {
      s with
      Runner.topology = lan_topology (c + 4);
      params = Net_params.lan_wide;
      duration = (match duration with Some d -> d * 10 | None -> Sim_time.ms 500);
      warmup = Sim_time.ms 50;
      drain = Sim_time.ms 50;
      timeout = Sim_time.ms 40;
    }
  in
  sweep_group ~jobs
    [
      ( "Multi-Paxos multicore",
        List.map (fun c -> (c, mc_spec c)) multicore_clients );
      ("Multi-Paxos LAN", List.map (fun c -> (c, lan_spec c)) clients);
    ]

(* ----- E4: Section 7.2 latency table ------------------------------------- *)

type latency_row = {
  protocol : string;
  latency_us : float;
  paper_latency_us : float;
  throughput_1c : float;
  leader_util : float;
}

let latency_table ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let rows =
    [| (Runner.Onepaxos, 16.0); (Runner.Multipaxos, 19.6); (Runner.Twopc, 21.4) |]
  in
  let spec proto =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 1 })
    in
    match duration with Some d -> { s with Runner.duration = d } | None -> s
  in
  let results = run_all ~jobs (Array.map (fun (p, _) -> spec p) rows) in
  Array.to_list
    (Array.mapi
       (fun i (proto, paper_latency_us) ->
         let r = results.(i) in
         guard_consistent "latency_table" r;
         {
           protocol = Protocol.to_string proto;
           latency_us = r.Runner.latency.Ci_stats.Summary.mean /. 1000.;
           paper_latency_us;
           throughput_1c = r.Runner.throughput;
           leader_util = Runner.leader_util r;
         })
       rows)

(* ----- E5: Figure 8 ------------------------------------------------------- *)

let fig8 ?jobs ?(clients = [ 1; 2; 3; 5; 7; 10; 13; 17; 21; 26; 31; 38; 45 ]) ?duration () =
  let jobs = resolve_jobs jobs in
  let spec proto c =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    match duration with Some d -> { s with Runner.duration = d } | None -> s
  in
  let group proto =
    (Protocol.to_string proto, List.map (fun c -> (c, spec proto c)) clients)
  in
  sweep_group ~jobs
    [ group Runner.Twopc; group Runner.Multipaxos; group Runner.Onepaxos ]

(* ----- E6: Figure 9 (joint deployment) ------------------------------------ *)

let fig9 ?jobs ?(nodes = [ 3; 5; 9; 13; 17; 21; 25; 29; 35; 41; 47 ]) ?duration () =
  let jobs = resolve_jobs jobs in
  let spec proto n =
    let s =
      Runner.default_spec ~protocol:proto ~placement:(Runner.Joint { n_nodes = n })
    in
    {
      s with
      Runner.think = Sim_time.ms 2;
      duration = (match duration with Some d -> d | None -> Sim_time.ms 200);
      warmup = Sim_time.ms 20;
      timeout = Sim_time.ms 8;
    }
  in
  let group proto =
    ( Protocol.to_string proto ^ "-joint",
      List.map (fun n -> (n, spec proto n)) nodes )
  in
  sweep_group ~jobs
    [ group Runner.Twopc; group Runner.Multipaxos; group Runner.Onepaxos ]

(* ----- E7: Figure 10 (read workload) --------------------------------------- *)

type bar = { label : string; clients : int; throughput : float }

let fig10 ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let dur = match duration with Some d -> d | None -> Sim_time.ms 50 in
  let onepaxos c =
    let s =
      Runner.default_spec ~protocol:Runner.Onepaxos
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    { s with Runner.duration = dur }
  in
  let twopc_joint c ratio =
    let s =
      Runner.default_spec ~protocol:Runner.Twopc ~placement:(Runner.Joint { n_nodes = c })
    in
    { s with Runner.duration = dur; read_ratio = ratio; local_reads = true }
  in
  let cases =
    List.concat_map
      (fun c ->
        [
          ("1Paxos - 0% read", c, onepaxos c);
          ("2PC-Joint - 0% read", c, twopc_joint c 0.0);
          ("2PC-Joint - 10% read", c, twopc_joint c 0.10);
          ("2PC-Joint - 75% read", c, twopc_joint c 0.75);
        ])
      [ 3; 5 ]
  in
  let results =
    run_all ~jobs (Array.of_list (List.map (fun (_, _, s) -> s) cases))
  in
  List.mapi
    (fun i (label, clients, _) ->
      let r = results.(i) in
      guard_consistent "fig10" r;
      { label; clients; throughput = r.Runner.throughput })
    cases

(* ----- E3/E8: slow-leader timelines ----------------------------------------- *)

type timeline = {
  label : string;
  bucket_ms : float;
  rates : float array;
  leader_changes : int;
  acceptor_changes : int;
}

let slow_leader_spec proto ~dur ~fault =
  let s =
    Runner.default_spec ~protocol:proto
      ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 5 })
  in
  {
    s with
    Runner.topology = Topology.opteron_8;
    duration = dur;
    warmup = Sim_time.ms 10;
    drain = Sim_time.ms 10;
    bucket = Sim_time.ms 10;
    nemesis =
      (if fault then
         {
           Ci_faults.empty with
           faults =
             [
               Ci_faults.Slow
                 {
                   core = 0;
                   from_ = Sim_time.ms 40;
                   until_ = dur + Sim_time.ms 20;
                   factor = 60.;
                 };
             ];
         }
       else Ci_faults.empty);
  }

(* Labelled (case, spec) pairs run as one parallel batch, results
   rebuilt in case order. *)
let slow_leader_timelines ~jobs cases =
  let results = run_all ~jobs (Array.of_list (List.map snd cases)) in
  List.mapi
    (fun i (label, _) ->
      let r = results.(i) in
      guard_consistent label r;
      {
        label;
        bucket_ms = 10.;
        rates = r.Runner.timeline;
        leader_changes = r.Runner.leader_changes;
        acceptor_changes = r.Runner.acceptor_changes;
      })
    cases

let fig11 ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let dur = match duration with Some d -> d | None -> Sim_time.ms 150 in
  slow_leader_timelines ~jobs
    [
      ("1Paxos - slow leader", slow_leader_spec Runner.Onepaxos ~dur ~fault:true);
      ("1Paxos - no failure", slow_leader_spec Runner.Onepaxos ~dur ~fault:false);
    ]

let sec2_2 ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let dur = match duration with Some d -> d | None -> Sim_time.ms 150 in
  slow_leader_timelines ~jobs
    [
      ("2PC - slow leader", slow_leader_spec Runner.Twopc ~dur ~fault:true);
      ("2PC - no failure", slow_leader_spec Runner.Twopc ~dur ~fault:false);
    ]

(* ----- E10: failover timelines (nemesis crash, Figure 11's shape) ----------- *)

(* Figure 11 again, but with the fault the paper could not inject on
   real hardware: a hard crash instead of a slowdown. Node 1 hosts the
   initial active acceptor, node 0 the leader; each is killed at 40ms
   (losing all volatile state) and restarted 30ms later through the
   protocol's [recover] path. The same dip-and-recover shape should
   appear, driven by acceptor relocation resp. leader takeover rather
   than by the failure detector outrunning a slow core. *)
let failover ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let dur = match duration with Some d -> d | None -> Sim_time.ms 150 in
  let base = slow_leader_spec Runner.Onepaxos ~dur ~fault:false in
  let crash node =
    {
      base with
      Runner.nemesis =
        {
          Ci_faults.seed = 42;
          faults =
            [
              Ci_faults.Crash
                { node; at = Sim_time.ms 40; down_for = Some (Sim_time.ms 30) };
            ];
        };
    }
  in
  slow_leader_timelines ~jobs
    [
      ("1Paxos - crashed acceptor", crash 1);
      ("1Paxos - crashed leader", crash 0);
      ("1Paxos - no failure", base);
    ]

(* ----- E9: 1Paxos over an IP network ----------------------------------------- *)

let lan_1paxos ?jobs ?(clients = [ 1; 2; 5; 10; 20; 40; 60 ]) ?duration () =
  let jobs = resolve_jobs jobs in
  let spec proto c =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    {
      s with
      Runner.topology = lan_topology (c + 4);
      params = Net_params.lan;
      duration = (match duration with Some d -> d | None -> Sim_time.ms 300);
      warmup = Sim_time.ms 30;
      drain = Sim_time.ms 30;
      timeout = Sim_time.ms 20;
    }
  in
  let group proto =
    ( Protocol.to_string proto ^ " LAN",
      List.map (fun c -> (c, spec proto c)) clients )
  in
  sweep_group ~jobs [ group Runner.Multipaxos; group Runner.Onepaxos ]

(* ----- ablations --------------------------------------------------------------- *)

let ablation_placement ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let dur = match duration with Some d -> d | None -> Sim_time.ms 120 in
  let case colocate =
    let s = slow_leader_spec Runner.Onepaxos ~dur ~fault:true in
    (* Measure from fault onset: how much work completes while the
       leader core is starved, given the acceptor placement. *)
    { s with Runner.warmup = Sim_time.ms 40; colocate_acceptor = colocate }
  in
  let cases =
    [ ("acceptor colocated with leader", true);
      ("acceptor on separate node", false) ]
  in
  let results =
    run_all ~jobs (Array.of_list (List.map (fun (_, c) -> case c) cases))
  in
  List.mapi
    (fun i (label, colocate) ->
      let r = results.(i) in
      guard_consistent label r;
      ({ label; points = [ point_of_result (if colocate then 1 else 0) r ] }
        : series))
    cases

let ablation_slots ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let clients = [ 1; 5; 13; 30 ] in
  let spec slots c =
    let s =
      Runner.default_spec ~protocol:Runner.Onepaxos
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    let s = match duration with Some d -> { s with Runner.duration = d } | None -> s in
    { s with Runner.params = { s.Runner.params with Net_params.queue_slots = slots } }
  in
  sweep_group ~jobs
    (List.map
       (fun slots ->
         ( Printf.sprintf "1Paxos, %d queue slot(s)" slots,
           List.map (fun c -> (c, spec slots c)) clients ))
       [ 1; 7; 64 ])

let ablation_ratio ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let props_us = [ 1; 5; 20; 135 ] in
  let spec proto prop_us =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 })
    in
    let s = match duration with Some d -> { s with Runner.duration = d } | None -> s in
    {
      s with
      Runner.params =
        {
          s.Runner.params with
          Net_params.prop_intra = Sim_time.us prop_us;
          prop_inter = Sim_time.us prop_us;
        };
      timeout = Sim_time.ms 20;
    }
  in
  let group proto =
    ( Protocol.to_string proto,
      List.map (fun p -> (p, spec proto p)) props_us )
  in
  sweep_group ~jobs [ group Runner.Multipaxos; group Runner.Onepaxos ]

(* ----- A6..A8: batching / pipelining / coalescing ablations ------------- *)

(* 44 clients saturate the leader on the 48-core preset (3 replica cores
   + 44 client cores + 1 idle), which is where amortizing per-message
   cost pays: below saturation batching only trades latency for nothing. *)
let batch_spec ?duration ~protocol ~batch ~pipeline ~coalesce () =
  let s =
    Runner.default_spec ~protocol
      ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 44 })
  in
  let s = match duration with Some d -> { s with Runner.duration = d } | None -> s in
  {
    s with
    Runner.batch;
    pipeline;
    params = { s.Runner.params with Net_params.coalesce };
  }

let ablation_batch ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let batches = [ 1; 2; 4; 8; 16; 32 ] in
  let spec proto b =
    (* The b = 1 baseline is the paper's untouched protocol: no
       batching, no pipelining window, no coalescing. *)
    if b = 1 then
      batch_spec ?duration ~protocol:proto ~batch:1 ~pipeline:0 ~coalesce:1 ()
    else batch_spec ?duration ~protocol:proto ~batch:b ~pipeline:8 ~coalesce:16 ()
  in
  let group proto =
    (Protocol.to_string proto, List.map (fun b -> (b, spec proto b)) batches)
  in
  sweep_group ~jobs [ group Runner.Multipaxos; group Runner.Onepaxos ]

let ablation_pipeline ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let windows = [ 1; 2; 4; 8; 16 ] in
  [
    sweep ~jobs ~label:"1paxos, batch=8, coalesce=16"
      ~make_spec:(fun w ->
        batch_spec ?duration ~protocol:Runner.Onepaxos ~batch:8 ~pipeline:w
          ~coalesce:16 ())
      windows;
  ]

let ablation_coalesce ?jobs ?duration () =
  let jobs = resolve_jobs jobs in
  let budgets = [ 1; 2; 4; 8; 16; 32 ] in
  [
    sweep ~jobs ~label:"1paxos, batch=8, pipeline=8"
      ~make_spec:(fun k ->
        batch_spec ?duration ~protocol:Runner.Onepaxos ~batch:8 ~pipeline:8
          ~coalesce:k ())
      budgets;
  ]

let protocol_comparison ?jobs ?duration ?(params = Net_params.multicore) () =
  let jobs = resolve_jobs jobs in
  let clients = [ 1; 3; 8; 13; 21; 34 ] in
  let spec proto c =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = c })
    in
    let s = match duration with Some d -> { s with Runner.duration = d } | None -> s in
    { s with Runner.params = params }
  in
  let group proto =
    (Protocol.to_string proto, List.map (fun c -> (c, spec proto c)) clients)
  in
  sweep_group ~jobs
    (List.map group
       [ Runner.Twopc; Runner.Multipaxos; Runner.Mencius; Runner.Cheappaxos;
         Runner.Onepaxos ])

(* ----- shards: multi-group scaling (ISSUE 7) ----------------------------- *)

let guard_atomic context (r : Runner.result) =
  match r.Runner.atomicity with
  | None -> ()
  | Some a ->
    if not (Ci_rsm.Atomicity.ok a) then
      Format.kasprintf failwith "%s: atomicity violated: %a" context
        Ci_rsm.Atomicity.pp a

(* Throughput versus group count, one socket per group so growing the
   shard count grows the machine the way the paper's taskset would:
   group g's replicas fill socket g, routers and clients take the two
   sockets after the last group. Every point is consistency-checked per
   group and, at groups > 1, cross-shard 2PC atomicity-checked. *)
let shards ?jobs ?duration ?(groups = [ 1; 2; 4; 8 ])
    ?(cross_shard_ratio = 0.05) () =
  let jobs = resolve_jobs jobs in
  let spec proto g =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 6 })
    in
    let s =
      match duration with Some d -> { s with Runner.duration = d } | None -> s
    in
    {
      s with
      Runner.groups = g;
      cross_shard_ratio = (if g = 1 then 0. else cross_shard_ratio);
      topology = Topology.create ~sockets:(g + 2) ~cores_per_socket:3;
    }
  in
  let specs =
    Array.of_list
      (List.concat_map
         (fun proto -> List.map (spec proto) groups)
         [ Runner.Onepaxos; Runner.Multipaxos ])
  in
  let results = run_all ~jobs specs in
  let i = ref 0 in
  List.map
    (fun proto ->
      let label = Protocol.to_string proto ^ " sharded" in
      let points =
        List.map
          (fun g ->
            let r = results.(!i) in
            incr i;
            guard_consistent label r;
            guard_atomic label r;
            point_of_result g r)
          groups
      in
      { label; points })
    [ Runner.Onepaxos; Runner.Multipaxos ]

(* ----- E10: open-loop service curves (latency vs offered load) -------------- *)

type load_row = {
  l_label : string;
  l_offered : float;  (* total offered op/s over all drivers *)
  l_achieved : float;  (* completions/s inside the window *)
  l_p50_us : float;  (* from the intended arrival *)
  l_p99_us : float;
  l_p999_us : float;
  l_service_p99_us : float;  (* from the first transmission *)
  l_lease_reads : int;
  l_knee : bool;  (* this point is the curve's saturation knee *)
}

(* One protocol's latency-vs-load curve: a fixed driver population is
   asked for increasing offered rates; latency is charged from each
   request's intended arrival, so points past saturation show queueing
   delay instead of silently shedding load. The knee is flagged on the
   p99 curve. *)
let load_curve ?jobs ?duration ?(rates = [ 20_000.; 60_000.; 120_000.; 240_000. ])
    ?(read_ratio = 0.9) ?(lease = 0) () =
  let jobs = resolve_jobs jobs in
  let n_clients = 2 in
  let spec proto rate =
    let s =
      Runner.default_spec ~protocol:proto
        ~placement:(Runner.Dedicated { n_replicas = 3; n_clients })
    in
    let s =
      match duration with Some d -> { s with Runner.duration = d } | None -> s
    in
    {
      s with
      Runner.open_loop =
        Some
          {
            Runner.default_open_loop with
            Runner.arrival = Ci_load.Arrival.Fixed rate;
            mix =
              { Ci_load.Open_client.reads = read_ratio; cas = 0.02; ranges = 0.02 };
          };
      lease;
      lease_skew = (if lease > 0 then lease / 100 else 0);
    }
  in
  let protos = [ Runner.Onepaxos; Runner.Multipaxos ] in
  let specs =
    Array.of_list (List.concat_map (fun p -> List.map (spec p) rates) protos)
  in
  let results = run_all ~jobs specs in
  let i = ref 0 in
  List.concat_map
    (fun proto ->
      let label =
        Protocol.to_string proto ^ if lease > 0 then " +lease" else ""
      in
      let rows =
        List.map
          (fun rate ->
            let r = results.(!i) in
            incr i;
            guard_consistent label r;
            let s = Option.get r.Runner.load in
            if Ci_load.Load_stats.stale_reads s > 0 then
              Format.kasprintf failwith "%s: %d stale session reads" label
                (Ci_load.Load_stats.stale_reads s);
            let lp = Ci_load.Load_stats.latency_percentiles s in
            let sp = Ci_load.Load_stats.service_percentiles s in
            let us v = float_of_int v /. 1e3 in
            {
              l_label = label;
              l_offered = rate *. float_of_int n_clients;
              l_achieved = Ci_load.Load_stats.throughput s;
              l_p50_us = us lp.Ci_load.Load_stats.p50;
              l_p99_us = us lp.Ci_load.Load_stats.p99;
              l_p999_us = us lp.Ci_load.Load_stats.p999;
              l_service_p99_us = us sp.Ci_load.Load_stats.p99;
              l_lease_reads = r.Runner.lease_reads;
              l_knee = false;
            })
          rates
      in
      let pts =
        Array.of_list (List.map (fun row -> (row.l_offered, row.l_p99_us)) rows)
      in
      match Ci_load.Knee.detect pts with
      | Some k ->
        List.mapi (fun j row -> if j = k then { row with l_knee = true } else row) rows
      | None -> rows)
    protos

(* ----- rendering ------------------------------------------------------------------ *)

let pp_netchar fmt rows =
  Format.fprintf fmt "%-10s %10s %10s %10s %12s@." "setting" "trans(us)"
    "ping(us)" "prop(us)" "trans/prop";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s %10.2f %10.2f %10.2f %12.3f@." r.setting
        r.trans_us r.ping_us r.prop_us r.ratio)
    rows

let pp_series fmt series =
  List.iter
    (fun (s : series) ->
      Format.fprintf fmt "-- %s@." s.label;
      Format.fprintf fmt "   %6s %14s %14s %12s@." "x" "op/s" "latency(us)"
        "leader-util";
      List.iter
        (fun p ->
          Format.fprintf fmt "   %6d %14.0f %14.1f %12.2f@." p.x p.throughput
            p.latency_us p.leader_util)
        s.points)
    series

let pp_latency_table fmt rows =
  Format.fprintf fmt "%-12s %14s %16s %14s %12s@." "protocol" "latency(us)"
    "paper(us)" "1-client op/s" "leader-util";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %14.1f %16.1f %14.0f %12.2f@." r.protocol
        r.latency_us r.paper_latency_us r.throughput_1c r.leader_util)
    rows

let pp_bars fmt bars =
  Format.fprintf fmt "%-22s %8s %14s@." "configuration" "clients" "op/s";
  List.iter
    (fun (b : bar) -> Format.fprintf fmt "%-22s %8d %14.0f@." b.label b.clients b.throughput)
    bars

let pp_load_table fmt rows =
  Format.fprintf fmt "%-20s %12s %12s %10s %10s %10s %12s %6s@." "curve"
    "offered" "achieved" "p50(us)" "p99(us)" "p999(us)" "svc-p99(us)" "knee";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-20s %12.0f %12.0f %10.1f %10.1f %10.1f %12.1f %6s@."
        r.l_label r.l_offered r.l_achieved r.l_p50_us r.l_p99_us r.l_p999_us
        r.l_service_p99_us
        (if r.l_knee then "<--" else ""))
    rows

let pp_timelines fmt ts =
  List.iter
    (fun (t : timeline) ->
      Format.fprintf fmt "-- %s (leader changes %d, acceptor changes %d)@."
        t.label t.leader_changes t.acceptor_changes;
      Format.fprintf fmt "   t(ms):  ";
      Array.iteri
        (fun i _ -> Format.fprintf fmt "%6.0f" (float_of_int i *. t.bucket_ms))
        t.rates;
      Format.fprintf fmt "@.   kop/s:  ";
      Array.iter (fun r -> Format.fprintf fmt "%6.1f" (r /. 1000.)) t.rates;
      Format.fprintf fmt "@.")
    ts
