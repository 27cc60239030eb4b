(* The performance benchmark. One call runs one named workload in its
   own process, checks that the run was correct, and prints every
   metric by name with its unit; the last line of standard output is a
   JSON object {correct, attempted, failed, metrics}.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 reruns the
   workload with tracing on, runs the per-layer suite (layers.ml) and
   prints the per-layer metrics. Workloads and metrics are described in
   README.md. *)

module Live = Ci_runtime.Live
module Runner = Ci_workload.Runner
module LS = Ci_load.Load_stats
module Summary = Ci_stats.Summary
module Consistency = Ci_rsm.Consistency
module Sim_time = Ci_engine.Sim_time

let problem msg = Layers.check false msg
let median = Layers.median
let now = Unix.gettimeofday
let ms = Sim_time.ms
let us ns = float_of_int ns /. 1e3

(* ----- host measurements ------------------------------------------------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Resident-set high-water mark of this process (VmHWM), in MB; nan
   (which fails the run) where /proc does not report it. *)
let max_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    |> Option.value ~default:nan
  with Sys_error _ -> nan

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* ----- deployments --------------------------------------------------------- *)

(* What one deployment (a live run or a simulated point) measured.
   Latencies in µs. *)
type point = {
  ops : int;  (** completed inside the measured window *)
  failed : int;  (** rejected or stale requests *)
  ops_per_s : float;
  p50 : float;  (** the end-to-end percentiles (see README) *)
  p99 : float;
  lat_p99 : float;  (** from the intended arrival *)
  svc_p50 : float;  (** from the first send *)
  svc_p99 : float;
  samples : int;  (** latency samples behind the percentiles *)
  cpu_us_per_op : float;
}

(* A workload's run: [seconds] split into deployments of about [len]
   seconds, run one after another, each with its own seed and (on the
   live backend) a fresh placement of domains on cores. One more
   deployment runs first, untimed, while the heap grows to its working
   size. A full major GC before each keeps the previous one's garbage
   from setting its memory peak. The end-to-end numbers are medians over
   deployments, which keeps one unlucky placement or a burst of host
   noise from moving them. *)
let timed run =
  Gc.full_major ();
  let c0 = cpu_s () in
  let r, p = run () in
  (r, { p with cpu_us_per_op = (cpu_s () -. c0) *. 1e6 /. float_of_int (max 1 p.ops) })

let deployments ~seconds ~len run =
  let k = max 1 (Float.to_int (Float.round (seconds /. len))) in
  let window = seconds /. float_of_int k in
  ignore (run ~i:k ~window);
  List.init k (fun i -> timed (fun () -> run ~i ~window))

type measured = {
  points : point list;
  layer : Layers.metric list;  (** what the deployments say about single layers *)
  open_loop : bool;  (** an open-loop driver, whose per-op work enters recon *)
  sim : bool;
}

let med f m = median (List.map f m.points)
let total f m = List.fold_left (fun a p -> a + f p) 0 m.points

let verify consistency load =
  if not (Consistency.ok consistency) then
    problem (Format.asprintf "inconsistent run: %a" Consistency.pp consistency);
  match load with
  | Some s when LS.stale_reads s > 0 ->
    problem (Printf.sprintf "%d stale session reads" (LS.stale_reads s))
  | _ -> ()

let verified_live spec =
  let r = Live.run spec in
  verify r.Live.consistency r.Live.load;
  r

let verified_sim spec =
  let r = Runner.run spec in
  verify r.Runner.consistency r.Runner.load;
  r

(* The per-layer metrics a workload's deployments report, in print
   order. A backend reports the ones it exercises; the rest read 0. *)
let run_metrics =
  [
    ("live.alloc_words_per_op", "words");
    ("live.msgs_per_op", "count");
    ("live.lease_reads_per_op", "ratio");
    ("transport.full_ring_sends", "count");
    ("transport.occupancy_peak", "slots");
    ("transport.outbox_peak", "count");
    ("recovery.leader_changes", "count");
    ("recovery.acceptor_changes", "count");
    ("load.retries", "count");
    ("load.backlog_max", "count");
    ("load.lat_p99_us", "us");
    ("load.service_p50_us", "us");
    ("load.service_p99_us", "us");
    ("sim.simulated_ops_per_s", "op/s");
    ("sim.events_per_s", "1/s");
    ("sim.events_per_op", "count");
    ("sim.alloc_words_per_event", "words");
    ("sim.leader_util", "ratio");
    ("sim.leader_queue_peak", "count");
    ("sim.msgs_per_commit", "count");
  ]

let run_layer m supplied =
  let supplied =
    ("load.lat_p99_us", med (fun p -> p.lat_p99) m)
    :: ("load.service_p50_us", med (fun p -> p.svc_p50) m)
    :: ("load.service_p99_us", med (fun p -> p.svc_p99) m)
    :: supplied
  in
  List.map
    (fun (n, u) -> (n, Option.value (List.assoc_opt n supplied) ~default:0., u))
    run_metrics

(* Closed loop: nearest-rank percentiles over the raw samples in
   [Live.result.latency]. Open loop: service time (first send to
   reply) from the driver's histograms. *)
let live_point (r : Live.result) =
  let ops = r.Live.ops in
  let ops_per_s = float_of_int ops /. r.Live.wall_s in
  match r.Live.load with
  | None ->
    let l = r.Live.latency in
    let p50 = us l.Summary.p50 and p99 = us l.Summary.p99 in
    {
      ops;
      failed = 0;
      ops_per_s;
      p50;
      p99;
      lat_p99 = p99;
      svc_p50 = p50;
      svc_p99 = p99;
      samples = l.Summary.count;
      cpu_us_per_op = 0.;
    }
  | Some s ->
    let sp = LS.service_percentiles s and lp = LS.latency_percentiles s in
    {
      ops;
      failed = LS.rejected s + LS.stale_reads s;
      ops_per_s;
      p50 = us sp.LS.p50;
      p99 = us sp.LS.p99;
      lat_p99 = us lp.LS.p99;
      svc_p50 = us sp.LS.p50;
      svc_p99 = us sp.LS.p99;
      samples = LS.completed s;
      cpu_us_per_op = 0.;
    }

(* Per-layer numbers read off finished live deployments, through the
   public [Live.result] fields. *)
let live_layer (rs : Live.result list) m =
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let peak f = float_of_int (List.fold_left (fun a r -> max a (f r)) 0 rs) in
  let per_op x = x /. Float.max 1. (sum (fun r -> r.Live.ops)) in
  run_layer m
    [
      ( "live.alloc_words_per_op",
        per_op
          (List.fold_left
             (fun a r -> a +. (r.Live.alloc_words_per_op *. float_of_int r.Live.ops))
             0. rs) );
      ("live.msgs_per_op", per_op (sum (fun r -> r.Live.queues.Live.q_msgs)));
      ("live.lease_reads_per_op", per_op (sum (fun r -> r.Live.lease_reads)));
      ("transport.full_ring_sends", sum (fun r -> r.Live.queues.Live.q_blocked));
      ("transport.occupancy_peak", peak (fun r -> r.Live.queues.Live.q_occupancy_peak));
      ("transport.outbox_peak", peak (fun r -> r.Live.queues.Live.q_outbox_peak));
      ("recovery.leader_changes", sum (fun r -> r.Live.leader_changes));
      ("recovery.acceptor_changes", sum (fun r -> r.Live.acceptor_changes));
      ("load.retries", sum (fun r -> r.Live.retries));
      ( "load.backlog_max",
        peak (fun r -> match r.Live.load with Some s -> LS.max_backlog s | None -> 0) );
    ]

(* ----- live workloads: 1Paxos, 3 replicas, spsc byte rings ----------------- *)

let live_base ~seed =
  {
    (Live.default_spec ~protocol:Live.Onepaxos) with
    Live.n_replicas = 3;
    n_clients = 1;
    seed;
    think = 0;
    read_ratio = 0.;
    key_space = 65_536;
  }

let puts = { Ci_load.Open_client.reads = 0.; cas = 0.; ranges = 0. }

let open_loop ?(mix = puts) ?(population = 100_000) rate =
  Some
    {
      Runner.default_open_loop with
      Runner.arrival = Ci_load.Arrival.Fixed rate;
      mix;
      population;
      sessions = 16;
    }

let setup_live spec_of ~seed =
  ignore (verified_live { (spec_of ~seed) with Live.duration_s = 0.001; drain_s = 0. })

let live_measure spec_of ~len ~drain ~seed ~seconds =
  let runs =
    deployments ~seconds ~len (fun ~i ~window ->
        let r =
          verified_live
            { (spec_of ~window ~seed:((seed * 1000) + i)) with Live.duration_s = window; drain_s = drain }
        in
        (r, live_point r))
  in
  let rs = List.map fst runs in
  let m =
    {
      points = List.map snd runs;
      layer = [];
      open_loop = List.exists (fun r -> r.Live.load <> None) rs;
      sim = false;
    }
  in
  ({ m with layer = live_layer rs m }, rs)

let write_spec ~window:_ ~seed = live_base ~seed

(* One closed-loop client domain, think time 0, 100% Put. *)
let live_write ~seed ~seconds ~traced:_ =
  fst (live_measure write_spec ~len:1.25 ~drain:0.1 ~seed ~seconds)

(* The client thinks 100 µs between requests, so every request finds
   the replicas' event loops asleep. With no think time a lease read is
   served in 8 µs when the leader happens to be spinning and in 150 µs
   when it is not, and the median of a deployment jumps between the
   two. *)
let lease_spec ~window:_ ~seed =
  {
    (live_base ~seed) with
    Live.lease = ms 20;
    lease_skew = Sim_time.us 200;
    read_ratio = 0.9;
    think = Sim_time.us 100;
  }

(* The closed-loop client cannot tell a stale read from a fresh one, so
   the lease path is also driven for 0.5 s by open-loop sessions that
   check read-your-writes; any stale read fails the run. *)
let live_read_lease ~seed ~seconds ~traced:_ =
  let m, _ = live_measure lease_spec ~len:1.25 ~drain:0.1 ~seed ~seconds in
  let mix = { Ci_load.Open_client.reads = 0.9; cas = 0.; ranges = 0. } in
  let r =
    verified_live
      {
        (lease_spec ~window:0.5 ~seed) with
        Live.duration_s = 0.5;
        drain_s = 0.2;
        open_loop = open_loop ~mix ~population:64 4_000.;
      }
  in
  let stale = match r.Live.load with Some s -> LS.stale_reads s | None -> 0 in
  match m.points with
  | p :: rest -> { m with points = { p with failed = p.failed + stale } :: rest }
  | [] -> m

(* 100k op/s offered against a capacity near 60k: the 16 sessions are
   always busy, so throughput is bound by CPU per op. Deployments last
   1.25 s because live 1Paxos stops deciding after 2^17 instances
   (README, defect 1). The backlog is the point of the workload and is
   not counted as failures; latency is service time. *)
let saturate_spec ~window:_ ~seed = { (live_base ~seed) with Live.open_loop = open_loop 100_000. }

let live_saturate ~seed ~seconds ~traced:_ =
  fst (live_measure saturate_spec ~len:1.25 ~drain:0.3 ~seed ~seconds)

(* Crash node 1, the active acceptor, at 30% of each deployment and
   restart it 0.5 s later (sooner in windows under 2.5 s). The leader
   switches to the other acceptor through PaxosUtility and the
   restarted node rejoins through [recover]. Closed loop: an open-loop
   driver through the same crash loses requests (README, defect 2). *)
let failover_spec ~window ~seed =
  {
    (live_base ~seed) with
    Live.nemesis =
      {
        Ci_faults.seed;
        faults =
          [
            Ci_faults.Crash
              {
                node = 1;
                at = Float.to_int (0.3 *. window *. 1e9);
                down_for = Some (Float.to_int (Float.min 0.5 (0.2 *. window) *. 1e9));
              };
          ];
      };
  }

let live_failover ~seed ~seconds ~traced:_ =
  let m, rs = live_measure failover_spec ~len:2.5 ~drain:0.3 ~seed ~seconds in
  List.iter
    (fun r ->
      match r.Live.failover with
      | Some f ->
        Printf.printf "info failover.time_to_failover_ms %s\ninfo failover.unavailable_ms %.3f\n"
          (match f.Ci_obs.Failover.time_to_failover with
          | Some t -> Printf.sprintf "%.3f" (float_of_int t /. 1e6)
          | None -> "never")
          (float_of_int f.Ci_obs.Failover.unavailable_ns /. 1e6)
      | None -> ())
    rs;
  m

(* ----- simulator workload -------------------------------------------------- *)

(* Multi-Paxos on the simulated 48-core machine (multicore parameters),
   3 replicas and 13 client nodes as in a Figure 8 point, each client
   an open-loop Poisson driver at 2.5k op/s (32.5k op/s in all, about
   half the simulated capacity). Poisson arrivals make the simulated
   latencies depend on the seed; in a closed-loop Figure 8 point every
   request has the same latency. *)
let sim_spec ~seed ~window ~trace =
  {
    (Runner.default_spec ~protocol:Runner.Multipaxos
       ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 }))
    with
    Runner.seed;
    duration = window;
    warmup = (if window > ms 1 then ms 5 else 0);
    drain = (if window > ms 1 then ms 5 else 0);
    trace;
    open_loop =
      Some
        { Runner.default_open_loop with Runner.arrival = Ci_load.Arrival.Poisson 2_500.; mix = puts };
  }

(* Simulated points of 500 ms (50 ms when [seconds] is under 2), after
   one untimed point, until the host time is spent. ops_per_s is the
   simulator's own speed: simulated commits per host second over whole
   points (build, run, check). p50 and p99 are simulated latencies, the
   simulator's answers, which change only when its behaviour does. *)
let sim_multipaxos ~seed ~seconds ~traced =
  let window = if seconds >= 2. then ms 500 else ms 50 in
  let kinds = Hashtbl.create 16 in
  let count_sends ring =
    List.iter
      (fun (e : Ci_obs.Event.t) ->
        match e.Ci_obs.Event.kind with
        | Ci_obs.Event.Send _ ->
          let l = e.Ci_obs.Event.label in
          Hashtbl.replace kinds l (1 + Option.value (Hashtbl.find_opt kinds l) ~default:0)
        | _ -> ())
      (Ci_obs.Event.events ring)
  in
  let point i () =
    let trace = if traced then Some (Ci_obs.Event.create_ring ()) else None in
    let t0 = now () in
    let r = verified_sim (sim_spec ~seed:((seed * 1000) + i) ~window ~trace) in
    let wall = now () -. t0 in
    Option.iter count_sends trace;
    let s = Option.get r.Runner.load in
    let lp = LS.latency_percentiles s and sp = LS.service_percentiles s in
    ( r,
      {
        ops = r.Runner.commits;
        failed = LS.rejected s + LS.stale_reads s;
        ops_per_s = float_of_int r.Runner.commits /. wall;
        p50 = us lp.LS.p50;
        p99 = us lp.LS.p99;
        lat_p99 = us lp.LS.p99;
        svc_p50 = us sp.LS.p50;
        svc_p99 = us sp.LS.p99;
        samples = LS.completed s;
        cpu_us_per_op = 0.;
      } )
  in
  ignore (point (-1) ());
  Hashtbl.reset kinds;
  let deadline = now () +. seconds in
  let t0 = now () and w0 = alloc_words () in
  let rec go i acc =
    if i > 0 && now () >= deadline then List.rev acc else go (i + 1) (timed (point i) :: acc)
  in
  let runs = go 0 [] in
  let wall = now () -. t0 and words = alloc_words () -. w0 in
  Hashtbl.iter (fun k c -> Printf.printf "info sim.traced_sends.%s %d\n" k c) kinds;
  let rs = List.map fst runs in
  let m = { points = List.map snd runs; layer = []; open_loop = true; sim = true } in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let peak f = float_of_int (List.fold_left (fun a r -> max a (f r)) 0 rs) in
  let events = sum (fun r -> r.Runner.sim_events) in
  let per_commit x = x /. Float.max 1. (sum (fun r -> r.Runner.commits)) in
  let leader_queue (r : Runner.result) =
    List.fold_left
      (fun a (u : Runner.core_usage) -> if u.Runner.u_core = 0 then max a u.Runner.u_queue_peak else a)
      0 r.Runner.cores
  in
  let layer =
    run_layer m
      [
        ("recovery.leader_changes", sum (fun r -> r.Runner.leader_changes));
        ("recovery.acceptor_changes", sum (fun r -> r.Runner.acceptor_changes));
        ("load.retries", sum (fun r -> r.Runner.retries));
        ( "load.backlog_max",
          peak (fun r -> match r.Runner.load with Some s -> LS.max_backlog s | None -> 0) );
        ("sim.simulated_ops_per_s", median (List.map (fun r -> r.Runner.throughput) rs));
        ("sim.events_per_s", events /. wall);
        ("sim.events_per_op", per_commit events);
        ("sim.alloc_words_per_event", words /. events);
        ("sim.leader_util", median (List.map Runner.leader_util rs));
        ("sim.leader_queue_peak", peak leader_queue);
        ("sim.msgs_per_commit", per_commit (sum (fun r -> r.Runner.messages)));
      ]
  in
  { m with layer }

let setup_sim ~seed = ignore (verified_sim (sim_spec ~seed ~window:(ms 1) ~trace:None))

(* ----- the workloads ------------------------------------------------------ *)

type workload = {
  name : string;
  setup : seed:int -> unit;
      (** One deployment with this workload's configuration, a 1 ms
          measured window and no warm-up or drain. *)
  measure : seed:int -> seconds:float -> traced:bool -> measured;
}

let workloads =
  [
    { name = "live-write"; setup = setup_live (write_spec ~window:1.); measure = live_write };
    { name = "live-read-lease"; setup = setup_live (lease_spec ~window:1.); measure = live_read_lease };
    { name = "live-saturate"; setup = setup_live (saturate_spec ~window:1.); measure = live_saturate };
    { name = "live-failover"; setup = setup_live (failover_spec ~window:2.5); measure = live_failover };
    { name = "sim-multipaxos"; setup = setup_sim; measure = sim_multipaxos };
  ]

(* Median wall time of 25 deployments, after one untimed warm-up. *)
let setup_s w ~seed =
  w.setup ~seed:(seed + 100);
  median
    (List.init 25 (fun i ->
         let t0 = now () in
         w.setup ~seed:(seed + i);
         now () -. t0))

(* ----- metrics ------------------------------------------------------------ *)

let end_to_end w ~seed ~seconds =
  let setup = setup_s w ~seed in
  let m = w.measure ~seed ~seconds ~traced:false in
  List.iteri
    (fun i p ->
      Printf.printf "info deployment %d ops_per_s %.1f p50_us %.1f p99_us %.1f cpu_us_per_op %.2f\n" i
        p.ops_per_s p.p50 p.p99 p.cpu_us_per_op)
    m.points;
  Printf.printf "info samples %d\n" (total (fun p -> p.samples) m);
  ( m,
    [
      ("ops_per_s", med (fun p -> p.ops_per_s) m, "op/s");
      ("p50_us", med (fun p -> p.p50) m, "us");
      ("p99_us", med (fun p -> p.p99) m, "us");
      ("max_rss_mb", max_rss_mb (), "MB");
      ("setup_s", setup, "s");
    ] )

let value name metrics =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with
  | Some (_, v, _) -> v
  | None -> nan

(* Reconciliation: the layer costs one op crosses, summed, against the
   CPU one op actually costs. Live: every message pays one transport
   send + drain (codec and ring included), the protocol pays its
   handler time per op (1Paxos write path), the client arms and cancels
   one retry timer; an open-loop driver also samples a key, records a
   latency and fires its arrival timer. Simulator: every event pays one
   event-queue push and pop, plus the Multi-Paxos handlers and the
   driver. *)
let reconcile (m : measured) suite =
  let v n = value n suite in
  let driver =
    if m.open_loop then v "load.key_sample_ns" +. v "load.stats_record_ns" +. v "timer.arm_fire_ns"
    else 0.
  in
  let layer =
    if m.sim then
      (value "sim.events_per_op" m.layer *. v "engine.evq_push_pop_ns")
      +. v "multipaxos.handle_ns_per_op" +. driver
    else
      (value "live.msgs_per_op" m.layer *. v "transport.send_drain_ns")
      +. v "onepaxos.handle_ns_per_op" +. v "timer.arm_cancel_ns" +. driver
  in
  let cpu = med (fun p -> p.cpu_us_per_op) m *. 1e3 in
  [
    ("recon.layer_ns_per_op", layer, "ns");
    ("recon.cpu_ns_per_op", cpu, "ns");
    ("recon.unexplained_ns_per_op", cpu -. layer, "ns");
  ]

(* Half the time untraced, half traced; the traced half gives the
   per-layer numbers and the ratio of the two gives the tracing
   overhead. *)
let per_layer w ~seed ~seconds ~scale =
  let half = seconds /. 2. in
  let plain = w.measure ~seed ~seconds:half ~traced:false in
  let traced = w.measure ~seed:(seed + 1_000_000) ~seconds:half ~traced:true in
  let suite = Layers.run ~scale in
  let cpu = med (fun p -> p.cpu_us_per_op) in
  let mc = Ci_machine.Net_params.multicore in
  Printf.printf "info net.multicore.trans_ns %d\ninfo net.multicore.prop_ns %d\n"
    mc.Ci_machine.Net_params.send_cost
    ((mc.Ci_machine.Net_params.prop_intra + mc.Ci_machine.Net_params.prop_inter) / 2);
  ( traced,
    suite @ traced.layer @ reconcile traced suite
    @ [ ("trace.overhead_ratio", cpu traced /. cpu plain, "ratio") ] )

(* ----- output ------------------------------------------------------------- *)

(* The shortest of %.15g / %.17g that reads back as [v]: every digit
   measured, none invented. Integers keep a ".0" so they stay floats. *)
let json_number v =
  let s = Printf.sprintf "%.15g" v in
  let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s else s ^ ".0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " body)

let usage () =
  prerr_endline "usage: perf.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k conv default =
    match (List.assoc_opt k opts, default) with
    | Some v, _ -> ( try conv v with _ -> usage ())
    | None, Some d -> d
    | None, None -> usage ()
  in
  let name = get "workload" Fun.id None in
  let seed = get "seed" int_of_string None in
  let seconds = get "seconds" float_of_string None in
  let trace = get "trace" (function "0" -> false | "1" -> true | _ -> raise Exit) None in
  let scale = get "scale" float_of_string (Some 1.0) in
  if not (seconds > 0. && scale > 0.) then usage ();
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ name);
      usage ()
  in
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.printf
    "stamp {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"cores\": %d, \
     \"ocaml\": %S, \"date\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\"}\n"
    name seed (json_number seconds) trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
  let m, metrics =
    if trace then per_layer w ~seed ~seconds ~scale else end_to_end w ~seed ~seconds
  in
  List.iter
    (fun (n, v, u) ->
      if not (Float.is_finite v) then problem (n ^ " is not a number");
      if (not trace) && not (v > 0.) then problem (n ^ " is not positive");
      Printf.printf "metric %s %s %s\n" n (json_number v) u)
    metrics;
  let problems = List.rev !Layers.problems in
  List.iter (fun p -> Printf.printf "problem %s\n" p) problems;
  let metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics in
  let failed = total (fun p -> p.failed) m in
  let correct = problems = [] && failed = 0 in
  print_result ~correct ~attempted:(total (fun p -> p.ops) m + failed) ~failed metrics;
  exit (if correct then 0 else 1)
