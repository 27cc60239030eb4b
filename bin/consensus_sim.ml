(* consensus_sim: command-line front-end to the simulator.

   [run] executes one experiment with explicit parameters; [figures]
   regenerates any of the paper's tables/figures and is their only
   front end. *)

open Cmdliner
module Runner = Ci_workload.Runner
module E = Ci_workload.Experiments
module Sim_time = Ci_engine.Sim_time
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Protocol = Ci_consensus.Protocol

(* ----- shared argument parsing ----------------------------------------- *)

(* One parser for every subcommand; the library decides which backend
   runs which protocol and reports the rest as [Invalid_argument]. *)
let protocol_conv =
  let parse s =
    match Protocol.of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown protocol %S (%s)" s
              (String.concat "|" (List.map Protocol.to_string Protocol.all))))
  in
  let print fmt p = Format.pp_print_string fmt (Protocol.to_string p) in
  Arg.conv (parse, print)

let topology_conv =
  let parse s =
    match s with
    | "48" | "opteron48" -> Ok Topology.opteron_48
    | "8" | "opteron8" -> Ok Topology.opteron_8
    | s ->
      (match String.split_on_char 'x' s with
       | [ a; b ] ->
         (try Ok (Topology.create ~sockets:(int_of_string a) ~cores_per_socket:(int_of_string b))
          with _ -> Error (`Msg "topology: expected 48, 8 or SOCKETSxCORES"))
       | _ -> Error (`Msg "topology: expected 48, 8 or SOCKETSxCORES"))
  in
  Arg.conv (parse, Topology.pp)

let net_conv =
  let parse = function
    | "multicore" -> Ok Net_params.multicore
    | "lan" -> Ok Net_params.lan
    | "lan-wide" -> Ok Net_params.lan_wide
    | "rdma" -> Ok Net_params.rdma
    | s ->
      Error
        (`Msg (Printf.sprintf "unknown network %S (multicore|lan|lan-wide|rdma)" s))
  in
  Arg.conv (parse, Net_params.pp)

(* Nemesis flag parsers: each flag value is one [Ci_faults.fault] in a
   colon-separated format (times in ms from the start of the run). *)
let nem_conv ~expect parse =
  let parse s =
    match parse (String.split_on_char ':' s) with
    | Some f -> Ok f
    | None -> Error (`Msg ("expected " ^ expect))
    | exception _ -> Error (`Msg ("expected " ^ expect))
  in
  Arg.conv (parse, Ci_faults.pp_fault)

let crash_conv =
  nem_conv ~expect:"NODE:AT_MS[:DOWN_MS]" (function
    | [ node; at ] ->
      Some
        (Ci_faults.Crash
           {
             node = int_of_string node;
             at = Sim_time.ms (int_of_string at);
             down_for = None;
           })
    | [ node; at; down ] ->
      Some
        (Ci_faults.Crash
           {
             node = int_of_string node;
             at = Sim_time.ms (int_of_string at);
             down_for = Some (Sim_time.ms (int_of_string down));
           })
    | _ -> None)

let pause_conv =
  nem_conv ~expect:"NODE:FROM_MS:UNTIL_MS" (function
    | [ node; from_; until_ ] ->
      Some
        (Ci_faults.Pause
           {
             node = int_of_string node;
             from_ = Sim_time.ms (int_of_string from_);
             until_ = Sim_time.ms (int_of_string until_);
           })
    | _ -> None)

let link_p_conv kind =
  nem_conv ~expect:"SRC:DST:FROM_MS:UNTIL_MS:P" (function
    | [ src; dst; from_; until_; p ] ->
      let src = int_of_string src and dst = int_of_string dst in
      let from_ = Sim_time.ms (int_of_string from_)
      and until_ = Sim_time.ms (int_of_string until_) in
      let p = float_of_string p in
      Some
        (match kind with
         | `Drop -> Ci_faults.Drop { src; dst; from_; until_; p }
         | `Dup -> Ci_faults.Duplicate { src; dst; from_; until_; p })
    | _ -> None)

let delay_conv =
  nem_conv ~expect:"SRC:DST:FROM_MS:UNTIL_MS:EXTRA_US" (function
    | [ src; dst; from_; until_; extra ] ->
      Some
        (Ci_faults.Delay
           {
             src = int_of_string src;
             dst = int_of_string dst;
             from_ = Sim_time.ms (int_of_string from_);
             until_ = Sim_time.ms (int_of_string until_);
             extra = Sim_time.us (int_of_string extra);
           })
    | _ -> None)

let partition_conv =
  nem_conv ~expect:"FROM_MS:UNTIL_MS:GROUPS (e.g. 10:20:0/1,2)" (function
    | [ from_; until_; groups ] ->
      let group g = List.map int_of_string (String.split_on_char ',' g) in
      Some
        (Ci_faults.Partition
           {
             groups = List.map group (String.split_on_char '/' groups);
             from_ = Sim_time.ms (int_of_string from_);
             until_ = Sim_time.ms (int_of_string until_);
           })
    | _ -> None)

let slow_conv =
  nem_conv ~expect:"CORE:FROM_MS:UNTIL_MS:FACTOR" (function
    | [ core; from_; until_; factor ] ->
      Some
        (Ci_faults.Slow
           {
             core = int_of_string core;
             from_ = Sim_time.ms (int_of_string from_);
             until_ = Sim_time.ms (int_of_string until_);
             factor = float_of_string factor;
           })
    | _ -> None)

(* [with_valid run spec k] continues with [k] on the result of
   [run spec], or reports the library's rejection of the spec and exits
   1. *)
let with_valid run spec k =
  match run spec with
  | exception Invalid_argument m ->
    Format.eprintf "%s@." m;
    1
  | r -> k r

module Live = Ci_runtime.Live

(* One [--transport] for every subcommand that runs the live backend. *)
let transport =
  let transport_conv =
    let parse s =
      match Live.transport_of_string s with
      | Some t -> Ok t
      | None -> Error (`Msg (Printf.sprintf "unknown transport %S (spsc|socket)" s))
    in
    let print fmt t = Format.pp_print_string fmt (Live.transport_name t) in
    Arg.conv (parse, print)
  in
  Arg.(value & opt transport_conv Live.Spsc & info [ "transport" ] ~doc:"Live-runtime transport: $(b,spsc) (domains over shared-memory byte rings, the default) or $(b,socket) (one process per node over stream sockets; exit 3 when the host cannot provide them).")

(* [with_live spec k] is [with_valid Live.run spec k], except that a
   host that cannot provide the socket transport's sockets or processes
   exits 3 ("skipped") instead of failing. *)
let with_live spec k =
  match Live.run spec with
  | exception Unix.Unix_error (e, fn, _)
    when spec.Live.transport = Live.Socket
         && (match e with
            | Unix.EPERM | Unix.EACCES | Unix.ENOSYS | Unix.EAFNOSUPPORT
            | Unix.EPROTONOSUPPORT | Unix.EMFILE | Unix.ENFILE | Unix.EAGAIN
            | Unix.ENOMEM ->
              true
            | _ -> false) ->
    Format.eprintf
      "live: socket transport unavailable on this host (%s: %s); skipping@."
      fn (Unix.error_message e);
    3
  | exception Invalid_argument m ->
    Format.eprintf "%s@." m;
    1
  | r -> k r

(* [report_checks consistency atomicity] prints a sharded run's
   atomicity verdict and returns whether both checks signed off. *)
let report_checks consistency atomicity =
  Option.iter (Format.printf "atomicity: %a@." Ci_rsm.Atomicity.pp) atomicity;
  Ci_rsm.Consistency.ok consistency
  && Option.fold ~none:true ~some:Ci_rsm.Atomicity.ok atomicity

(* Options shared by the subcommands that run a deployment. *)
let protocol_arg = Arg.(value & opt protocol_conv Protocol.Onepaxos & info [ "p"; "protocol" ] ~doc:"Protocol: 1paxos, multipaxos, 2pc, mencius or cheappaxos.")
let groups = Arg.(value & opt int 1 & info [ "g"; "groups" ] ~doc:"Consensus groups the keyspace is sharded over (1paxos or multipaxos), each with its own replicas plus a router; fault node indices range over $(b,groups * replicas) group-major replicas.")
let cross_shard = Arg.(value & opt float 0. & info [ "cross-shard-ratio" ] ~doc:"Fraction of commands that are cross-shard multi-puts (2PC over the owning groups).")
let metrics_out = Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the run's metrics registry as a flat JSON object to $(docv).")
let replicas = Arg.(value & opt int 3 & info [ "r"; "replicas" ] ~doc:"Replica count (per group when $(b,--groups) > 1).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed: per-node streams, client and driver draws and a fault schedule's coin flips all derive from it.")

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Format.printf "wrote %s@." path

(* ----- run ---------------------------------------------------------------- *)

let run_cmd =
  let clients = Arg.(value & opt int 5 & info [ "c"; "clients" ] ~doc:"Client count (dedicated mode).") in
  let joint = Arg.(value & flag & info [ "joint" ] ~doc:"Joint deployment: every node is replica and client; $(b,--replicas) sets the node count.") in
  let duration = Arg.(value & opt int 50 & info [ "d"; "duration-ms" ] ~doc:"Measurement window (ms).") in
  let warmup = Arg.(value & opt int 5 & info [ "warmup-ms" ] ~doc:"Warm-up before measuring (ms).") in
  let read_ratio = Arg.(value & opt float 0. & info [ "read-ratio" ] ~doc:"Fraction of read commands.") in
  let think = Arg.(value & opt int 0 & info [ "think-us" ] ~doc:"Client think time (us).") in
  let timeout = Arg.(value & opt int 2000 & info [ "timeout-us" ] ~doc:"Client retry timeout (us).") in
  let topology = Arg.(value & opt topology_conv Topology.opteron_48 & info [ "topology" ] ~doc:"Machine: 48, 8 or SOCKETSxCORES.") in
  let net = Arg.(value & opt net_conv Net_params.multicore & info [ "net" ] ~doc:"Network preset: multicore, lan or lan-wide.") in
  let relaxed = Arg.(value & flag & info [ "relaxed-reads" ] ~doc:"Serve marked reads from local learner state (stale allowed).") in
  let local_reads = Arg.(value & flag & info [ "local-reads" ] ~doc:"2PC-Joint: serve unlocked reads locally.") in
  let colocate = Arg.(value & flag & info [ "colocate-acceptor" ] ~doc:"1Paxos: put the initial acceptor on the leader's node.") in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"1Paxos/Multi-Paxos: commands per batched consensus instance (1 = the paper's protocol).") in
  let batch_delay = Arg.(value & opt int 5 & info [ "batch-delay-us" ] ~doc:"How long the leader holds a partial batch (us).") in
  let pipeline = Arg.(value & opt int 0 & info [ "pipeline" ] ~doc:"Max batches in flight at the leader (0 = unbounded, as in the paper).") in
  let coalesce = Arg.(value & opt int 1 & info [ "coalesce" ] ~doc:"Receive-coalescing budget: messages drained per reception charge (1 = uncoalesced).") in
  let slows = Arg.(value & opt_all slow_conv [] & info [ "slow-core" ] ~docv:"CORE:FROM_MS:UNTIL_MS:FACTOR" ~doc:"Slow a core by $(i,FACTOR) ($(b,inf) crashes it). Repeatable.") in
  let timeline = Arg.(value & flag & info [ "timeline" ] ~doc:"Also print per-10ms commit rates.") in
  let trace_out = Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc:"Record typed trace events and write them to $(docv).") in
  let trace_format =
    let fmt_conv = Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ] in
    Arg.(value & opt fmt_conv `Chrome & info [ "trace-format" ] ~docv:"FMT" ~doc:"Trace format: $(b,chrome) (load in ui.perfetto.dev) or $(b,jsonl) (one JSON object per line).")
  in
  let run protocol replicas clients groups cross_shard joint duration warmup
      seed read_ratio think timeout topology net relaxed local_reads colocate
      batch batch_delay pipeline coalesce slows timeline trace_out
      trace_format metrics_out =
    let placement =
      if joint then Runner.Joint { n_nodes = replicas }
      else Runner.Dedicated { n_replicas = replicas; n_clients = clients }
    in
    let ring =
      match trace_out with
      | Some _ -> Some (Ci_obs.Event.create_ring ())
      | None -> None
    in
    let spec =
      {
        (Runner.default_spec ~protocol ~placement) with
        Runner.groups = groups;
        cross_shard_ratio = cross_shard;
        duration = Sim_time.ms duration;
        warmup = Sim_time.ms warmup;
        seed;
        read_ratio;
        think = Sim_time.us think;
        timeout = Sim_time.us timeout;
        topology;
        params = { net with Net_params.coalesce };
        relaxed_reads = relaxed;
        local_reads;
        colocate_acceptor = colocate;
        batch;
        batch_delay = Sim_time.us batch_delay;
        pipeline;
        nemesis = { Ci_faults.empty with faults = slows };
        trace = ring;
      }
    in
    with_valid Runner.run spec @@ fun r ->
    Format.printf "%a@." Runner.pp_result r;
    let ok = report_checks r.Runner.consistency r.Runner.atomicity in
    if timeline then begin
      Format.printf "timeline (op/s per 10ms bucket):@.";
      Array.iteri (fun i x -> Format.printf "  %4dms %10.0f@." (i * 10) x) r.Runner.timeline
    end;
    (match (trace_out, ring) with
     | Some path, Some ring ->
       let contents =
         match trace_format with
         | `Chrome -> Ci_obs.Event.to_chrome ring
         | `Jsonl -> Ci_obs.Event.to_jsonl ring
       in
       write_file path contents;
       if Ci_obs.Event.dropped ring > 0 then
         Format.printf "note: ring capacity exceeded, %d oldest events dropped@."
           (Ci_obs.Event.dropped ring)
     | _ -> ());
    Option.iter
      (fun path -> write_file path (Ci_obs.Metrics.to_json r.Runner.metrics))
      metrics_out;
    if ok then 0 else 1
  in
  let term =
    Term.(
      const run $ protocol_arg $ replicas $ clients $ groups $ cross_shard $ joint
      $ duration $ warmup $ seed $ read_ratio $ think $ timeout $ topology
      $ net $ relaxed $ local_reads $ colocate $ batch $ batch_delay
      $ pipeline $ coalesce $ slows $ timeline $ trace_out $ trace_format
      $ metrics_out)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment and print its measurements.") term

(* ----- live ---------------------------------------------------------------- *)

let live_cmd =
  let clients = Arg.(value & opt int 2 & info [ "c"; "clients" ] ~doc:"Client domains.") in
  let duration = Arg.(value & opt float 1.0 & info [ "d"; "duration-s" ] ~doc:"Measured wall-clock phase (seconds).") in
  let drain = Arg.(value & opt float 0.2 & info [ "drain-s" ] ~doc:"Quiesce phase before stopping the domains (seconds).") in
  let slots = Arg.(value & opt int 64 & info [ "ring-cap"; "queue-slots" ] ~doc:"Ring capacity per ordered node pair, in slots. Raising it relieves full-ring back-pressure (see the per-node full-ring sends the run prints).") in
  let slot_size = Arg.(value & opt int 128 & info [ "slot-size" ] ~doc:"Bytes per ring slot — a power of two, at least 32. Every non-batch message fits one 128-byte slot; batch messages spill over consecutive slots.") in
  let timeout = Arg.(value & opt int 150 & info [ "timeout-ms" ] ~doc:"Client retry timeout (ms). Keep generous on oversubscribed hosts.") in
  let read_ratio = Arg.(value & opt float 0. & info [ "read-ratio" ] ~doc:"Fraction of read commands.") in
  let think = Arg.(value & opt int 0 & info [ "think-us" ] ~doc:"Client think time between requests (us).") in
  let run protocol transport replicas clients groups cross_shard duration drain
      seed slots slot_size timeout read_ratio think metrics_out =
    let spec =
      {
        (Live.default_spec ~protocol) with
        Live.n_replicas = replicas;
        n_clients = clients;
        groups;
        cross_shard_ratio = cross_shard;
        duration_s = duration;
        drain_s = drain;
        transport;
        seed;
        queue_slots = slots;
        slot_size;
        client_timeout = timeout * 1_000_000;
        think = think * 1_000;
        read_ratio;
      }
    in
    with_live spec @@ fun r ->
    let n_routers = if groups = 1 then 0 else groups in
    Format.printf
      "live %s (%s): %d replica + %d router + %d client %s on %d cores@."
      (Protocol.to_string protocol)
      (Live.transport_name transport)
      (groups * replicas) n_routers clients
      (match transport with Live.Spsc -> "domains" | Live.Socket -> "processes")
      r.Live.cores;
    Format.printf "  measured %.3fs  ops %d  throughput %.0f op/s@."
      r.Live.wall_s r.Live.ops r.Live.throughput;
    Format.printf "  latency %a@." Ci_stats.Summary.pp r.Live.latency;
    Format.printf "  retries %d  leader-changes %d  acceptor-changes %d@."
      r.Live.retries r.Live.leader_changes r.Live.acceptor_changes;
    let q = r.Live.queues in
    Format.printf "  queues %d  msgs %d  full-ring sends %d  occupancy-peak %d/%d@."
      q.Live.q_count q.Live.q_msgs q.Live.q_blocked q.Live.q_occupancy_peak
      slots;
    Format.printf "  full-ring sends per node: %s@."
      (String.concat " "
         (Array.to_list
            (Array.mapi (fun i b -> Printf.sprintf "n%d:%d" i b)
               r.Live.full_ring_sends)));
    Format.printf "  alloc %.0f words/op (replica+router domains)@."
      r.Live.alloc_words_per_op;
    Format.printf "%a@." Ci_rsm.Consistency.pp r.Live.consistency;
    let ok = report_checks r.Live.consistency r.Live.atomicity in
    Option.iter
      (fun path -> write_file path (Ci_obs.Metrics.to_json r.Live.metrics))
      metrics_out;
    if ok then 0 else 1
  in
  let term =
    Term.(
      const run $ protocol_arg $ transport $ replicas $ clients $ groups
      $ cross_shard $ duration $ drain $ seed $ slots $ slot_size $ timeout
      $ read_ratio $ think $ metrics_out)
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:"Run the protocol cores for real: OCaml 5 domains over shared-memory byte rings, or one process per node over sockets ($(b,--transport socket)).")
    term

(* ----- load ----------------------------------------------------------------- *)

let load_cmd =
  let module LS = Ci_load.Load_stats in
  let backend_conv = Arg.enum [ ("sim", `Sim); ("live", `Live) ] in
  let backend =
    Arg.(value & opt backend_conv `Sim & info [ "backend" ] ~doc:"Backend: $(b,sim) (discrete-event simulator, deterministic) or $(b,live) (the live runtime, over $(b,--transport)).")
  in
  let clients = Arg.(value & opt int 2 & info [ "c"; "clients" ] ~doc:"Driver count: one open-loop driver per client node; total offered load is $(b,--rate) times this.") in
  let rate = Arg.(value & opt float 50_000. & info [ "rate" ] ~doc:"Offered rate per driver (requests/second).") in
  let poisson = Arg.(value & flag & info [ "poisson" ] ~doc:"Poisson arrivals (exponential gaps) instead of the fixed-rate metronome.") in
  let key_dist_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "uniform" ] -> Ok Ci_load.Key_dist.Uniform
      | [ "zipf"; theta ] ->
        (try Ok (Ci_load.Key_dist.Zipf (float_of_string theta))
         with _ -> Error (`Msg "key-dist: expected zipf:THETA"))
      | [ "hotkey"; hot; spread ] ->
        (try
           Ok
             (Ci_load.Key_dist.Hotkey
                { hot = float_of_string hot; spread = float_of_string spread })
         with _ -> Error (`Msg "key-dist: expected hotkey:HOT:SPREAD"))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown key distribution %S (uniform|zipf:THETA|hotkey:HOT:SPREAD)"
                s))
    in
    Arg.conv (parse, Ci_load.Key_dist.pp_spec)
  in
  let key_dist =
    Arg.(value & opt key_dist_conv Ci_load.Key_dist.Uniform & info [ "key-dist" ] ~doc:"Key popularity: $(b,uniform), $(b,zipf:THETA) (0.99 is the YCSB default skew) or $(b,hotkey:HOT:SPREAD).")
  in
  let key_space = Arg.(value & opt int 65_536 & info [ "key-space" ] ~doc:"Keys drawn from [0, key-space).") in
  let reads = Arg.(value & opt float 0.9 & info [ "reads" ] ~doc:"Fraction of Get commands.") in
  let cas = Arg.(value & opt float 0. & info [ "cas" ] ~doc:"Fraction of compare-and-swap commands.") in
  let ranges = Arg.(value & opt float 0. & info [ "ranges" ] ~doc:"Fraction of single-shard Range commands.") in
  let range_span = Arg.(value & opt int 16 & info [ "range-span" ] ~doc:"Keys per Range command.") in
  let population = Arg.(value & opt int 100_000 & info [ "population" ] ~doc:"Logical clients multiplexed over the sessions (read-your-writes is tracked per logical client).") in
  let sessions = Arg.(value & opt int 16 & info [ "sessions" ] ~doc:"Concurrent in-flight sessions per driver.") in
  let lease_us = Arg.(value & opt int 0 & info [ "lease-us" ] ~doc:"Leader-lease duration (us): serve linearizable reads from the leader's local store while a majority's grants are unexpired. 0 disables leases (all reads go through consensus).") in
  let lease_skew_us = Arg.(value & opt int 0 & info [ "lease-skew-us" ] ~doc:"Clock-rate-skew margin (us) subtracted from every grant's validity at the leader; must be < $(b,--lease-us).") in
  let duration = Arg.(value & opt int 50 & info [ "d"; "duration-ms" ] ~doc:"Measurement window (ms).") in
  let warmup = Arg.(value & opt int 5 & info [ "warmup-ms" ] ~doc:"Warm-up before measuring (ms; simulator backend only).") in
  (* Print the pooled sink and the consistency verdict; exit 1 on a
     violation or a stale session read. *)
  let report ~offered ~lease ~lease_reads consistency load =
    let sink = Option.get load in
    let us ns = float_of_int ns /. 1e3 in
    let lp = LS.latency_percentiles sink in
    let sp = LS.service_percentiles sink in
    Format.printf "  offered %.0f op/s  issued %d  completed %d  achieved %.0f op/s@."
      offered (LS.issued sink) (LS.completed sink) (LS.throughput sink);
    Format.printf
      "  latency from intended arrival: p50 %.1fus  p99 %.1fus  p99.9 %.1fus@."
      (us lp.LS.p50) (us lp.LS.p99) (us lp.LS.p999);
    Format.printf
      "  latency from first send:       p50 %.1fus  p99 %.1fus  p99.9 %.1fus@."
      (us sp.LS.p50) (us sp.LS.p99) (us sp.LS.p999);
    Format.printf "  retries %d  rejected %d  max-backlog %d  stale session reads %d@."
      (LS.retries sink) (LS.rejected sink) (LS.max_backlog sink)
      (LS.stale_reads sink);
    if lease > 0 then
      Format.printf "  lease reads %d (leader-local, linearizable)@." lease_reads;
    Format.printf "%a@." Ci_rsm.Consistency.pp consistency;
    if Ci_rsm.Consistency.ok consistency && LS.stale_reads sink = 0 then 0 else 1
  in
  let run backend transport protocol replicas clients rate poisson key_dist
      key_space reads cas ranges range_span population sessions lease_us
      lease_skew_us duration warmup seed =
    let arrival =
      if poisson then Ci_load.Arrival.Poisson rate else Ci_load.Arrival.Fixed rate
    in
    let open_loop =
      {
        Runner.arrival;
        key_dist;
        key_space;
        mix = { Ci_load.Open_client.reads; cas; ranges };
        range_span;
        population;
        sessions;
      }
    in
    let offered = rate *. float_of_int clients in
    (match backend with
     | `Sim ->
       let spec =
         {
           (Runner.default_spec ~protocol
              ~placement:
                (Runner.Dedicated { n_replicas = replicas; n_clients = clients }))
           with
           Runner.duration = Sim_time.ms duration;
           warmup = Sim_time.ms warmup;
           seed;
           lease = Sim_time.us lease_us;
           lease_skew = Sim_time.us lease_skew_us;
           open_loop = Some open_loop;
         }
       in
       with_valid Runner.run spec @@ fun r ->
       Format.printf "load %s (sim): %d replicas, %d drivers@."
         (Protocol.to_string protocol) replicas clients;
       report ~offered ~lease:lease_us ~lease_reads:r.Runner.lease_reads
         r.Runner.consistency r.Runner.load
     | `Live ->
       let spec =
         {
           (Live.default_spec ~protocol) with
           Live.n_replicas = replicas;
           n_clients = clients;
           duration_s = float_of_int duration /. 1000.;
           transport;
           seed;
           lease = lease_us * 1_000;
           lease_skew = lease_skew_us * 1_000;
           open_loop = Some open_loop;
         }
       in
       with_live spec @@ fun r ->
       Format.printf "load %s (live, %s): %d replicas + %d drivers on %d cores@."
         (Protocol.to_string protocol) (Live.transport_name transport) replicas
         clients r.Live.cores;
       report ~offered ~lease:lease_us ~lease_reads:r.Live.lease_reads
         r.Live.consistency r.Live.load)
  in
  let term =
    Term.(
      const run $ backend $ transport $ protocol_arg $ replicas $ clients $ rate $ poisson
      $ key_dist $ key_space $ reads $ cas $ ranges $ range_span $ population
      $ sessions $ lease_us $ lease_skew_us $ duration $ warmup $ seed)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive open-loop load at the service: arrivals follow the offered schedule regardless of how the system keeps up, and latency is charged from each request's intended arrival (coordinated-omission aware).")
    term

(* ----- nemesis -------------------------------------------------------------- *)

(* Shared tail of a nemesis run: print the failover analysis and turn
   (consistency, recovery) into an exit code. "Recovered" means the
   failover window saw at least one commit after the fault onset. *)
let nemesis_verdict ~consistent (failover : Ci_obs.Failover.t option) =
  (match failover with
   | Some f -> Format.printf "failover: %a@." Ci_obs.Failover.pp f
   | None ->
     Format.printf "failover: n/a (first fault onset outside the measured window)@.");
  let recovered =
    match failover with
    | None -> true
    | Some f ->
      f.Ci_obs.Failover.time_to_failover <> None
      && f.Ci_obs.Failover.completions_after > 0
  in
  if not consistent then begin
    Format.eprintf "FAIL: consistency violation@.";
    1
  end
  else if not recovered then begin
    Format.eprintf "FAIL: the run never committed again after the fault@.";
    1
  end
  else 0

let nemesis_cmd =
  let backend =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("live", `Live) ]) `Sim
      & info [ "backend" ]
          ~doc:"Backend: $(b,sim) (virtual time) or $(b,live) (the live runtime, over $(b,--transport)).")
  in
  let clients =
    Arg.(
      value & opt (some int) None
      & info [ "c"; "clients" ] ~doc:"Client count (default: 5 sim, 2 live).")
  in
  let duration =
    Arg.(
      value & opt (some int) None
      & info [ "d"; "duration-ms" ]
          ~doc:"Measurement window in ms (default: 50 sim, 1200 live).")
  in
  let scenario =
    Arg.(
      value
      & opt (some (enum [ ("crash-acceptor", `Acceptor); ("crash-leader", `Leader) ])) None
      & info [ "scenario" ]
          ~doc:
            "Preset: crash the initial active acceptor (node 1) or the leader \
             (node 0) at 40% of the window and restart it 30% later.")
  in
  let crashes =
    Arg.(
      value & opt_all crash_conv []
      & info [ "crash" ] ~docv:"NODE:AT_MS[:DOWN_MS]"
          ~doc:
            "Crash $(i,NODE) at $(i,AT_MS), losing all volatile state; restart \
             it $(i,DOWN_MS) later through the protocol's recover path \
             (omitted: stays down). Repeatable.")
  in
  let pauses =
    Arg.(
      value & opt_all pause_conv []
      & info [ "pause" ] ~docv:"NODE:FROM_MS:UNTIL_MS"
          ~doc:"SIGSTOP/SIGCONT $(i,NODE) for the window; no state is lost. Repeatable.")
  in
  let drops =
    Arg.(
      value & opt_all (link_p_conv `Drop) []
      & info [ "drop" ] ~docv:"SRC:DST:FROM_MS:UNTIL_MS:P"
          ~doc:"Lose each $(i,SRC)->$(i,DST) message with probability $(i,P). Repeatable.")
  in
  let dups =
    Arg.(
      value & opt_all (link_p_conv `Dup) []
      & info [ "duplicate" ] ~docv:"SRC:DST:FROM_MS:UNTIL_MS:P"
          ~doc:"Deliver each $(i,SRC)->$(i,DST) message twice with probability $(i,P). Repeatable.")
  in
  let delays =
    Arg.(
      value & opt_all delay_conv []
      & info [ "delay" ] ~docv:"SRC:DST:FROM_MS:UNTIL_MS:EXTRA_US"
          ~doc:"Add $(i,EXTRA_US) of propagation to each $(i,SRC)->$(i,DST) message. Repeatable.")
  in
  let partitions =
    Arg.(
      value & opt_all partition_conv []
      & info [ "partition" ] ~docv:"FROM_MS:UNTIL_MS:GROUPS"
          ~doc:
            "Cut every link between nodes in different groups for the window; \
             groups are /-separated lists, e.g. $(b,10:20:0/1,2). Repeatable.")
  in
  let slows =
    Arg.(
      value & opt_all slow_conv []
      & info [ "slow-core" ] ~docv:"CORE:FROM_MS:UNTIL_MS:FACTOR"
          ~doc:"Slow a core by $(i,FACTOR) (simulator only). Repeatable.")
  in
  let run backend transport protocol replicas clients groups cross_shard
      duration seed scenario crashes pauses drops dups delays partitions slows =
    let dur_ms =
      match duration with
      | Some d -> d
      | None -> (match backend with `Sim -> 50 | `Live -> 1200)
    in
    let clients =
      match clients with
      | Some c -> c
      | None -> (match backend with `Sim -> 5 | `Live -> 2)
    in
    let scen =
      match scenario with
      | None -> []
      | Some which ->
        let node = match which with `Acceptor -> 1 | `Leader -> 0 in
        [
          Ci_faults.Crash
            {
              node;
              at = Sim_time.ms (dur_ms * 2 / 5);
              down_for = Some (Sim_time.ms (max 1 (dur_ms * 3 / 10)));
            };
        ]
    in
    let faults =
      scen @ crashes @ pauses @ drops @ dups @ delays @ partitions @ slows
    in
    let sched = { Ci_faults.seed; faults } in
    if faults = [] then begin
      Format.eprintf
        "empty fault schedule: pass --scenario or at least one of \
         --crash/--pause/--drop/--duplicate/--delay/--partition/--slow-core@.";
      1
    end
    else
      match backend with
      | `Sim ->
        let spec =
          {
            (Runner.default_spec ~protocol
               ~placement:
                 (Runner.Dedicated { n_replicas = replicas; n_clients = clients }))
            with
            Runner.duration = Sim_time.ms dur_ms;
            seed;
            groups;
            cross_shard_ratio = cross_shard;
            nemesis = sched;
          }
        in
        with_valid Runner.run spec @@ fun r ->
        Format.printf "%a@." Runner.pp_result r;
        nemesis_verdict
          ~consistent:(report_checks r.Runner.consistency r.Runner.atomicity)
          r.Runner.failover
      | `Live ->
        let spec =
          {
            (Live.default_spec ~protocol) with
            Live.n_replicas = replicas;
            n_clients = clients;
            groups;
            cross_shard_ratio = cross_shard;
            duration_s = float_of_int dur_ms /. 1000.;
            transport;
            seed;
            nemesis = sched;
          }
        in
        with_live spec @@ fun r ->
        Format.printf
          "live %s (%s): %d ops, %.0f op/s, retries %d, leader-changes %d, \
           acceptor-changes %d@."
          (Protocol.to_string protocol) (Live.transport_name transport)
          r.Live.ops r.Live.throughput r.Live.retries r.Live.leader_changes
          r.Live.acceptor_changes;
        Format.printf "%a@." Ci_rsm.Consistency.pp r.Live.consistency;
        nemesis_verdict
          ~consistent:(report_checks r.Live.consistency r.Live.atomicity)
          r.Live.failover
  in
  let term =
    Term.(
      const run $ backend $ transport $ protocol_arg $ replicas $ clients $ groups
      $ cross_shard $ duration $ seed $ scenario $ crashes $ pauses $ drops
      $ dups $ delays $ partitions $ slows)
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Run one experiment under a declarative fault schedule (crash, pause, \
          drop, duplicate, delay, partition, slow core) on either backend and \
          report the failover analysis; exits 1 on a consistency violation or \
          if commits never resume after the fault.")
    term

(* ----- figures -------------------------------------------------------------- *)

(* Live-backend twin of [E.failover]: the same crash-restart schedule on
   real domains, with wall-clock 100 ms buckets. *)
let live_failover_timelines () =
  let base =
    {
      (Live.default_spec ~protocol:Live.Onepaxos) with
      Live.duration_s = 1.2;
      drain_s = 0.3;
    }
  in
  let crash node =
    {
      base with
      Live.nemesis =
        {
          Ci_faults.seed = 42;
          faults =
            [
              Ci_faults.Crash
                { node; at = Sim_time.ms 400; down_for = Some (Sim_time.ms 300) };
            ];
        };
    }
  in
  let case label spec =
    let r = Live.run spec in
    if not (Ci_rsm.Consistency.ok r.Live.consistency) then
      failwith (label ^ ": consistency violation");
    {
      E.label;
      bucket_ms = 100.;
      rates = r.Live.timeline;
      leader_changes = r.Live.leader_changes;
      acceptor_changes = r.Live.acceptor_changes;
    }
  in
  [
    case "1Paxos live - crashed acceptor" (crash 1);
    case "1Paxos live - crashed leader" (crash 0);
    case "1Paxos live - no failure" base;
  ]

let figures_cmd =
  let sections :
      (string * (jobs:int ->
        [ `Series of E.series list
        | `Bars of E.bar list
        | `Timelines of E.timeline list
        | `Netchar of E.netchar_row list
        | `Latency of E.latency_row list
        | `Load of E.load_row list ])) list =
    [
      ("netchar", fun ~jobs -> `Netchar (E.netchar ~jobs ()));
      ("fig2", fun ~jobs -> `Series (E.fig2 ~jobs ()));
      ("latency", fun ~jobs -> `Latency (E.latency_table ~jobs ()));
      ("fig8", fun ~jobs -> `Series (E.fig8 ~jobs ()));
      ("fig9", fun ~jobs -> `Series (E.fig9 ~jobs ()));
      ("fig10", fun ~jobs -> `Bars (E.fig10 ~jobs ()));
      ("fig11", fun ~jobs -> `Timelines (E.fig11 ~jobs ()));
      ("sec2_2", fun ~jobs -> `Timelines (E.sec2_2 ~jobs ()));
      ("lan", fun ~jobs -> `Series (E.lan_1paxos ~jobs ()));
      ("ablation-placement", fun ~jobs -> `Series (E.ablation_placement ~jobs ()));
      ("ablation-slots", fun ~jobs -> `Series (E.ablation_slots ~jobs ()));
      ("ablation-ratio", fun ~jobs -> `Series (E.ablation_ratio ~jobs ()));
      ("ablation-batch", fun ~jobs -> `Series (E.ablation_batch ~jobs ()));
      ("ablation-pipeline", fun ~jobs -> `Series (E.ablation_pipeline ~jobs ()));
      ("ablation-coalesce", fun ~jobs -> `Series (E.ablation_coalesce ~jobs ()));
      ("protocols", fun ~jobs -> `Series (E.protocol_comparison ~jobs ()));
      ( "protocols-rdma",
        fun ~jobs -> `Series (E.protocol_comparison ~jobs ~params:Net_params.rdma ()) );
      ("failover", fun ~jobs -> `Timelines (E.failover ~jobs ()));
      ("failover-live", fun ~jobs:_ -> `Timelines (live_failover_timelines ()));
      ("shards", fun ~jobs -> `Series (E.shards ~jobs ()));
      ("load", fun ~jobs -> `Load (E.load_curve ~jobs ()));
    ]
  in
  (* The fault-injecting sections are opt-in: the default set must stay
     byte-identical run-to-run (and to pre-nemesis baselines), a promise
     wall-clock live runs cannot make. [shards] is opt-in too so the
     default figure set stays byte-identical to pre-sharding baselines,
     and [load] (ISSUE 9's open-loop service curves) likewise. *)
  let opt_in = [ "failover"; "failover-live"; "shards"; "load" ] in
  let default_names =
    List.filter (fun n -> not (List.mem n opt_in)) (List.map fst sections)
  in
  let which =
    Arg.(
      value & pos_all string default_names
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf
               "Sections to regenerate (default: all except the opt-in fault \
                sections %s): %s."
               (String.concat ", " opt_in)
               (String.concat ", " (List.map fst sections))))
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write each section as CSV (plus a gnuplot script) into $(docv).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Ci_workload.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for a section's independent simulation runs \
             (default: $(b,CI_JOBS) if set, else the core count). Output is \
             byte-identical at any value.")
  in
  let emit name out result =
    (match result with
     | `Series series -> Format.printf "%a" E.pp_series series
     | `Bars bars -> Format.printf "%a" E.pp_bars bars
     | `Timelines ts -> Format.printf "%a" E.pp_timelines ts
     | `Netchar rows -> Format.printf "%a" E.pp_netchar rows
     | `Latency rows -> Format.printf "%a" E.pp_latency_table rows
     | `Load rows -> Format.printf "%a" E.pp_load_table rows);
    match out with
    | None -> ()
    | Some dir ->
      let module R = Ci_workload.Report in
      let csv_name = name ^ ".csv" in
      let paths =
        match result with
        | `Series series ->
          let p = R.write_file ~dir ~name:csv_name (R.series_csv series) in
          let gp =
            R.write_file ~dir ~name:(name ^ ".gp")
              (R.gnuplot_series ~title:name ~xlabel:"clients / replicas"
                 ~csv:csv_name series)
          in
          [ p; gp ]
        | `Timelines ts ->
          let p = R.write_file ~dir ~name:csv_name (R.timelines_csv ts) in
          let gp =
            R.write_file ~dir ~name:(name ^ ".gp")
              (R.gnuplot_timelines ~title:name ~csv:csv_name ts)
          in
          [ p; gp ]
        | `Bars bars -> [ R.write_file ~dir ~name:csv_name (R.bars_csv bars) ]
        | `Netchar rows -> [ R.write_file ~dir ~name:csv_name (R.netchar_csv rows) ]
        | `Latency rows -> [ R.write_file ~dir ~name:csv_name (R.latency_csv rows) ]
        | `Load rows -> [ R.write_file ~dir ~name:csv_name (R.load_csv rows) ]
      in
      List.iter (Format.printf "wrote %s@.") paths
  in
  let run which out jobs =
    if jobs < 1 then begin
      Format.eprintf "--jobs must be >= 1@.";
      exit 1
    end;
    List.fold_left
      (fun code name ->
        match List.assoc_opt name sections with
        | Some f ->
          Format.printf "== %s ==@." name;
          emit name out (f ~jobs);
          code
        | None ->
          Format.eprintf "unknown section %S@." name;
          1)
      0 which
  in
  let term = Term.(const run $ which $ out_dir $ jobs) in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.") term

(* ----- explore: bounded model checking --------------------------------- *)

let explore_cmd =
  let module Trace = Ci_explore.Trace in
  let module Search = Ci_explore.Search in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count (2-7).")
  in
  let clients =
    Arg.(value & opt int 1 & info [ "clients" ] ~doc:"Client count (1-4).")
  in
  let commands =
    Arg.(value & opt int 2 & info [ "commands" ] ~doc:"Commands per client (1-8).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Per-node RNG seed.") in
  let drops =
    Arg.(value & opt int 0 & info [ "drops" ] ~doc:"Message-drop fault budget.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:"Crash fault budget (majority-preserving crashes only).")
  in
  let fires =
    Arg.(
      value & opt int 4
      & info [ "fires" ] ~doc:"Timer-fire budget per node per execution.")
  in
  let max_depth =
    Arg.(
      value & opt int Search.default_bounds.Search.max_depth
      & info [ "max-depth" ] ~doc:"Deepest choice prefix explored.")
  in
  let max_states =
    Arg.(
      value & opt int Search.default_bounds.Search.max_states
      & info [ "max-states" ] ~doc:"State budget before giving up.")
  in
  let stale_adoption =
    Arg.(
      value & flag
      & info [ "stale-adoption" ]
          ~doc:
            "Re-seed the historical 1Paxos stale-adoption split-brain (test \
             fixture; the checker should find it).")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the shrunk counterexample trace to $(docv).")
  in
  let events_out =
    Arg.(
      value & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:
            "Write the typed event log (JSON lines) of the replayed \
             counterexample, or of the $(b,--replay) execution, to $(docv).")
  in
  let replay_file =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a trace written by $(b,--trace-out) instead of exploring; \
             all bound/config flags are ignored (the trace header wins).")
  in
  let events_sidecar events_out cfg choices =
    match events_out with
    | None -> ()
    | Some path ->
      let ring = Ci_obs.Event.create_ring () in
      ignore (Search.replay ~ring cfg choices);
      write_file path (Ci_obs.Event.to_jsonl ring)
  in
  let print_stats (s : Search.stats) =
    let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
    Format.printf
      "states=%d executions=%d choices=%d branches=%d dedup_hits=%d \
       dedup_ratio=%.3f sleep_skips=%d sleep_ratio=%.3f rounds=%d closures=%d@."
      s.Search.states s.Search.executions s.Search.choices_applied
      s.Search.branches s.Search.dedup_hits
      (ratio s.Search.dedup_hits (s.Search.dedup_hits + s.Search.states))
      s.Search.sleep_skips
      (ratio s.Search.sleep_skips (s.Search.sleep_skips + s.Search.branches))
      s.Search.deepening_rounds s.Search.closures
  in
  let run protocol replicas clients commands seed drops crashes fires max_depth
      max_states stale_adoption trace_out events_out replay_file =
    match replay_file with
    | Some path -> (
      let contents =
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      match Trace.of_string contents with
      | Error msg ->
        Format.eprintf "unreadable trace %s: %s@." path msg;
        2
      | Ok (cfg, choices) -> (
        Format.printf "%s@." (Trace.config_to_line cfg);
        Format.printf "trace-hash=%s choices=%d@." (Trace.hash_hex choices)
          (List.length choices);
        events_sidecar events_out cfg choices;
        match Search.replay cfg choices with
        | Error msg ->
          Format.eprintf "replay diverged: %s@." msg;
          2
        | Ok None ->
          Format.printf "verdict=live@.";
          0
        | Ok (Some v) ->
          Format.printf "verdict=violation@.%a@." Search.pp_violation v;
          1))
    | None -> (
      let cfg =
        {
          Trace.protocol;
          n_replicas = replicas;
          n_clients = clients;
          n_commands = commands;
          seed;
          drop_budget = drops;
          crash_budget = crashes;
          fire_budget = fires;
          unsafe_stale_adoption = stale_adoption;
        }
      in
      match Trace.validate_config cfg with
      | Error msg ->
        Format.eprintf "bad config: %s@." msg;
        2
      | Ok () -> (
        let bounds =
          { Search.default_bounds with Search.max_depth; max_states }
        in
        Format.printf "%s@." (Trace.config_to_line cfg);
        let { Search.outcome; stats } = Search.explore ~bounds cfg in
        print_stats stats;
        match outcome with
        | Search.Exhausted ->
          Format.printf "outcome=exhausted@.";
          0
        | Search.Bounded ->
          Format.printf "outcome=bounded@.";
          0
        | Search.Violated { trace; violation = _; shrunk; shrunk_violation } ->
          Format.printf "outcome=violation@.%a@." Search.pp_violation
            shrunk_violation;
          Format.printf
            "counterexample: %d choices (shrunk from %d), trace-hash=%s@."
            (List.length shrunk) (List.length trace) (Trace.hash_hex shrunk);
          List.iter
            (fun c -> Format.printf "  %s@." (Trace.choice_to_line c))
            shrunk;
          (match trace_out with
          | Some path -> write_file path (Trace.to_string ~config:cfg shrunk)
          | None -> ());
          events_sidecar events_out cfg shrunk;
          1))
  in
  let term =
    Term.(
      const run $ protocol_arg $ replicas $ clients $ commands $ seed $ drops
      $ crashes $ fires $ max_depth $ max_states $ stale_adoption $ trace_out
      $ events_out $ replay_file)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded model checking: exhaust delivery orderings and fault \
          placements of a small configuration, checking consistency at every \
          state and liveness at quiescent ones; shrink any counterexample to \
          a minimal replayable trace. Exits 1 on violation.")
    term

let () =
  let info =
    Cmd.info "consensus_sim" ~version:"1.0.0"
      ~doc:"Consensus Inside (Middleware 2014) reproduction: 1Paxos, Multi-Paxos and 2PC on a simulated many-core."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; live_cmd; load_cmd; nemesis_cmd; figures_cmd; explore_cmd ]))
