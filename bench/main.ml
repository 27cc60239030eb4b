(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections E1..E9 below, indexed in DESIGN.md) and finishes
   with a bechamel micro-benchmark suite of the building blocks.

   Usage: main.exe [--jobs N] [section ...]
   Sections: netchar fig2 latency fig8 fig9 fig10 fig11 sec2_2 lan
             ablation batching protocols metrics engine runtime shards
             service faults micro (default: all).

   [--jobs N] (or CI_JOBS) fans the independent simulation runs inside
   each section out over N domains; the printed figures are
   byte-identical at any N. With N > 1 the figure sections are re-timed
   at jobs=1 (output suppressed) and a per-section wall-clock
   comparison table is printed at the end. *)

module E = Ci_workload.Experiments
module Pool = Ci_workload.Pool
module Sim_time = Ci_engine.Sim_time

(* Wall-clock per section, collected for BENCH_engine.json. The sink is
   swapped when re-timing sections at jobs=1. *)
let section_walls : (string * float) list ref = ref []
let section_walls_j1 : (string * float) list ref = ref []
let walls_sink = ref section_walls

let section name paper_note f =
  Format.printf "@.======================================================================@.";
  Format.printf "%s@." name;
  Format.printf "  paper: %s@." paper_note;
  Format.printf "======================================================================@.";
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  !walls_sink := (name, wall) :: !(!walls_sink);
  Format.printf "[section wall-clock: %.2fs]@." wall;
  Format.print_flush ()

(* Run [f] with formatter output discarded — used to re-time a section
   at jobs=1 without printing its (byte-identical) figures twice. *)
let quietly f =
  Format.print_flush ();
  let old = Format.get_formatter_out_functions () in
  Format.set_formatter_out_functions
    {
      Format.out_string = (fun _ _ _ -> ());
      out_flush = ignore;
      out_newline = ignore;
      out_spaces = ignore;
      out_indent = ignore;
    };
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      Format.set_formatter_out_functions old)
    f

let netchar ~jobs =
  section "E1. Network characteristics (Section 3)"
    "multicore: trans 0.5us, prop 0.55us, ratio ~1; LAN: 2us / 135us, ratio ~0.015"
    (fun () -> Format.printf "%a" E.pp_netchar (E.netchar ~jobs ()))

let fig2 ~jobs =
  section "E2. Figure 2: Multi-Paxos scalability, LAN vs multicore"
    "LAN keeps improving up to ~100 clients; multicore saturates after ~3 clients"
    (fun () -> Format.printf "%a" E.pp_series (E.fig2 ~jobs ()))

let latency ~jobs =
  section "E4. Section 7.2: single-client commit latency"
    "1Paxos 16us < Multi-Paxos 19.6us < 2PC 21.4us"
    (fun () -> Format.printf "%a" E.pp_latency_table (E.latency_table ~jobs ()))

let fig8 ~jobs =
  section "E5. Figure 8: latency vs throughput, 1..45 clients, 3 replicas"
    "1Paxos scales ~2x from 1 client and peaks ~2x Multi-Paxos (52%) and 2PC (48%)"
    (fun () -> Format.printf "%a" E.pp_series (E.fig8 ~jobs ()))

let fig9 ~jobs =
  section "E6. Figure 9: joint deployment, throughput vs number of replicas"
    "1Paxos-Joint grows ~linearly to 47 nodes; others peak ~20 nodes then decline"
    (fun () -> Format.printf "%a" E.pp_series (E.fig9 ~jobs ()))

let fig10 ~jobs =
  section "E7. Figure 10: 2PC-Joint read mixes vs 1Paxos"
    "2PC-Joint improves with read share; at 75% reads 3 clients it rivals 1Paxos, \
     but more clients erode it"
    (fun () -> Format.printf "%a" E.pp_bars (E.fig10 ~jobs ()))

let fig11 ~jobs =
  section "E8. Figure 11: 1Paxos throughput while the leader becomes slow"
    "throughput dips during the leader change, then recovers to the same level"
    (fun () -> Format.printf "%a" E.pp_timelines (E.fig11 ~jobs ()))

let sec2_2 ~jobs =
  section "E3. Section 2.2: 2PC throughput while the coordinator becomes slow"
    "after the coordinator slows down, throughput drops to ~zero and stays there"
    (fun () -> Format.printf "%a" E.pp_timelines (E.sec2_2 ~jobs ()))

let lan ~jobs =
  section "E9. Section 8: 1Paxos vs Multi-Paxos over an IP network"
    "1Paxos improved throughput by a factor of ~2.88 over Multi-Paxos"
    (fun () ->
      let series = E.lan_1paxos ~jobs () in
      Format.printf "%a" E.pp_series series;
      match series with
      | [ mp; op ] ->
        let peak s =
          List.fold_left (fun m (p : E.point) -> Float.max m p.E.throughput) 0. s.E.points
        in
        Format.printf "peak ratio (1Paxos / Multi-Paxos): %.2f@." (peak op /. peak mp)
      | _ -> ())

let protocols ~jobs =
  section "A4. Related protocols (Section 8): all five on one machine"
    "Mencius spreads the leader load; Cheap Paxos needs 6 msgs/commit, 1Paxos 5"
    (fun () -> Format.printf "%a" E.pp_series (E.protocol_comparison ~jobs ()));
  section "A5. The same five protocols on rack-scale RDMA (Section 9 outlook)"
    "no inter-machine cache coherence; 1Paxos as the software coherence layer"
    (fun () ->
      Format.printf "%a" E.pp_series
        (E.protocol_comparison ~jobs ~params:Ci_machine.Net_params.rdma ()))

let ablation ~jobs =
  section "A1. Ablation: acceptor placement under a slow leader (Section 5.4)"
    "colocating leader and acceptor couples their failure domains"
    (fun () -> Format.printf "%a" E.pp_series (E.ablation_placement ~jobs ()));
  section "A2. Ablation: channel slot count (Section 6.1: QC-libtask uses 7)"
    "single-slot queues serialize on the head pointer round trip"
    (fun () -> Format.printf "%a" E.pp_series (E.ablation_slots ~jobs ()));
  section "A3. Ablation: 1Paxos advantage as propagation grows towards IP delays"
    "the message-count saving is a transmission-delay phenomenon"
    (fun () -> Format.printf "%a" E.pp_series (E.ablation_ratio ~jobs ()))

let batching ~jobs =
  section "A6. Ablation: leader batching (1Paxos and Multi-Paxos, 44 clients)"
    "this reproduction's addition: one consensus instance per batch amortizes \
     the leader's per-message transmission cost"
    (fun () ->
      let series = E.ablation_batch ~jobs () in
      Format.printf "%a" E.pp_series series;
      let peak_of (s : E.series) =
        List.fold_left (fun m (p : E.point) -> Float.max m p.E.throughput) 0. s.E.points
      in
      let base_of (s : E.series) =
        match s.E.points with p :: _ -> p.E.throughput | [] -> 1.
      in
      List.iter
        (fun (s : E.series) ->
          Format.printf "%s: batch>=8 peak / batch=1 baseline = %.2fx@." s.E.label
            (peak_of s /. base_of s))
        series);
  section "A7. Ablation: pipeline depth (batch 8, coalesce 16)"
    "depth 1 is stop-and-wait per batch; a small window hides the accept round trip"
    (fun () -> Format.printf "%a" E.pp_series (E.ablation_pipeline ~jobs ()));
  section "A8. Ablation: receive coalescing budget (batch 8, pipeline 8)"
    "draining k queued messages per reception charge models vectored reads"
    (fun () -> Format.printf "%a" E.pp_series (E.ablation_coalesce ~jobs ()))

(* ----- engine self-benchmark --------------------------------------------- *)

type engine_stats = {
  evq_mops : float;  (* event-queue push+pop pairs per second, millions *)
  run_wall_s : float;
  run_sim_events : int;
  run_events_per_sec : float;
  run_alloc_words : float;
  run_throughput : float;
  jobs : int;
  batch_wall_j1 : float;  (* fixed 8-run batch at jobs=1 *)
  batch_wall_jn : float;  (* the same batch at jobs=N *)
  parallel_speedup : float;
}

let engine_stats : engine_stats option ref = ref None

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let engine ~jobs =
  section "Engine self-benchmark"
    "host-side speed of the simulation engine itself (not simulated time)"
    (fun () ->
      (* Event-queue micro: push/pop pairs through a live heap. *)
      let n = 100_000 and rounds = 20 in
      let q = Ci_engine.Event_queue.create () in
      let t0 = Unix.gettimeofday () in
      for r = 0 to rounds - 1 do
        for i = 0 to n - 1 do
          Ci_engine.Event_queue.push q ~time:(((i * 7919) + r) mod 4096) i
        done;
        while not (Ci_engine.Event_queue.is_empty q) do
          ignore (Ci_engine.Event_queue.pop q)
        done
      done;
      let evq_wall = Unix.gettimeofday () -. t0 in
      let evq_mops = float_of_int (n * rounds) /. evq_wall /. 1e6 in
      Format.printf "event queue: %.1f M push+pop pairs/s@." evq_mops;
      (* Standard run: wall-clock and allocation for a default 1Paxos
         experiment, plus the engine's events/sec on it. *)
      let module Runner = Ci_workload.Runner in
      let spec =
        Runner.default_spec ~protocol:Runner.Onepaxos
          ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 })
      in
      let w0 = alloc_words () in
      let t0 = Unix.gettimeofday () in
      let r = Runner.run spec in
      let run_wall_s = Unix.gettimeofday () -. t0 in
      let run_alloc_words = alloc_words () -. w0 in
      let run_events_per_sec = float_of_int r.Runner.sim_events /. run_wall_s in
      Format.printf
        "1paxos 3r/13c 50ms run: wall %.2fs, %d events (%.0f events/s), \
         %.1f M words allocated, simulated %.0f op/s@."
        run_wall_s r.Runner.sim_events run_events_per_sec
        (run_alloc_words /. 1e6) r.Runner.throughput;
      Format.printf "allocation: %.1f words/event@."
        (run_alloc_words /. float_of_int r.Runner.sim_events);
      (* Parallel batch: the same experiment shape at 8 different seeds,
         once on one domain and once on [jobs] — the controlled speedup
         measurement behind BENCH_engine.json's parallel_speedup. *)
      let specs =
        Array.init 8 (fun i ->
            {
              (Runner.default_spec ~protocol:Runner.Onepaxos
                 ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 13 }))
              with
              Runner.seed = 42 + i;
            })
      in
      let fingerprint (r : Runner.result) =
        (r.Runner.sim_events, r.Runner.commits, r.Runner.throughput)
      in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let r1, batch_wall_j1 =
        timed (fun () -> Pool.parallel_map ~jobs:1 Runner.run specs)
      in
      let rn, batch_wall_jn =
        timed (fun () -> Pool.parallel_map ~jobs Runner.run specs)
      in
      if Array.map fingerprint r1 <> Array.map fingerprint rn then
        failwith "engine: parallel batch results differ across jobs";
      let parallel_speedup = batch_wall_j1 /. batch_wall_jn in
      Format.printf
        "parallel batch (8 seeds): jobs=1 %.2fs, jobs=%d %.2fs, speedup \
         %.2fx, results identical@."
        batch_wall_j1 jobs batch_wall_jn parallel_speedup;
      engine_stats :=
        Some
          {
            evq_mops;
            run_wall_s;
            run_sim_events = r.Runner.sim_events;
            run_events_per_sec;
            run_alloc_words;
            run_throughput = r.Runner.throughput;
            jobs;
            batch_wall_j1;
            batch_wall_jn;
            parallel_speedup;
          })

(* ----- live runtime benchmark -------------------------------------------- *)

(* One row per protocol x replica count, collected for
   BENCH_runtime.json. Unlike every section above, these numbers are
   real wall-clock throughput of the protocol cores on this host's
   domains, not simulated time. *)
type runtime_row = {
  rt_protocol : string;
  rt_transport : string;
  rt_replicas : int;
  rt_ops : int;
  rt_throughput : float;
  rt_p50_us : float;
  rt_p99_us : float;
  rt_retries : int;
  rt_q_blocked : int;
  rt_full_ring : int array;  (* per-node full-ring sends *)
  rt_alloc_words_per_op : float;
  rt_consistent : bool;
}

type runtime_stats = { rt_cores : int; rt_rows : runtime_row list }

let runtime_stats : runtime_stats option ref = ref None

let runtime ~jobs:_ =
  section "R1. Live runtime: the same cores on real domains (Section 6)"
    "wall-clock op/s of 1Paxos vs Multi-Paxos over byte rings and sockets"
    (fun () ->
      let module Live = Ci_runtime.Live in
      let cores = Domain.recommended_domain_count () in
      let row protocol transport n_replicas =
        let spec =
          {
            (Live.default_spec ~protocol) with
            Live.n_replicas;
            n_clients = 2;
            transport;
            duration_s = 1.0;
            drain_s = 0.2;
          }
        in
        let r = Live.run spec in
        {
          rt_protocol = Ci_consensus.Protocol.to_string protocol;
          rt_transport = Live.transport_name transport;
          rt_replicas = n_replicas;
          rt_ops = r.Live.ops;
          rt_throughput = r.Live.throughput;
          rt_p50_us = float_of_int r.Live.latency.Ci_stats.Summary.p50 /. 1e3;
          rt_p99_us = float_of_int r.Live.latency.Ci_stats.Summary.p99 /. 1e3;
          rt_retries = r.Live.retries;
          rt_q_blocked = r.Live.queues.Live.q_blocked;
          rt_full_ring = r.Live.full_ring_sends;
          rt_alloc_words_per_op = r.Live.alloc_words_per_op;
          rt_consistent = Ci_rsm.Consistency.ok r.Live.consistency;
        }
      in
      (* Socket rows first: Unix.fork is refused once this process has
         ever spawned a domain, and the spsc rows spawn plenty. Skipped
         (not failed) when fork or socketpairs are unavailable — e.g.
         when an earlier section already went multicore. *)
      let socket_rows =
        match
          [
            row Live.Onepaxos Live.Socket 3;
            row Live.Multipaxos Live.Socket 3;
          ]
        with
        | rows -> rows
        | exception Unix.Unix_error (e, fn, _) ->
          Format.printf "socket transport unavailable (%s: %s); skipping@." fn
            (Unix.error_message e);
          []
        | exception Failure m when String.length m >= 9 && String.sub m 0 9 = "Unix.fork" ->
          Format.printf "socket transport unavailable (%s); skipping@." m;
          []
      in
      let spsc_rows =
        List.concat_map
          (fun n ->
            [ row Live.Onepaxos Live.Spsc n; row Live.Multipaxos Live.Spsc n ])
          [ 3; 5 ]
      in
      let rows = spsc_rows @ socket_rows in
      Format.printf "%d cores, 2 client domains, 1.0s measured per cell@." cores;
      Format.printf "%-12s %-9s %9s %12s %10s %10s %10s %12s@." "protocol"
        "transport" "replicas" "op/s" "p50(us)" "p99(us)" "alloc w/op"
        "consistent";
      List.iter
        (fun r ->
          Format.printf "%-12s %-9s %9d %12.0f %10.1f %10.1f %10.0f %12s@."
            r.rt_protocol r.rt_transport r.rt_replicas r.rt_throughput
            r.rt_p50_us r.rt_p99_us r.rt_alloc_words_per_op
            (if r.rt_consistent then "yes" else "NO");
          if not r.rt_consistent then
            failwith
              (Printf.sprintf "runtime: %s/%s with %d replicas was inconsistent"
                 r.rt_protocol r.rt_transport r.rt_replicas))
        rows;
      runtime_stats := Some { rt_cores = cores; rt_rows = rows })

let write_runtime_json () =
  match !runtime_stats with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" s.rt_cores);
    Buffer.add_string buf "  \"rows\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"protocol\": \"%s\", \"transport\": \"%s\", \
              \"replicas\": %d, \"ops\": %d, \
              \"throughput_ops\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, \
              \"retries\": %d, \"full_ring_sends\": %d, \
              \"full_ring_sends_per_node\": [%s], \
              \"alloc_words_per_op\": %.0f, \"consistent\": %b}%s\n"
             r.rt_protocol r.rt_transport r.rt_replicas r.rt_ops
             r.rt_throughput r.rt_p50_us r.rt_p99_us r.rt_retries r.rt_q_blocked
             (String.concat ", "
                (Array.to_list (Array.map string_of_int r.rt_full_ring)))
             r.rt_alloc_words_per_op r.rt_consistent
             (if i = List.length s.rt_rows - 1 then "" else ",")))
      s.rt_rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_runtime.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_runtime.json@."

(* ----- wire codec benchmark ----------------------------------------------- *)

(* Per-message encode/decode cost of the fixed-slot wire codec, plus a
   single-threaded slot-size sweep of the byte ring it feeds — the
   numbers behind the default [slot_size]. Collected for
   BENCH_codec.json. *)
type codec_msg_row = {
  cd_name : string;
  cd_bytes : int;
  cd_encode_ns : float;
  cd_decode_ns : float;
}

type codec_sweep_row = {
  cd_slot : int;
  cd_ns_per_msg : float;  (* encode + ring push + pop + decode *)
  cd_spilled : bool;  (* did the batch message span slots? *)
}

type codec_stats = {
  cd_msgs : codec_msg_row list;
  cd_sweep : codec_sweep_row list;
}

let codec_stats : codec_stats option ref = ref None

let codec ~jobs:_ =
  section "C1. Wire codec: fixed-slot encode/decode + ring slot-size sweep"
    "ns per message through the zero-copy codec and the byte-slot SPSC ring"
    (fun () ->
      let module Wire = Ci_consensus.Wire in
      let module Codec = Ci_consensus.Codec in
      let module Command = Ci_rsm.Command in
      let module Pn = Ci_consensus.Pn in
      let module Clock = Ci_runtime.Clock in
      let value client req_id =
        { Wire.client; req_id; cmd = Command.Put { key = 7; data = 123456 } }
      in
      let pn = Pn.make ~round:3 ~owner:1 in
      (* The protocols' hot-path vocabulary plus one spilling batch. *)
      let mix =
        [
          ("Request", Wire.Request { req_id = 42; cmd = Command.Put { key = 7; data = 99 }; relaxed_read = false });
          ("Reply", Wire.Reply { req_id = 42; result = Command.Done });
          ("Op_accept_request", Wire.Op_accept_request { inst = 1000; pn; v = value 5 42 });
          ("Op_learn", Wire.Op_learn { inst = 1000; v = value 5 42 });
          ("Mp_accept", Wire.Mp_accept { inst = 1000; pn; v = value 5 42 });
          ("Mp_learn", Wire.Mp_learn { inst = 1000; pn; v = value 5 42 });
          ( "Op_accept_batch(8)",
            Wire.Op_accept_batch
              { base = 1000; pn; vs = Array.init 8 (fun i -> value 5 (100 + i)) } );
        ]
      in
      let buf = Bytes.create 4096 in
      let iters = 200_000 in
      let time f =
        for _ = 1 to 10_000 do f () done;
        let t0 = Clock.now_ns () in
        for _ = 1 to iters do f () done;
        float_of_int (Clock.now_ns () - t0) /. float_of_int iters
      in
      let msg_rows =
        List.map
          (fun (name, msg) ->
            let len = Codec.encode msg buf ~pos:0 in
            {
              cd_name = name;
              cd_bytes = len;
              cd_encode_ns = time (fun () -> ignore (Codec.encode msg buf ~pos:0));
              cd_decode_ns =
                time (fun () -> ignore (Codec.decode buf ~pos:0 ~len));
            })
          mix
      in
      Format.printf "%-22s %8s %12s %12s@." "message" "bytes" "encode(ns)"
        "decode(ns)";
      List.iter
        (fun r ->
          Format.printf "%-22s %8d %12.0f %12.0f@." r.cd_name r.cd_bytes
            r.cd_encode_ns r.cd_decode_ns)
        msg_rows;
      (* Slot-size sweep: the full mix round-trips through one ring,
         single-threaded — encode+push+pop+decode per message. Small
         slots make the batch spill across several; big slots waste
         bytes but never spill. *)
      let module Sb = Ci_runtime.Spsc_bytes in
      let sweep_rows =
        List.map
          (fun slot_size ->
            let q = Sb.create ~slots:64 ~slot_size in
            let msgs = Array.of_list (List.map snd mix) in
            let n_mix = Array.length msgs in
            let step i =
              let m = msgs.(i mod n_mix) in
              if not (Sb.try_push q m) then failwith "codec sweep: ring full";
              match Sb.try_pop q with
              | Some _ -> ()
              | None -> failwith "codec sweep: ring empty"
            in
            let i = ref 0 in
            let ns =
              time (fun () ->
                  step !i;
                  incr i)
            in
            let batch_bytes = Codec.encoded_size (List.assoc "Op_accept_batch(8)" mix) in
            { cd_slot = slot_size; cd_ns_per_msg = ns; cd_spilled = batch_bytes > slot_size })
          [ 64; 128; 256; 512 ]
      in
      Format.printf "@.%-10s %14s %10s@." "slot_size" "ns/msg (ring)" "spills";
      List.iter
        (fun r ->
          Format.printf "%-10d %14.0f %10s@." r.cd_slot r.cd_ns_per_msg
            (if r.cd_spilled then "yes" else "no"))
        sweep_rows;
      codec_stats := Some { cd_msgs = msg_rows; cd_sweep = sweep_rows })

let write_codec_json () =
  match !codec_stats with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"messages\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"message\": \"%s\", \"bytes\": %d, \"encode_ns\": %.0f, \
              \"decode_ns\": %.0f}%s\n"
             r.cd_name r.cd_bytes r.cd_encode_ns r.cd_decode_ns
             (if i = List.length s.cd_msgs - 1 then "" else ",")))
      s.cd_msgs;
    Buffer.add_string buf "  ],\n  \"slot_sweep\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"slot_size\": %d, \"ns_per_msg\": %.0f, \"batch_spills\": %b}%s\n"
             r.cd_slot r.cd_ns_per_msg r.cd_spilled
             (if i = List.length s.cd_sweep - 1 then "" else ",")))
      s.cd_sweep;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_codec.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_codec.json@."

(* ----- sharded scaling benchmark ------------------------------------------ *)

(* One row per protocol x group count, collected for BENCH_shards.json:
   live wall-clock throughput as the keyspace is sharded over more
   independent consensus groups (ISSUE 7's tentpole). On hosts with
   enough cores the curve should grow near-linearly in the group count;
   on an oversubscribed host it stays honest and flat — either way every
   point must be consistent per group and atomic across groups. *)
type shards_row = {
  sh_protocol : string;
  sh_groups : int;
  sh_ops : int;
  sh_throughput : float;
  sh_cross_committed : int;
  sh_cross_aborted : int;
  sh_alloc_words_per_op : float;
  sh_consistent : bool;
  sh_atomic : bool;
}

type shards_stats = { sh_cores : int; sh_rows : shards_row list }

let shards_stats : shards_stats option ref = ref None

let shards ~jobs:_ =
  section "S1. Sharded multi-group scaling (live, 2 clients, 0.5s per cell)"
    "this reproduction's addition: hash-partition the keyspace over N \
     1Paxos/Multi-Paxos groups on distinct cores, 2PC for cross-shard writes"
    (fun () ->
      let module Live = Ci_runtime.Live in
      let cores = Domain.recommended_domain_count () in
      let row protocol groups =
        let spec =
          {
            (Live.default_spec ~protocol) with
            Live.n_replicas = 3;
            n_clients = 2;
            groups;
            cross_shard_ratio = (if groups = 1 then 0. else 0.05);
            duration_s = 0.5;
            drain_s = 0.2;
          }
        in
        let r = Live.run spec in
        let committed, aborted =
          match r.Live.atomicity with
          | Some a -> (a.Ci_rsm.Atomicity.committed, a.Ci_rsm.Atomicity.aborted)
          | None -> (0, 0)
        in
        {
          sh_protocol = Ci_consensus.Protocol.to_string protocol;
          sh_groups = groups;
          sh_ops = r.Live.ops;
          sh_throughput = r.Live.throughput;
          sh_cross_committed = committed;
          sh_cross_aborted = aborted;
          sh_alloc_words_per_op = r.Live.alloc_words_per_op;
          sh_consistent = Ci_rsm.Consistency.ok r.Live.consistency;
          sh_atomic =
            (match r.Live.atomicity with
            | Some a -> Ci_rsm.Atomicity.ok a
            | None -> true);
        }
      in
      let rows =
        List.concat_map
          (fun p -> List.map (row p) [ 1; 2; 4 ])
          [ Live.Onepaxos; Live.Multipaxos ]
      in
      Format.printf "%d cores; 3 replicas/group, 5%% cross-shard above 1 group@."
        cores;
      Format.printf "%-12s %7s %12s %11s %9s %11s %8s@." "protocol" "groups"
        "op/s" "2pc-commit" "2pc-abort" "consistent" "atomic";
      List.iter
        (fun r ->
          Format.printf "%-12s %7d %12.0f %11d %9d %11s %8s@." r.sh_protocol
            r.sh_groups r.sh_throughput r.sh_cross_committed r.sh_cross_aborted
            (if r.sh_consistent then "yes" else "NO")
            (if r.sh_atomic then "yes" else "NO");
          if not r.sh_consistent then
            failwith
              (Printf.sprintf "shards: %s with %d groups was inconsistent"
                 r.sh_protocol r.sh_groups);
          if not r.sh_atomic then
            failwith
              (Printf.sprintf
                 "shards: %s with %d groups violated cross-shard atomicity"
                 r.sh_protocol r.sh_groups))
        rows;
      shards_stats := Some { sh_cores = cores; sh_rows = rows })

let write_shards_json () =
  match !shards_stats with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" s.sh_cores);
    Buffer.add_string buf "  \"rows\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"protocol\": \"%s\", \"groups\": %d, \"ops\": %d, \
              \"throughput_ops\": %.0f, \"cross_shard_committed\": %d, \
              \"cross_shard_aborted\": %d, \"alloc_words_per_op\": %.1f, \
              \"consistent\": %b, \"atomic\": %b}%s\n"
             r.sh_protocol r.sh_groups r.sh_ops r.sh_throughput
             r.sh_cross_committed r.sh_cross_aborted r.sh_alloc_words_per_op
             r.sh_consistent r.sh_atomic
             (if i = List.length s.sh_rows - 1 then "" else ",")))
      s.sh_rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_shards.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_shards.json@."

(* ----- open-loop service benchmark ---------------------------------------- *)

(* One row per backend x curve x offered load, collected for
   BENCH_service.json: the ISSUE 9 service curves — p50/p99/p999 charged
   from each request's *intended* arrival (coordinated-omission aware)
   as the open-loop driver sweeps the offered rate past saturation, with
   and without leader leases at a 90%-read mix. The knee is flagged on
   each p99 curve. *)
type service_row = {
  sv_backend : string; (* "sim" | "live" *)
  sv_label : string; (* "1paxos", "multipaxos +lease", ... *)
  sv_offered : float;
  sv_achieved : float;
  sv_p50_us : float;
  sv_p99_us : float;
  sv_p999_us : float;
  sv_service_p99_us : float;
  sv_lease_reads : int;
  sv_knee : bool;
}

type service_stats = { sv_cores : int; sv_rows : service_row list }

let service_stats : service_stats option ref = ref None

let service ~jobs =
  section "S2. Open-loop service curves (sim + live, 90% reads)"
    "this reproduction's addition: latency-vs-offered-load under an \
     open-loop driver, leader leases vs consensus reads"
    (fun () ->
      let module Live = Ci_runtime.Live in
      let module Runner = Ci_workload.Runner in
      let module LS = Ci_load.Load_stats in
      let cores = Domain.recommended_domain_count () in
      let of_load_row backend (r : E.load_row) =
        {
          sv_backend = backend;
          sv_label = r.E.l_label;
          sv_offered = r.E.l_offered;
          sv_achieved = r.E.l_achieved;
          sv_p50_us = r.E.l_p50_us;
          sv_p99_us = r.E.l_p99_us;
          sv_p999_us = r.E.l_p999_us;
          sv_service_p99_us = r.E.l_service_p99_us;
          sv_lease_reads = r.E.l_lease_reads;
          sv_knee = r.E.l_knee;
        }
      in
      let sim_rows =
        List.map (of_load_row "sim")
          (E.load_curve ~jobs () @ E.load_curve ~jobs ~lease:(Sim_time.ms 2) ())
      in
      (* Live sweep: same driver, wall clock instead of virtual time.
         Rates are per driver (2 drivers), chosen to straddle what a
         1-core CI host can absorb so the top points show queueing. *)
      let live_rates = [ 5_000.; 10_000.; 20_000.; 40_000. ] in
      let n_clients = 2 in
      let live_row protocol ~lease rate =
        let spec =
          {
            (Live.default_spec ~protocol) with
            Live.n_replicas = 3;
            n_clients;
            duration_s = 0.25;
            drain_s = 0.1;
            lease;
            lease_skew = (if lease > 0 then lease / 100 else 0);
            open_loop =
              Some
                {
                  Runner.default_open_loop with
                  Runner.arrival = Ci_load.Arrival.Fixed rate;
                  mix =
                    {
                      Ci_load.Open_client.reads = 0.9;
                      cas = 0.02;
                      ranges = 0.02;
                    };
                };
          }
        in
        let r = Live.run spec in
        let label =
          Ci_consensus.Protocol.to_string protocol ^ if lease > 0 then " +lease" else ""
        in
        if not (Ci_rsm.Consistency.ok r.Live.consistency) then
          failwith
            (Printf.sprintf "service: live %s at %.0f op/s was inconsistent"
               label rate);
        let s = Option.get r.Live.load in
        if LS.stale_reads s > 0 then
          failwith
            (Printf.sprintf "service: live %s served %d stale session reads"
               label (LS.stale_reads s));
        let lp = LS.latency_percentiles s in
        let sp = LS.service_percentiles s in
        let us v = float_of_int v /. 1e3 in
        {
          sv_backend = "live";
          sv_label = label;
          sv_offered = rate *. float_of_int n_clients;
          sv_achieved = LS.throughput s;
          sv_p50_us = us lp.LS.p50;
          sv_p99_us = us lp.LS.p99;
          sv_p999_us = us lp.LS.p999;
          sv_service_p99_us = us sp.LS.p99;
          sv_lease_reads = r.Live.lease_reads;
          sv_knee = false;
        }
      in
      let flag_knee rows =
        let pts =
          Array.of_list (List.map (fun r -> (r.sv_offered, r.sv_p99_us)) rows)
        in
        match Ci_load.Knee.detect pts with
        | Some k ->
          List.mapi
            (fun j r -> if j = k then { r with sv_knee = true } else r)
            rows
        | None -> rows
      in
      let live_rows =
        List.concat_map
          (fun protocol ->
            List.concat_map
              (fun lease ->
                flag_knee (List.map (live_row protocol ~lease) live_rates))
              [ 0; 20_000_000 ])
          [ Live.Onepaxos; Live.Multipaxos ]
      in
      let rows = sim_rows @ live_rows in
      Format.printf "%d cores; 3 replicas, 2 open-loop drivers, 90%% reads@."
        cores;
      Format.printf "%-7s %-20s %10s %10s %9s %9s %9s %9s %7s %5s@." "backend"
        "curve" "offered" "achieved" "p50(us)" "p99(us)" "p999(us)" "svc99"
        "lease" "knee";
      List.iter
        (fun r ->
          Format.printf "%-7s %-20s %10.0f %10.0f %9.1f %9.1f %9.1f %9.1f %7d %5s@."
            r.sv_backend r.sv_label r.sv_offered r.sv_achieved r.sv_p50_us
            r.sv_p99_us r.sv_p999_us r.sv_service_p99_us r.sv_lease_reads
            (if r.sv_knee then "<-" else ""))
        rows;
      (* Lease pay-off at the lightest load point of each backend/protocol
         pair: local reads should undercut the consensus round trip. *)
      List.iter
        (fun backend ->
          List.iter
            (fun proto ->
              let first label =
                List.find_opt
                  (fun r -> r.sv_backend = backend && r.sv_label = label)
                  rows
              in
              match (first proto, first (proto ^ " +lease")) with
              | Some plain, Some leased ->
                Format.printf
                  "%s %s: lease p50 %.1fus vs consensus p50 %.1fus (%.1fx)@."
                  backend proto leased.sv_p50_us plain.sv_p50_us
                  (plain.sv_p50_us /. Float.max leased.sv_p50_us 0.001)
              | _ -> ())
            [ "1paxos"; "multipaxos" ])
        [ "sim"; "live" ];
      service_stats := Some { sv_cores = cores; sv_rows = rows })

let write_service_json () =
  match !service_stats with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" s.sv_cores);
    Buffer.add_string buf "  \"rows\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"backend\": \"%s\", \"curve\": \"%s\", \"offered_ops\": \
              %.1f, \"achieved_ops\": %.1f, \"p50_us\": %.2f, \"p99_us\": \
              %.2f, \"p999_us\": %.2f, \"service_p99_us\": %.2f, \
              \"lease_reads\": %d, \"knee\": %b}%s\n"
             r.sv_backend r.sv_label r.sv_offered r.sv_achieved r.sv_p50_us
             r.sv_p99_us r.sv_p999_us r.sv_service_p99_us r.sv_lease_reads
             r.sv_knee
             (if i = List.length s.sv_rows - 1 then "" else ",")))
      s.sv_rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_service.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_service.json@."

(* ----- fault-injection benchmark ------------------------------------------ *)

(* One row per backend x protocol x crash scenario, collected for
   BENCH_faults.json: the recovery numbers behind Figure 11 — how long
   until the first post-fault commit, the worst completion-free gap,
   and throughput on each side of the crash. *)
type faults_row = {
  f_backend : string;
  f_protocol : string;
  f_scenario : string;
  f_ttf_ms : float option;  (* None: never committed again *)
  f_unavail_ms : float;
  f_rate_before : float;
  f_rate_after : float;
  f_ops_after : int;
  f_consistent : bool;
}

let faults_stats : faults_row list option ref = ref None

let faults ~jobs:_ =
  section "F1. Failover under the nemesis (Section 7.6 / Figure 11)"
    "crash the active acceptor resp. the leader mid-run on both backends; \
     the run must stay consistent and resume committing"
    (fun () ->
      let module Runner = Ci_workload.Runner in
      let module Live = Ci_runtime.Live in
      let ms = Sim_time.ms in
      let sched ~at ~down node =
        {
          Ci_faults.seed = 42;
          faults = [ Ci_faults.Crash { node; at; down_for = Some down } ];
        }
      in
      let row ~backend ~protocol ~scenario ~consistent = function
        | None ->
          failwith
            (Printf.sprintf "faults: %s %s %s: fault onset outside the run"
               backend protocol scenario)
        | Some (f : Ci_obs.Failover.t) ->
          {
            f_backend = backend;
            f_protocol = protocol;
            f_scenario = scenario;
            f_ttf_ms =
              Option.map
                (fun t -> float_of_int t /. 1e6)
                f.Ci_obs.Failover.time_to_failover;
            f_unavail_ms = float_of_int f.Ci_obs.Failover.unavailable_ns /. 1e6;
            f_rate_before = f.Ci_obs.Failover.rate_before;
            f_rate_after = f.Ci_obs.Failover.rate_after;
            f_ops_after = f.Ci_obs.Failover.completions_after;
            f_consistent = consistent;
          }
      in
      let sim protocol scenario node =
        let spec =
          {
            (Runner.default_spec ~protocol
               ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 5 }))
            with
            Runner.duration = ms 150;
            nemesis = sched ~at:(ms 60) ~down:(ms 45) node;
          }
        in
        let r = Runner.run spec in
        row ~backend:"sim" ~protocol:(Ci_consensus.Protocol.to_string protocol) ~scenario
          ~consistent:(Ci_rsm.Consistency.ok r.Runner.consistency)
          r.Runner.failover
      in
      let live protocol scenario node =
        let spec =
          {
            (Live.default_spec ~protocol) with
            Live.duration_s = 1.2;
            drain_s = 0.3;
            nemesis = sched ~at:(ms 480) ~down:(ms 360) node;
          }
        in
        let r = Live.run spec in
        row ~backend:"live" ~protocol:(Ci_consensus.Protocol.to_string protocol) ~scenario
          ~consistent:(Ci_rsm.Consistency.ok r.Live.consistency)
          r.Live.failover
      in
      let rows =
        [
          sim Runner.Onepaxos "crash-acceptor" 1;
          sim Runner.Onepaxos "crash-leader" 0;
          sim Runner.Multipaxos "crash-leader" 0;
          live Live.Onepaxos "crash-acceptor" 1;
          live Live.Onepaxos "crash-leader" 0;
          live Live.Multipaxos "crash-leader" 0;
        ]
      in
      Format.printf "%-8s %-12s %-16s %10s %12s %11s %11s %11s@." "backend"
        "protocol" "scenario" "ttf(ms)" "outage(ms)" "pre(op/s)" "post(op/s)"
        "consistent";
      List.iter
        (fun r ->
          Format.printf "%-8s %-12s %-16s %10s %12.1f %11.0f %11.0f %11s@."
            r.f_backend r.f_protocol r.f_scenario
            (match r.f_ttf_ms with
             | Some t -> Printf.sprintf "%.2f" t
             | None -> "never")
            r.f_unavail_ms r.f_rate_before r.f_rate_after
            (if r.f_consistent then "yes" else "NO"))
        rows;
      List.iter
        (fun r ->
          let cell =
            Printf.sprintf "%s %s %s" r.f_backend r.f_protocol r.f_scenario
          in
          if not r.f_consistent then
            failwith (Printf.sprintf "faults: %s was inconsistent" cell);
          if r.f_ttf_ms = None || r.f_ops_after = 0 then
            failwith
              (Printf.sprintf "faults: %s never committed again after the crash"
                 cell))
        rows;
      faults_stats := Some rows)

let write_faults_json () =
  match !faults_stats with
  | None -> ()
  | Some rows ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"rows\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"backend\": \"%s\", \"protocol\": \"%s\", \"scenario\": \
              \"%s\", \"time_to_failover_ms\": %s, \"unavailable_ms\": %.2f, \
              \"rate_before_ops\": %.0f, \"rate_after_ops\": %.0f, \
              \"ops_after\": %d, \"consistent\": %b}%s\n"
             r.f_backend r.f_protocol r.f_scenario
             (match r.f_ttf_ms with
              | Some t -> Printf.sprintf "%.3f" t
              | None -> "null")
             r.f_unavail_ms r.f_rate_before r.f_rate_after r.f_ops_after
             r.f_consistent
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_faults.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_faults.json@."

(* ----- model-checker benchmark -------------------------------------------- *)

(* One row per protocol, collected for BENCH_explore.json: the bounded
   model checker's verdict on a 3-replica world with one crash allowed
   anywhere, and how hard the reduction machinery works for it — the
   share of prefixes cut by the visited table, the share of enabled
   choices the sleep sets never descend into, and the stateless
   re-execution rate. Crash-tolerant protocols must exhaust the space;
   2PC must be convicted of its blocking livelock and shrunk to the
   single-crash counterexample. Mencius is deliberately absent: its
   skip-message flood makes each liveness closure quadratic, so the
   search runs for minutes (the unit suite convicts it by replaying
   the known one-choice counterexample instead). *)
type explore_row = {
  ex_protocol : string;
  ex_outcome : string;
  ex_states : int;
  ex_executions : int;
  ex_choices_applied : int;
  ex_dedup_ratio : float;  (* dedup hits / states reached *)
  ex_sleep_ratio : float;  (* sleep skips / (branches + sleep skips) *)
  ex_states_per_s : float;
  ex_wall_s : float;
  ex_trace_len : int;  (* -1 when the space was clean *)
  ex_shrunk_len : int;
}

let explore_stats : explore_row list option ref = ref None

let explore ~jobs:_ =
  section "X1. Bounded model checker (schedules x one crash, 3 replicas)"
    "this reproduction's addition: exhaustive delivery-order and fault \
     exploration with digest dedup, sleep sets and trace shrinking"
    (fun () ->
      let module Trace = Ci_explore.Trace in
      let module Search = Ci_explore.Search in
      let row ?(commands = 2) protocol expect =
        let cfg =
          {
            (Trace.default_config ~protocol) with
            Trace.crash_budget = 1;
            fire_budget = 0;
            n_commands = commands;
          }
        in
        let bounds =
          { Search.default_bounds with Search.max_depth = 48; max_states = 200_000 }
        in
        let t0 = Unix.gettimeofday () in
        let r = Search.explore ~bounds cfg in
        let wall = Unix.gettimeofday () -. t0 in
        let name = Ci_consensus.Protocol.to_string protocol in
        let outcome, trace_len, shrunk_len =
          match r.Search.outcome with
          | Search.Exhausted -> ("exhausted", -1, -1)
          | Search.Bounded -> ("bounded", -1, -1)
          | Search.Violated { trace; shrunk; _ } ->
            ("violated", List.length trace, List.length shrunk)
        in
        (match (expect, r.Search.outcome) with
        | `Exhaust, Search.Exhausted | `Violate, Search.Violated _ -> ()
        | `Exhaust, _ ->
          failwith
            (Printf.sprintf "explore: %s did not exhaust (%s)" name outcome)
        | `Violate, _ ->
          failwith
            (Printf.sprintf "explore: %s escaped its known violation (%s)" name
               outcome));
        let s = r.Search.stats in
        let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
        {
          ex_protocol = name;
          ex_outcome = outcome;
          ex_states = s.Search.states;
          ex_executions = s.Search.executions;
          ex_choices_applied = s.Search.choices_applied;
          ex_dedup_ratio = ratio s.Search.dedup_hits (s.Search.states + s.Search.dedup_hits);
          ex_sleep_ratio = ratio s.Search.sleep_skips (s.Search.branches + s.Search.sleep_skips);
          ex_states_per_s = (if wall > 0. then float_of_int s.Search.states /. wall else 0.);
          ex_wall_s = wall;
          ex_trace_len = trace_len;
          ex_shrunk_len = shrunk_len;
        }
      in
      let rows =
        [
          row Trace.Onepaxos `Exhaust;
          row ~commands:1 Trace.Multipaxos `Exhaust;
          row Trace.Twopc `Violate;
        ]
      in
      Format.printf "%-12s %10s %9s %10s %8s %8s %10s %7s@." "protocol"
        "outcome" "states" "states/s" "dedup" "sleep" "trace" "shrunk";
      List.iter
        (fun r ->
          Format.printf "%-12s %10s %9d %10.0f %7.0f%% %7.0f%% %10s %7s@."
            r.ex_protocol r.ex_outcome r.ex_states r.ex_states_per_s
            (100. *. r.ex_dedup_ratio) (100. *. r.ex_sleep_ratio)
            (if r.ex_trace_len < 0 then "-" else string_of_int r.ex_trace_len)
            (if r.ex_shrunk_len < 0 then "-" else string_of_int r.ex_shrunk_len))
        rows;
      explore_stats := Some rows)

let write_explore_json () =
  match !explore_stats with
  | None -> ()
  | Some rows ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"rows\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"protocol\": \"%s\", \"outcome\": \"%s\", \"states\": %d, \
              \"executions\": %d, \"choices_applied\": %d, \"dedup_ratio\": \
              %.4f, \"sleep_ratio\": %.4f, \"states_per_s\": %.0f, \
              \"wall_s\": %.3f, \"trace_len\": %d, \"shrunk_len\": %d}%s\n"
             r.ex_protocol r.ex_outcome r.ex_states r.ex_executions
             r.ex_choices_applied r.ex_dedup_ratio r.ex_sleep_ratio
             r.ex_states_per_s r.ex_wall_s r.ex_trace_len r.ex_shrunk_len
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_explore.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_explore.json@."

let json_escape name =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length name) (String.get name)))

let write_bench_json () =
  match !engine_stats with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"event_queue_mops\": %.3f,\n" s.evq_mops);
    Buffer.add_string buf
      (Printf.sprintf "  \"run_wall_s\": %.4f,\n" s.run_wall_s);
    Buffer.add_string buf
      (Printf.sprintf "  \"run_sim_events\": %d,\n" s.run_sim_events);
    Buffer.add_string buf
      (Printf.sprintf "  \"run_events_per_sec\": %.0f,\n" s.run_events_per_sec);
    Buffer.add_string buf
      (Printf.sprintf "  \"run_alloc_words\": %.0f,\n" s.run_alloc_words);
    Buffer.add_string buf
      (Printf.sprintf "  \"alloc_words_per_event\": %.2f,\n"
         (s.run_alloc_words /. float_of_int s.run_sim_events));
    Buffer.add_string buf
      (Printf.sprintf "  \"run_throughput_ops\": %.0f,\n" s.run_throughput);
    Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" s.jobs);
    Buffer.add_string buf
      (Printf.sprintf "  \"batch_wall_s_jobs1\": %.4f,\n" s.batch_wall_j1);
    Buffer.add_string buf
      (Printf.sprintf "  \"batch_wall_s_jobsN\": %.4f,\n" s.batch_wall_jn);
    Buffer.add_string buf
      (Printf.sprintf "  \"parallel_speedup\": %.3f,\n" s.parallel_speedup);
    let wall_map key walls close =
      Buffer.add_string buf (Printf.sprintf "  \"%s\": {\n" key);
      List.iteri
        (fun i (name, wall) ->
          Buffer.add_string buf
            (Printf.sprintf "    \"%s\": %.4f%s\n" (json_escape name) wall
               (if i = List.length walls - 1 then "" else ",")))
        walls;
      Buffer.add_string buf (Printf.sprintf "  }%s\n" close)
    in
    let j1 = List.rev !section_walls_j1 in
    wall_map "section_wall_s"
      (List.rev !section_walls)
      (if j1 = [] then "" else ",");
    if j1 <> [] then wall_map "section_wall_s_jobs1" j1 "";
    Buffer.add_string buf "}\n";
    let oc = open_out "BENCH_engine.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf));
    Format.printf "@.wrote BENCH_engine.json@."

let metrics ~jobs:_ =
  section "M1. Metrics registry: one instrumented 1Paxos run (Section 4.3)"
    "per-window message counts, per-core utilization and channel back-pressure"
    (fun () ->
      let module Runner = Ci_workload.Runner in
      let spec =
        Runner.default_spec ~protocol:Runner.Onepaxos
          ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 5 })
      in
      let r = Runner.run spec in
      Format.printf "windows: warmup  %a@." Runner.pp_window r.Runner.windows.Runner.warmup_w;
      Format.printf "         measure %a@." Runner.pp_window r.Runner.windows.Runner.measure_w;
      Format.printf "         drain   %a@." Runner.pp_window r.Runner.windows.Runner.drain_w;
      Format.printf "msgs/commit (measure window): %.2f@."
        (float_of_int r.Runner.messages /. float_of_int (max 1 r.Runner.commits));
      List.iter
        (fun (u : Runner.core_usage) ->
          Format.printf "core %2d: util %.2f busy %dns queue-peak %d@."
            u.Runner.u_core u.Runner.u_util u.Runner.u_busy_ns u.Runner.u_queue_peak)
        r.Runner.cores;
      Format.printf "%a" Ci_obs.Metrics.pp r.Runner.metrics)

(* ----- bechamel micro-benchmarks ----------------------------------------- *)

let micro ~jobs:_ =
  section "Micro-benchmarks (bechamel)"
    "real-time cost of the simulator building blocks on this host"
    (fun () ->
      let open Bechamel in
      let open Toolkit in
      let evq_test =
        Test.make ~name:"event_queue push+pop x100"
          (Staged.stage (fun () ->
               let q = Ci_engine.Event_queue.create () in
               for i = 0 to 99 do
                 Ci_engine.Event_queue.push q ~time:((i * 7919) mod 100) i
               done;
               while not (Ci_engine.Event_queue.is_empty q) do
                 ignore (Ci_engine.Event_queue.pop q)
               done))
      in
      let rng_test =
        let rng = Ci_engine.Rng.create ~seed:1 in
        Test.make ~name:"rng int x100"
          (Staged.stage (fun () ->
               for _ = 0 to 99 do
                 ignore (Ci_engine.Rng.int rng 1000)
               done))
      in
      let sim_test =
        Test.make ~name:"sim schedule+run x100"
          (Staged.stage (fun () ->
               let sim = Ci_engine.Sim.create () in
               for i = 0 to 99 do
                 Ci_engine.Sim.schedule sim ~delay:i (fun () -> ())
               done;
               Ci_engine.Sim.run sim))
      in
      let onepaxos_test =
        Test.make ~name:"1paxos 1ms sim (3 replicas, 3 clients)"
          (Staged.stage (fun () ->
               let spec =
                 {
                   (Ci_workload.Runner.default_spec ~protocol:Ci_workload.Runner.Onepaxos
                      ~placement:
                        (Ci_workload.Runner.Dedicated { n_replicas = 3; n_clients = 3 }))
                   with
                   Ci_workload.Runner.duration = Sim_time.ms 1;
                   warmup = 0;
                   drain = 0;
                 }
               in
               ignore (Ci_workload.Runner.run spec)))
      in
      let tests =
        Test.make_grouped ~name:"consensus_inside"
          [ evq_test; rng_test; sim_test; onepaxos_test ]
      in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
      let ols =
        Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Format.printf "%-55s %16s@." "benchmark" "time/run";
      Hashtbl.iter
        (fun name ols_result ->
          let time =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> Printf.sprintf "%.1f ns" t
            | Some [] | None -> "n/a"
          in
          Format.printf "%-55s %16s@." name time)
        results)

let sections =
  [
    ("netchar", netchar);
    ("fig2", fig2);
    ("latency", latency);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("sec2_2", sec2_2);
    ("lan", lan);
    ("ablation", ablation);
    ("batching", batching);
    ("protocols", protocols);
    ("metrics", metrics);
    ("engine", engine);
    ("runtime", runtime);
    ("codec", codec);
    ("shards", shards);
    ("service", service);
    ("faults", faults);
    ("explore", explore);
    ("micro", micro);
  ]

(* Sections whose runs are fanned out over the pool — the ones worth
   re-timing at jobs=1 for the comparison table. metrics/engine/micro
   time themselves differently (single runs or self-calibrating). *)
let serial_only =
  [
    "metrics"; "engine"; "runtime"; "codec"; "shards"; "service"; "faults";
    "explore"; "micro";
  ]

let print_jobs_table ~jobs =
  let j1 = List.rev !section_walls_j1 in
  if j1 <> [] then begin
    let jn = List.rev !section_walls in
    Format.printf "@.Per-section wall-clock, jobs=1 vs jobs=%d:@." jobs;
    Format.printf "%-55s %10s %10s %9s@." "section" "jobs=1(s)"
      (Printf.sprintf "jobs=%d(s)" jobs)
      "speedup";
    List.iter
      (fun (name, w1) ->
        match List.assoc_opt name jn with
        | Some wn ->
          Format.printf "%-55s %10.2f %10.2f %8.2fx@." name w1 wn (w1 /. wn)
        | None -> ())
      j1;
    let total_j1 = List.fold_left (fun a (_, w) -> a +. w) 0. j1 in
    let total_jn =
      List.fold_left
        (fun a (n, w) -> if List.mem_assoc n j1 then a +. w else a)
        0. jn
    in
    Format.printf "%-55s %10.2f %10.2f %8.2fx@." "TOTAL" total_j1 total_jn
      (total_j1 /. total_jn)
  end

let () =
  let jobs = ref (Pool.default_jobs ()) in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> jobs := j
       | _ ->
         Format.eprintf "--jobs: expected a positive integer, got %S@." n;
         exit 1);
      parse acc rest
    | s :: rest when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
      (match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
       | Some j when j >= 1 -> jobs := j
       | _ ->
         Format.eprintf "--jobs: expected a positive integer, got %S@." s;
         exit 1);
      parse acc rest
    | s :: rest -> parse (s :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ~jobs:!jobs
      | None ->
        Format.eprintf "unknown section %S; available: %s@." name
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  if !jobs > 1 then begin
    (* Second, silent pass at jobs=1 over the pool-driven sections for
       the comparison table (figures are byte-identical, so only the
       timing is interesting). *)
    walls_sink := section_walls_j1;
    List.iter
      (fun name ->
        if not (List.mem name serial_only) then
          match List.assoc_opt name sections with
          | Some f -> quietly (fun () -> f ~jobs:1)
          | None -> ())
      requested;
    walls_sink := section_walls;
    print_jobs_table ~jobs:!jobs
  end;
  write_bench_json ();
  write_runtime_json ();
  write_codec_json ();
  write_shards_json ();
  write_service_json ();
  write_faults_json ();
  write_explore_json ()
