(* Writer of the stamped BENCH_{shards,service,faults,explore}.json
   artifacts: live sharded scaling, open-loop service curves, failover
   under the nemesis and the bounded model checker's verdicts. The
   paper's tables and figures are `consensus_sim figures`; layer costs
   and regression numbers live in perfbench/.

   Usage: main.exe [section ...]
   Sections: shards service faults explore (default: all). The
   simulator rows of [service] fan out over Pool.default_jobs ()
   domains (CI_JOBS, else the core count) and are byte-identical at
   any count. *)

module E = Ci_workload.Experiments
module Sim_time = Ci_engine.Sim_time

let section name paper_note f =
  Format.printf "@.======================================================================@.";
  Format.printf "%s@." name;
  Format.printf "  paper: %s@." paper_note;
  Format.printf "======================================================================@.";
  let t0 = Unix.gettimeofday () in
  f ();
  Format.printf "[section wall-clock: %.2fs]@." (Unix.gettimeofday () -. t0);
  Format.print_flush ()

(* Every BENCH_*.json written here has one envelope,
   {"commit", "cores", "ocaml", "rows": [...]}, so a number is never
   read without the code and host that produced it. [commit] is
   [git rev-parse HEAD], suffixed "-dirty" when tracked files differ
   from it, or "unknown" outside a checkout. A row is a list of
   (key, value) pairs, each value already rendered by [str], [int],
   [num] or [bool]. *)
let str s = "\"" ^ String.escaped s ^ "\""
let int = string_of_int
let num digits x = Printf.sprintf "%.*f" digits x
let bool = string_of_bool

let git args =
  let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
  let out = String.trim (In_channel.input_all ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some out
  | _ -> None

let commit () =
  match git "rev-parse HEAD" with
  | None | Some "" -> "unknown"
  | Some head when git "status --porcelain --untracked-files=no" = Some "" -> head
  | Some head -> head ^ "-dirty"

let write_rows file rows =
  let row r =
    "    {"
    ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) r)
    ^ "}"
  in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc
        "{\n  \"commit\": %s,\n  \"cores\": %d,\n  \"ocaml\": %s,\n  \"rows\": [\n%s\n  ]\n}\n"
        (str (commit ()))
        (Domain.recommended_domain_count ())
        (str Sys.ocaml_version)
        (String.concat ",\n" (List.map row rows)));
  Format.printf "@.wrote %s@." file

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

let shards () =
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
      write_rows "BENCH_shards.json"
        (List.map
           (fun r ->
             [
               ("protocol", str r.sh_protocol);
               ("groups", int r.sh_groups);
               ("ops", int r.sh_ops);
               ("throughput_ops", num 0 r.sh_throughput);
               ("cross_shard_committed", int r.sh_cross_committed);
               ("cross_shard_aborted", int r.sh_cross_aborted);
               ("alloc_words_per_op", num 1 r.sh_alloc_words_per_op);
               ("consistent", bool r.sh_consistent);
               ("atomic", bool r.sh_atomic);
             ])
           rows))

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

let service () =
  section "S2. Open-loop service curves (sim + live, 90% reads)"
    "this reproduction's addition: latency-vs-offered-load under an \
     open-loop driver, leader leases vs consensus reads"
    (fun () ->
      let module Live = Ci_runtime.Live in
      let module Runner = Ci_workload.Runner in
      let module LS = Ci_load.Load_stats in
      let cores = Domain.recommended_domain_count () in
      let jobs = Ci_workload.Pool.default_jobs () in
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
      write_rows "BENCH_service.json"
        (List.map
           (fun r ->
             [
               ("backend", str r.sv_backend);
               ("curve", str r.sv_label);
               ("offered_ops", num 1 r.sv_offered);
               ("achieved_ops", num 1 r.sv_achieved);
               ("p50_us", num 2 r.sv_p50_us);
               ("p99_us", num 2 r.sv_p99_us);
               ("p999_us", num 2 r.sv_p999_us);
               ("service_p99_us", num 2 r.sv_service_p99_us);
               ("lease_reads", int r.sv_lease_reads);
               ("knee", bool r.sv_knee);
             ])
           rows))

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

let faults () =
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
      write_rows "BENCH_faults.json"
        (List.map
           (fun r ->
             [
               ("backend", str r.f_backend);
               ("protocol", str r.f_protocol);
               ("scenario", str r.f_scenario);
               ( "time_to_failover_ms",
                 match r.f_ttf_ms with Some t -> num 3 t | None -> "null" );
               ("unavailable_ms", num 2 r.f_unavail_ms);
               ("rate_before_ops", num 0 r.f_rate_before);
               ("rate_after_ops", num 0 r.f_rate_after);
               ("ops_after", int r.f_ops_after);
               ("consistent", bool r.f_consistent);
             ])
           rows))

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

let explore () =
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
      write_rows "BENCH_explore.json"
        (List.map
           (fun r ->
             [
               ("protocol", str r.ex_protocol);
               ("outcome", str r.ex_outcome);
               ("states", int r.ex_states);
               ("executions", int r.ex_executions);
               ("choices_applied", int r.ex_choices_applied);
               ("dedup_ratio", num 4 r.ex_dedup_ratio);
               ("sleep_ratio", num 4 r.ex_sleep_ratio);
               ("states_per_s", num 0 r.ex_states_per_s);
               ("wall_s", num 3 r.ex_wall_s);
               ("trace_len", int r.ex_trace_len);
               ("shrunk_len", int r.ex_shrunk_len);
             ])
           rows))

let sections =
  [ ("shards", shards); ("service", service); ("faults", faults); ("explore", explore) ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Format.eprintf "unknown section %S; available: %s@." name
          (String.concat " " (List.map fst sections));
        exit 1
      end)
    requested;
  List.iter (fun name -> (List.assoc name sections) ()) requested
