(* End-to-end tests of the live runtime: the same protocol cores the
   simulator drives, here on real domains over SPSC queues. Runs are
   kept short (a couple hundred ms) — the point is that every reply the
   clients saw checks out against the replicas' joined views, not the
   throughput number. *)

module Live = Ci_runtime.Live
module Runner = Ci_workload.Runner
module Consistency = Ci_rsm.Consistency

let short_spec protocol =
  {
    (Live.default_spec ~protocol) with
    Live.duration_s = 0.15;
    drain_s = 0.1;
  }

let check_live name (r : Live.result) =
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "%s: %a" name Consistency.pp r.Live.consistency;
  if r.Live.ops <= 0 then Alcotest.failf "%s: no operations completed" name;
  Alcotest.(check int) (name ^ ": latency samples") r.Live.ops
    r.Live.latency.Ci_stats.Summary.count

let test_live_onepaxos () =
  let r = Live.run (short_spec Live.Onepaxos) in
  check_live "1paxos" r;
  Alcotest.(check int) "no acceptor changes" 0 r.Live.acceptor_changes

let test_live_multipaxos () =
  let r = Live.run (short_spec Live.Multipaxos) in
  check_live "multipaxos" r

let test_live_five_replicas () =
  let r = Live.run { (short_spec Live.Onepaxos) with Live.n_replicas = 5 } in
  check_live "1paxos x5" r

let test_tiny_queues () =
  (* 1-slot rings force every send through the outbox fallback; the
     run must still complete and stay consistent. *)
  let r = Live.run { (short_spec Live.Onepaxos) with Live.queue_slots = 1 } in
  check_live "1paxos slots=1" r;
  Alcotest.(check bool) "peak bounded" true
    (r.Live.queues.Live.q_occupancy_peak <= 1)

(* Conformance: the identical protocol core, read workload and checker,
   once under the simulator and once on the metal. Both backends must
   commit work and pass the consistency check — the seam
   (Ci_engine.Node_env) is only honest if nothing protocol-visible
   depends on which backend is underneath. *)
let conformance protocol sim_protocol () =
  let live = Live.run { (short_spec protocol) with Live.read_ratio = 0.3 } in
  check_live "live backend" live;
  let sim =
    Runner.run
      {
        (Runner.default_spec ~protocol:sim_protocol
           ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 2 }))
        with
        Runner.read_ratio = 0.3;
      }
  in
  if not (Consistency.ok sim.Runner.consistency) then
    Alcotest.failf "sim backend: %a" Consistency.pp sim.Runner.consistency;
  if sim.Runner.commits <= 0 then Alcotest.fail "sim backend: no commits"

(* Sharded live runs: 2 groups x 2 replicas plus a router per group on
   real domains, 30% of commands cross-shard 2PC multi-puts. Both the
   per-group consistency check and the cross-shard atomicity check must
   sign off. *)
let sharded_spec protocol =
  {
    (Live.default_spec ~protocol) with
    Live.n_replicas = 2;
    n_clients = 2;
    groups = 2;
    cross_shard_ratio = 0.3;
    duration_s = 0.25;
    drain_s = 0.15;
  }

let check_sharded name (r : Live.result) =
  check_live name r;
  match r.Live.atomicity with
  | None -> Alcotest.fail (name ^ ": no atomicity report at groups=2")
  | Some a ->
    if not (Ci_rsm.Atomicity.ok a) then
      Alcotest.failf "%s: %a" name Ci_rsm.Atomicity.pp a;
    Alcotest.(check bool)
      (name ^ ": cross-shard txns resolved")
      true
      (a.Ci_rsm.Atomicity.committed + a.Ci_rsm.Atomicity.aborted > 0)

let test_live_sharded_onepaxos () =
  check_sharded "1paxos sharded" (Live.run (sharded_spec Live.Onepaxos))

let test_live_sharded_multipaxos () =
  check_sharded "multipaxos sharded" (Live.run (sharded_spec Live.Multipaxos))

(* The PR-3 allocation diet, extended to the live hot path: words
   allocated per committed op across the replica and router domains
   (Gc.allocated_bytes is domain-local), on a sharded run so the
   router/2PC path is included. The fixed-slot codec and the
   allocation-free event loop brought this from ~15k words/op down to
   ~800 on a 1-core host; the 8k bound keeps headroom for short
   oversubscribed runs (domain startup amortizes badly) while pinning
   the order of magnitude — a per-event closure or ref sneaking back
   into the loop blows straight through it. *)
let test_live_alloc_budget () =
  let r =
    Live.run { (sharded_spec Live.Onepaxos) with Live.duration_s = 0.4 }
  in
  check_sharded "alloc run" r;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words/op <= 8k budget" r.Live.alloc_words_per_op)
    true
    (r.Live.alloc_words_per_op > 0. && r.Live.alloc_words_per_op <= 8_000.)

(* Back-to-back deployments run on the pool's warm workers: five 1 ms
   runs of 4 nodes spawn at most one domain per node the caller does not
   host (3) between them, and a run after the workers retired spawns
   fresh ones and still works. *)
let test_live_reuses_workers () =
  let spec i =
    {
      (Live.default_spec ~protocol:Live.Onepaxos) with
      Live.n_clients = 1;
      duration_s = 0.001;
      drain_s = 0.;
      seed = 100 + i;
    }
  in
  let consistent name (r : Live.result) =
    if not (Consistency.ok r.Live.consistency) then
      Alcotest.failf "%s: %a" name Consistency.pp r.Live.consistency
  in
  let spawned = Ci_workload.Pool.spawned () in
  for i = 1 to 5 do
    consistent (Printf.sprintf "run %d" i) (Live.run (spec i))
  done;
  Alcotest.(check bool)
    "at most 3 spawns over five runs" true
    (Ci_workload.Pool.spawned () - spawned <= 3);
  Alcotest.(check int) "workers retired" 0 (Test_pool.wait_for_retirement ());
  consistent "run after retirement" (Live.run (spec 6))

(* The caller's own loop ends the phases, observing each deadline within
   one idle sleep: a 1 ms run with no drain returns within 10 ms
   (median of five, after a warm-up run). *)
let test_live_short_run_returns_promptly () =
  let spec i =
    {
      (Live.default_spec ~protocol:Live.Onepaxos) with
      Live.n_clients = 1;
      duration_s = 0.001;
      drain_s = 0.;
      seed = 200 + i;
    }
  in
  ignore (Live.run (spec 0));
  let walls =
    List.init 5 (fun i ->
        let t0 = Unix.gettimeofday () in
        ignore (Live.run (spec (i + 1)));
        Unix.gettimeofday () -. t0)
  in
  let median = List.nth (List.sort compare walls) 2 in
  Alcotest.(check bool)
    (Printf.sprintf "median %.2f ms <= 10 ms" (median *. 1e3))
    true (median <= 0.010)

(* This thread's timer slack as the kernel reports it. There is no
   [/proc/thread-self/timerslack_ns]; [/proc/<tid>] shows the same task,
   and reading one's own needs no privilege. [None] off Linux. *)
let thread_timer_slack () =
  match Unix.readlink "/proc/thread-self" with
  | exception Unix.Unix_error _ -> None
  | link -> (
    let path = Printf.sprintf "/proc/%s/timerslack_ns" (Filename.basename link) in
    match In_channel.with_open_text path In_channel.input_all with
    | s -> int_of_string_opt (String.trim s)
    | exception Sys_error _ -> None)

(* Node loops sleep with 1 µs of timer slack, and each thread gets its
   own slack back: the caller, which hosts a node, reads its original
   value after the run. The idle accounting sees the sleeps. *)
let test_live_timer_slack () =
  match thread_timer_slack () with
  | None -> Alcotest.skip ()
  | Some before ->
    let r = Live.run { (short_spec Live.Onepaxos) with Live.n_clients = 1 } in
    check_live "slack run" r;
    let metric k = Ci_obs.Metrics.get_int r.Live.metrics k in
    Alcotest.(check int) "the loops ran with 1 µs of slack" 1_000
      (metric "live.idle.timer_slack_ns");
    Alcotest.(check (option int)) "the caller's slack is restored" (Some before)
      (thread_timer_slack ());
    Alcotest.(check bool) "idle sleeps counted" true (metric "live.idle.sleeps" > 0);
    (match Ci_obs.Metrics.find r.Live.metrics "live.idle.sleep_us_mean" with
     | Some (Ci_obs.Metrics.Float us) ->
       Alcotest.(check bool) (Printf.sprintf "mean sleep %.1f us >= 50" us) true (us >= 50.)
     | _ -> Alcotest.fail "no live.idle.sleep_us_mean");
    (* The kernel's own view, on a worker thread, of what the loops
       set. *)
    let inside = ref None in
    Ci_workload.Pool.await
      (Ci_workload.Pool.gang
         [|
           (fun () ->
             let old = Ci_runtime.Clock.set_timer_slack_ns 1_000 in
             inside := thread_timer_slack ();
             ignore (Ci_runtime.Clock.set_timer_slack_ns old));
         |]);
    Alcotest.(check (option int)) "/proc agrees" (Some 1_000) !inside

(* Open-loop drivers and leader leases on real domains: the live halves
   of the lib/load subsystem (the simulator halves live in Test_load). *)

let open_loop_spec protocol =
  {
    (short_spec protocol) with
    Live.open_loop =
      Some
        {
          Runner.default_open_loop with
          Runner.arrival = Ci_load.Arrival.Fixed 5_000.;
          key_space = 1024;
          mix = { Ci_load.Open_client.reads = 0.6; cas = 0.05; ranges = 0.05 };
          sessions = 8;
        };
  }

let check_live_open name (r : Live.result) =
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "%s: %a" name Consistency.pp r.Live.consistency;
  let sink =
    match r.Live.load with
    | Some s -> s
    | None -> Alcotest.failf "%s: no load sink on an open-loop run" name
  in
  Alcotest.(check bool)
    (name ^ ": completions") true
    (Ci_load.Load_stats.completed sink > 0);
  Alcotest.(check int)
    (name ^ ": no stale session reads")
    0
    (Ci_load.Load_stats.stale_reads sink)

let test_live_open_loop () =
  List.iter
    (fun (name, protocol) ->
      check_live_open name (Live.run (open_loop_spec protocol)))
    [ ("1paxos", Live.Onepaxos); ("multipaxos", Live.Multipaxos) ]

(* A 1.25 s open-loop 1Paxos run past saturation: tens of thousands of
   instances decide, yet each replica's proposer and acceptor tables
   end the run holding no more entries than the driver's sessions can
   have in flight. *)
let test_live_tables_hold_in_flight () =
  let sessions = 16 in
  let spec =
    {
      (short_spec Live.Onepaxos) with
      Live.n_clients = 1;
      duration_s = 1.25;
      drain_s = 0.3;
      key_space = 65_536;
      open_loop =
        Some
          {
            Runner.default_open_loop with
            Runner.arrival = Ci_load.Arrival.Fixed 100_000.;
            mix = { Ci_load.Open_client.reads = 0.; cas = 0.; ranges = 0. };
            sessions;
          };
    }
  in
  let r = Live.run spec in
  check_live_open "1paxos saturated" r;
  Alcotest.(check bool)
    (Printf.sprintf "history far beyond the bound (%d ops)" r.Live.ops)
    true (r.Live.ops > 10 * sessions);
  Alcotest.(check int) "one entry per replica" 3 (Array.length r.Live.retained);
  Array.iteri
    (fun i (k : Ci_consensus.Onepaxos.retained) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d: %d proposals, %d acceptances <= %d in flight" i
           k.proposals k.acceptances sessions)
        true
        (k.proposals <= sessions && k.acceptances <= sessions))
    r.Live.retained

let test_live_lease_reads () =
  List.iter
    (fun (name, protocol) ->
      let spec =
        {
          (open_loop_spec protocol) with
          Live.duration_s = 0.3;
          lease = 20_000_000 (* 20 ms *);
          lease_skew = 200_000;
        }
      in
      let r = Live.run spec in
      check_live_open name r;
      Alcotest.(check bool)
        (name ^ ": reads served under the lease")
        true
        (r.Live.lease_reads > 0))
    [ ("1paxos", Live.Onepaxos); ("multipaxos", Live.Multipaxos) ]

let test_validation () =
  let expect_invalid name spec =
    match Live.run spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted a malformed spec" name
  in
  let ok = Live.default_spec ~protocol:Live.Onepaxos in
  expect_invalid "replicas" { ok with Live.n_replicas = 1 };
  expect_invalid "clients" { ok with Live.n_clients = 0 };
  expect_invalid "duration" { ok with Live.duration_s = 0. };
  expect_invalid "drain" { ok with Live.drain_s = -0.1 };
  expect_invalid "slots" { ok with Live.queue_slots = 0 };
  expect_invalid "slot size not a power of two" { ok with Live.slot_size = 96 };
  expect_invalid "slot size below minimum"
    { ok with Live.slot_size = Ci_runtime.Spsc_bytes.min_slot_size / 2 };
  expect_invalid "timeout" { ok with Live.client_timeout = 0 };
  expect_invalid "read ratio" { ok with Live.read_ratio = 1.5 };
  expect_invalid "groups" { ok with Live.groups = 0 };
  expect_invalid "cross-shard ratio < 0" { ok with Live.cross_shard_ratio = -0.1 };
  expect_invalid "cross-shard ratio > 1" { ok with Live.cross_shard_ratio = 1.1 };
  expect_invalid "negative lease" { ok with Live.lease = -1 };
  expect_invalid "lease skew >= lease"
    { ok with Live.lease = 100; lease_skew = 100 };
  expect_invalid "leases on a protocol without them"
    { ok with Live.protocol = Live.Twopc; lease = 20_000_000 };
  expect_invalid "a crash on a protocol without crash-recovery"
    {
      ok with
      Live.protocol = Live.Mencius;
      nemesis =
        {
          Ci_faults.seed = 1;
          faults = [ Ci_faults.Crash { node = 0; at = 1; down_for = None } ];
        };
    }

(* Every registry protocol runs on the live runtime, through the same
   deployment as on the simulator: 2PC clients keep their coordinator,
   Mencius clients spread over the leaders. *)
let test_live_protocols () =
  List.iter
    (fun protocol ->
      check_live
        (Ci_consensus.Protocol.to_string protocol)
        (Live.run (short_spec protocol)))
    [ Live.Twopc; Live.Mencius; Live.Cheappaxos ]

let test_protocol_names () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option string)) s expect
        (Option.map Ci_consensus.Protocol.to_string
           (Ci_consensus.Protocol.of_string s)))
    [
      ("onepaxos", Some "1paxos");
      ("1paxos", Some "1paxos");
      ("multipaxos", Some "multipaxos");
      ("multi-paxos", Some "multipaxos");
      ("2pc", Some "2pc");
      ("paxos", None);
    ];
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option string)) s expect
        (Option.map Live.transport_name (Live.transport_of_string s)))
    [
      ("spsc", Some "spsc");
      ("rings", Some "spsc");
      ("socket", Some "socket");
      ("sockets", Some "socket");
      ("rdma", None);
    ]

(* Socket transport smoke: OCaml 5 refuses Unix.fork once a process has
   spawned any domain — and the suites before this one spawn plenty —
   so the run happens in a fresh process via the CLI (Sys.command goes
   through libc system(3), whose fork+exec never runs OCaml code in the
   child). Exit 0 means the run completed AND the consistency check
   signed off; exit 3 is the CLI's "sockets unavailable on this host"
   skip. *)
let socket_run name args =
  match Test_cli.run args with
  | None -> print_endline "consensus_sim.exe not found; skipping"
  | Some (0, _) -> ()
  | Some (3, _) -> Printf.printf "sockets unavailable; skipping %s\n" name
  | Some (rc, err) -> Alcotest.failf "%s: exit %d: %s" name rc err

let test_socket_smoke () =
  List.iter
    (fun protocol ->
      socket_run protocol
        (Printf.sprintf "live -p %s --transport socket -d 0.2 --drain-s 0.1" protocol))
    [ "onepaxos"; "multipaxos" ]

(* What the socket transport shares with the others through the
   deployment: sharding with cross-shard 2PC (exit 1 on a consistency or
   atomicity violation), open-loop drivers (exit 1 on a stale session
   read) and the node-local nemesis (exit 1 if commits never resume). *)
let test_socket_deployment () =
  socket_run "sharded"
    "live -p 1paxos --transport socket -g 2 -r 2 -c 2 --cross-shard-ratio 0.2 \
     -d 0.3 --drain-s 0.1";
  socket_run "open loop"
    "load --backend live --transport socket -p multipaxos -d 250 --rate 2000";
  socket_run "nemesis"
    "nemesis --backend live --transport socket -p 1paxos --duration-ms 600 \
     --crash 1:200:200"

(* The socket backend's drain makes one zero-timeout select over the
   open peers. Before it, each idle peer cost a read that failed with
   EAGAIN, an exception allocated per peer per drain: 36 minor words
   for 4 idle peers. A frame sent by a peer's endpoint still arrives,
   and a frame split across two writes arrives whole, once. *)
let test_socket_drain () =
  let module Transport = Ci_runtime.Transport in
  let module Wire = Ci_consensus.Wire in
  let module Codec = Ci_consensus.Codec in
  match Array.init 4 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.printf "sockets unavailable (%s); skipping\n" (Unix.error_message e)
  | pairs ->
    (* Node 0's peer [i] is [fst pairs.(i - 1)]; [snd] is that peer's end. *)
    let fds = Array.init 5 (fun i -> if i = 0 then None else Some (fst pairs.(i - 1))) in
    let t = Transport.socket_endpoint ~id:0 ~fds ~outbox_cap:16 in
    let got = ref [] in
    let handler ~src msg = got := (src, msg) :: !got in
    let drain () = ignore (Transport.drain t handler) in
    let check_got name expect =
      Alcotest.(check (list (pair int (of_pp Wire.pp)))) name expect (List.rev !got)
    in
    drain ();
    let calls = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do drain () done;
    let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
    Alcotest.(check bool)
      (Printf.sprintf "%.1f minor words per idle 4-peer drain <= 18" per_call)
      true (per_call <= 18.);
    check_got "nothing delivered while idle" [];
    let request req_id =
      Wire.Request { req_id; cmd = Ci_rsm.Command.Put { key = 1; data = req_id }; relaxed_read = false }
    in
    let sender = Transport.socket_endpoint ~id:2 ~fds:[| Some (snd pairs.(1)); None; None |] ~outbox_cap:16 in
    Transport.send sender ~dst:0 (request 1);
    drain ();
    check_got "one frame from peer 2" [ (2, request 1) ];
    got := [];
    let msg = request 2 in
    let size = Codec.encoded_size msg in
    let frame = Bytes.create (4 + size) in
    Bytes.set_int32_le frame 0 (Int32.of_int size);
    ignore (Codec.encode msg frame ~pos:4);
    let raw = snd pairs.(3) in
    let half = 4 + (size / 2) in
    ignore (Unix.write raw frame 0 half);
    drain ();
    check_got "half a frame delivers nothing" [];
    ignore (Unix.write raw frame half (4 + size - half));
    drain ();
    drain ();
    check_got "split frame from peer 4 arrives whole, once" [ (4, msg) ];
    Array.iter (fun (a, b) -> Unix.close a; Unix.close b) pairs

let suite =
  ( "runtime",
    [
      Alcotest.test_case "live 1paxos: consistent, makes progress" `Quick
        test_live_onepaxos;
      Alcotest.test_case "live multipaxos: consistent, makes progress" `Quick
        test_live_multipaxos;
      Alcotest.test_case "live 1paxos, 5 replicas" `Quick test_live_five_replicas;
      Alcotest.test_case "1-slot rings: outbox fallback stays consistent" `Quick
        test_tiny_queues;
      Alcotest.test_case "sim vs runtime conformance (1paxos)" `Quick
        (conformance Live.Onepaxos Runner.Onepaxos);
      Alcotest.test_case "sim vs runtime conformance (multipaxos)" `Quick
        (conformance Live.Multipaxos Runner.Multipaxos);
      Alcotest.test_case "live sharded 1paxos: consistent and atomic" `Quick
        test_live_sharded_onepaxos;
      Alcotest.test_case "live sharded multipaxos: consistent and atomic" `Quick
        test_live_sharded_multipaxos;
      Alcotest.test_case "back-to-back live runs reuse pool workers" `Quick
        test_live_reuses_workers;
      Alcotest.test_case "live alloc words/op budget (sharded hot path)" `Quick
        test_live_alloc_budget;
      Alcotest.test_case "a 1 ms live run returns within 10 ms" `Quick
        test_live_short_run_returns_promptly;
      Alcotest.test_case "node loops sleep with 1 us timer slack" `Quick
        test_live_timer_slack;
      Alcotest.test_case "live open-loop drivers: sessions read their writes"
        `Quick test_live_open_loop;
      Alcotest.test_case "live saturated 1paxos: tables hold only work in flight"
        `Slow test_live_tables_hold_in_flight;
      Alcotest.test_case "live leases serve local reads" `Quick
        test_live_lease_reads;
      Alcotest.test_case "spec validation" `Quick test_validation;
      Alcotest.test_case "protocol and transport name parsing" `Quick
        test_protocol_names;
      Alcotest.test_case "live runs 2pc, mencius and cheappaxos consistently"
        `Quick test_live_protocols;
      Alcotest.test_case "socket transport: both protocols consistent" `Quick
        test_socket_smoke;
      Alcotest.test_case "socket transport: sharding, open loop, nemesis" `Quick
        test_socket_deployment;
      Alcotest.test_case "socket transport: idle drain selects, frames arrive whole"
        `Quick test_socket_drain;
    ] )
