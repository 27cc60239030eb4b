(* The bounded model checker: exhaustion on crash-tolerant protocols,
   genuine blocking counterexamples on crash-intolerant ones, trace
   round-trips, shrinking, and replay determinism. *)

module Trace = Ci_explore.Trace
module Search = Ci_explore.Search
module World = Ci_explore.World

let cfg ?(protocol = Trace.Onepaxos) ?(crashes = 0) ?(drops = 0) ?(fires = 4)
    ?(commands = 2) ?(stale = false) () =
  {
    (Trace.default_config ~protocol) with
    Trace.crash_budget = crashes;
    drop_budget = drops;
    fire_budget = fires;
    n_commands = commands;
    unsafe_stale_adoption = stale;
  }

let bounds ?(max_depth = 48) ?(max_states = 200_000) () =
  { Search.default_bounds with Search.max_depth; max_states }

(* ----- trace serialization ---------------------------------------------- *)

let trace_round_trips () =
  let config = cfg ~crashes:1 ~drops:2 () in
  let choices =
    [
      Trace.Deliver { src = 0; dst = 1 };
      Trace.Fire { node = 2 };
      Trace.Drop { src = 1; dst = 3 };
      Trace.Crash { node = 1 };
    ]
  in
  let s = Trace.to_string ~config choices in
  match Trace.of_string s with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok (config', choices') ->
    Alcotest.(check bool) "config survives" true (config = config');
    Alcotest.(check bool) "choices survive" true (choices = choices');
    Alcotest.(check string) "hash stable" (Trace.hash_hex choices)
      (Trace.hash_hex choices')

let trace_rejects_garbage () =
  (match Trace.of_string "deliver 0 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trace without header");
  let config = cfg () in
  let s = Trace.to_string ~config [] ^ "teleport 3 4\n" in
  match Trace.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown choice"

(* ----- exhaustive runs on crash-tolerant protocols ----------------------- *)

(* The acceptance config from the issue: 3 replicas, 1 client, 2
   commands, one crash anywhere — 1Paxos must survive every schedule.
   With no timer nondeterminism the space is small enough to exhaust
   outright, so [Exhausted] here is a real verification result. *)
let onepaxos_exhausts_with_a_crash () =
  let r = Search.explore ~bounds:(bounds ()) (cfg ~crashes:1 ~fires:0 ()) in
  (match r.Search.outcome with
  | Search.Exhausted -> ()
  | Search.Bounded -> Alcotest.fail "expected exhaustion, hit budget"
  | Search.Violated { violation; _ } ->
    Alcotest.failf "unexpected violation: %a" Search.pp_violation violation);
  (* Pinned: building replicas through the protocol registry must not
     change what the explorer sees. *)
  Alcotest.(check int) "explored states" 251 r.Search.stats.states;
  Alcotest.(check bool) "dedup pruned something" true
    (r.Search.stats.dedup_hits > 0);
  Alcotest.(check bool) "sleep sets pruned something" true
    (r.Search.stats.sleep_skips > 0)

let multipaxos_exhausts_with_a_crash () =
  let r =
    Search.explore ~bounds:(bounds ())
      (cfg ~protocol:Trace.Multipaxos ~crashes:1 ~fires:0 ~commands:1 ())
  in
  (match r.Search.outcome with
  | Search.Exhausted -> ()
  | Search.Bounded -> Alcotest.fail "expected exhaustion, hit budget"
  | Search.Violated { violation; _ } ->
    Alcotest.failf "unexpected violation: %a" Search.pp_violation violation);
  Alcotest.(check int) "explored states" 3824 r.Search.stats.states

(* ----- genuine liveness counterexamples --------------------------------- *)

(* 2PC's defining weakness: it blocks if any participant fails, since
   commit needs every ack. The checker must find the one-step
   counterexample — crash a node — and shrinking must reduce whatever
   schedule found it first to exactly that single choice. *)
let twopc_blocks_on_any_crash () =
  let r =
    Search.explore ~bounds:(bounds ())
      (cfg ~protocol:Trace.Twopc ~crashes:1 ~fires:0 ())
  in
  match r.Search.outcome with
  | Search.Violated { shrunk; shrunk_violation; _ } ->
    (match shrunk_violation with
    | Search.Livelock { missing } ->
      Alcotest.(check bool) "some command is stuck" true (missing <> [])
    | Search.Safety _ -> Alcotest.fail "expected a livelock, got safety");
    (match shrunk with
    | [ Trace.Crash { node = _ } ] -> ()
    | other ->
      Alcotest.failf "expected 1-choice counterexample, got %d: %s"
        (List.length other)
        (String.concat "; " (List.map Trace.choice_to_line other)))
  | Search.Exhausted | Search.Bounded ->
    Alcotest.fail "2pc survived a crash it cannot survive"

(* Mencius without revocation has the same shape: every replica owns an
   instance sequence, so a dead owner stalls the log. The full search
   takes minutes (Mencius floods skip messages, and the livelock only
   shows at deep quiescent states), so replay the known one-step
   counterexample the explorer shrinks to — crash node 0 — and check
   the liveness closure still convicts it. A modest step cap keeps the
   closure cheap without changing the verdict: the stalled command can
   never be acknowledged at any cap. *)
let mencius_blocks_on_any_crash () =
  let config = cfg ~protocol:Trace.Mencius ~crashes:1 ~fires:0 ~commands:1 () in
  match Search.replay ~closure_steps:2_000 config [ Trace.Crash { node = 0 } ] with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok None -> Alcotest.fail "mencius survived an owner crash without revocation"
  | Ok (Some (Search.Livelock { missing })) ->
    Alcotest.(check bool) "the client's command is stuck" true (missing <> [])
  | Ok (Some (Search.Safety _)) -> Alcotest.fail "expected a livelock, got safety"

(* ----- the seeded split-brain regression --------------------------------- *)

(* A genuine safety bug this checker surfaced in [Onepaxos], since
   fixed: when the acceptor role relocated, the deposed acceptor kept
   honoring its stale promise, so a takeover whose prepare never
   reached it could decide one value at a fresh acceptor while the old
   leader's withheld accept later landed at the stale one — replicas
   diverge at instance 0. The fix retires an acceptor the moment the
   config log moves the role away from it; [unsafe_stale_adoption]
   disables retirement so the bug stays available as a seeded
   regression target. This 36-choice witness (no drops, no crashes,
   one timer fire) is the schedule the fix was derived from; DESIGN.md
   §14 walks through it choice by choice. *)
let split_brain_trace =
  {|# consensus-explore trace v1
config proto=1paxos replicas=3 clients=2 commands=1 seed=1 drops=0 crashes=0 fires=1 stale_adoption=false
deliver 0 1
deliver 1 0
deliver 3 0
fire 4
deliver 4 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 1 2
deliver 1 2
deliver 2 1
deliver 1 2
deliver 2 1
deliver 0 1
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
deliver 1 0
|}

let parse_split_brain () =
  match Trace.of_string split_brain_trace with
  | Error e -> Alcotest.failf "fixture parse: %s" e
  | Ok (config, choices) -> (config, choices)

(* Both directions of the regression: the fixed protocol survives the
   witness schedule, and re-opening the hole reproduces the
   disagreement on the very same schedule. *)
let split_brain_is_fixed () =
  let config, choices = parse_split_brain () in
  (match Search.replay config choices with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok None -> ()
  | Ok (Some v) ->
    Alcotest.failf "fixed protocol still violates: %a" Search.pp_violation v);
  let unsafe = { config with Trace.unsafe_stale_adoption = true } in
  match Search.replay unsafe choices with
  | Error e -> Alcotest.failf "unsafe replay: %s" e
  | Ok (Some (Search.Safety _)) -> ()
  | Ok None -> Alcotest.fail "seeded bug did not reproduce"
  | Ok (Some (Search.Livelock _)) ->
    Alcotest.fail "expected disagreement, got livelock"

(* The explorer finds the seeded bug itself. The full 36-choice space
   is beyond a unit-test budget, so guide the search with the witness's
   first 26 choices (through the takeover's decision) and let the DFS
   discover the violating completion; the shrunk result must replay to
   the same disagreement from a fresh world. *)
let explorer_finds_seeded_split_brain () =
  let config, choices = parse_split_brain () in
  let unsafe = { config with Trace.unsafe_stale_adoption = true } in
  let prefix = List.filteri (fun i _ -> i < 26) choices in
  let r =
    Search.explore
      ~bounds:{ (bounds ~max_depth:16 ~max_states:20_000 ()) with
                Search.closure_steps = 2_000 }
      ~prefix unsafe
  in
  match r.Search.outcome with
  | Search.Violated { trace; violation; shrunk; shrunk_violation } ->
    (match (violation, shrunk_violation) with
    | Search.Safety _, Search.Safety _ -> ()
    | _ -> Alcotest.failf "expected disagreement, got %a" Search.pp_violation violation);
    Alcotest.(check bool) "shrinking never grows the trace" true
      (List.length shrunk <= List.length trace);
    (match Search.replay unsafe shrunk with
    | Ok (Some (Search.Safety _)) -> ()
    | Ok (Some (Search.Livelock _)) | Ok None | Error _ ->
      Alcotest.fail "shrunk counterexample does not replay to disagreement")
  | Search.Exhausted -> Alcotest.fail "seeded bug not found: exhausted"
  | Search.Bounded -> Alcotest.fail "seeded bug not found: budget ran out"

(* A prefix the config cannot produce must be rejected eagerly, not
   silently explored from a corrupt state. *)
let explore_rejects_bad_prefix () =
  let config = cfg ~crashes:0 ~fires:0 () in
  match Search.explore ~prefix:[ Trace.Crash { node = 0 } ] config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "explored from a prefix the config cannot produce"

(* ----- replay determinism ----------------------------------------------- *)

(* explore -> shrink -> serialize -> replay, twice: identical trace
   hash, identical verdict kind. This is the contract that makes
   counterexample files durable artifacts rather than one-off logs. *)
let replay_is_deterministic () =
  let config = cfg ~protocol:Trace.Twopc ~crashes:1 ~fires:0 () in
  let r = Search.explore ~bounds:(bounds ()) config in
  match r.Search.outcome with
  | Search.Violated { shrunk; shrunk_violation; _ } ->
    let serialized = Trace.to_string ~config shrunk in
    let run () =
      match Trace.of_string serialized with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok (config', choices') -> (
        match Search.replay config' choices' with
        | Error e -> Alcotest.failf "replay: %s" e
        | Ok verdict -> (Trace.hash_hex choices', verdict))
    in
    let h1, v1 = run () in
    let h2, v2 = run () in
    Alcotest.(check string) "hashes agree across runs" h1 h2;
    Alcotest.(check string) "hash matches the explorer's" h1
      (Trace.hash_hex shrunk);
    (match (v1, v2) with
    | Some a, Some b ->
      Alcotest.(check bool) "verdict kind stable" true (Search.same_kind a b);
      Alcotest.(check bool) "verdict matches explorer" true
        (Search.same_kind a shrunk_violation)
    | _ -> Alcotest.fail "replay lost the violation")
  | _ -> Alcotest.fail "no counterexample to replay"

(* A trace replayed against the wrong config must fail loudly, not
   silently diverge. *)
let replay_rejects_wrong_config () =
  let config = cfg ~crashes:1 ~fires:0 () in
  let r = Search.explore ~bounds:(bounds ()) config in
  (match r.Search.outcome with
  | Search.Exhausted -> ()
  | _ -> Alcotest.fail "setup: expected exhaustion");
  (* A crash choice is never enabled under a zero crash budget. *)
  let no_crash = cfg ~crashes:0 ~fires:0 () in
  match Search.replay no_crash [ Trace.Crash { node = 1 } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replayed a choice outside the config's budgets"

(* ----- world-level invariants ------------------------------------------- *)

(* Enabled choices must be exactly the applicable ones: applying any
   enabled choice succeeds, and the enumeration is stable (the replay
   contract's total order). *)
let enabled_choices_are_applicable () =
  let config = cfg ~crashes:1 ~drops:1 ~fires:2 () in
  let w = World.create config in
  let en1 = World.enabled w in
  let en2 = World.enabled w in
  Alcotest.(check bool) "enumeration is stable" true (en1 = en2);
  Alcotest.(check bool) "initial state has choices" true (en1 <> []);
  List.iter
    (fun c ->
      let w' = World.create config in
      match World.apply w' c with
      | () -> ()
      | exception Invalid_argument msg ->
        Alcotest.failf "enabled choice %s failed to apply: %s"
          (Trace.choice_to_line c) msg)
    en1

let majority_is_preserved () =
  let config = cfg ~crashes:2 ~fires:0 () in
  (* 3 replicas: one crash keeps a majority (2 >= 2), a second would
     not — the world must never enable it. *)
  let w = World.create config in
  World.apply w (Trace.Crash { node = 0 });
  let crashes =
    List.filter
      (fun c -> match c with Trace.Crash _ -> true | _ -> false)
      (World.enabled w)
  in
  Alcotest.(check (list string)) "no second crash enabled" []
    (List.map Trace.choice_to_line crashes)

let suite =
  ( "explore",
    [
      Alcotest.test_case "trace round-trips" `Quick trace_round_trips;
      Alcotest.test_case "trace rejects garbage" `Quick trace_rejects_garbage;
      Alcotest.test_case "enabled choices are applicable" `Quick
        enabled_choices_are_applicable;
      Alcotest.test_case "crashes preserve majority" `Quick majority_is_preserved;
      Alcotest.test_case "1paxos exhausts with a crash" `Quick
        onepaxos_exhausts_with_a_crash;
      Alcotest.test_case "multipaxos exhausts with a crash" `Slow
        multipaxos_exhausts_with_a_crash;
      Alcotest.test_case "2pc blocks on any crash" `Quick twopc_blocks_on_any_crash;
      Alcotest.test_case "mencius blocks on any crash" `Quick
        mencius_blocks_on_any_crash;
      Alcotest.test_case "split-brain witness: fixed and re-seedable" `Quick
        split_brain_is_fixed;
      Alcotest.test_case "explorer finds the seeded split-brain" `Quick
        explorer_finds_seeded_split_brain;
      Alcotest.test_case "explore rejects bad prefix" `Quick
        explore_rejects_bad_prefix;
      Alcotest.test_case "replay is deterministic" `Quick replay_is_deterministic;
      Alcotest.test_case "replay rejects wrong config" `Quick
        replay_rejects_wrong_config;
    ] )
