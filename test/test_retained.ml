(* Bounded 1Paxos state: the proposer and acceptor tables hold work in
   flight, not history. The deterministic cases run replicas over a
   hand-driven network (every message delivered or dropped by the test,
   no timer ever fires); the churn regression runs the simulator with a
   Ci_faults pause of the leader every N instances. *)

module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Wire = Ci_consensus.Wire
module Pn = Ci_consensus.Pn
module Onepaxos = Ci_consensus.Onepaxos
module Replica_core = Ci_consensus.Replica_core
module Command = Ci_rsm.Command
module Open_client = Ci_load.Open_client
module Run_stats = Ci_load.Run_stats

(* ----- a hand-driven network --------------------------------------------- *)

type net = {
  q : (int * int * Wire.t) Queue.t; (* src, dst, message *)
  mutable drop : src:int -> dst:int -> Wire.t -> bool;
  mutable seen : (int * int * Wire.t) list; (* delivered or dropped, newest first *)
  mutable handlers : (src:int -> Wire.t -> unit) array;
}

let new_net () =
  { q = Queue.create (); drop = (fun ~src:_ ~dst:_ _ -> false); seen = []; handlers = [||] }

(* Timers are accepted and never fired: the cases below progress by
   message delivery alone. *)
let env net id =
  {
    Node_env.id;
    send = (fun ~dst msg -> Queue.add (id, dst, msg) net.q);
    now = (fun () -> 0);
    after = (fun ~delay:_ _ -> ());
    after_cancel = (fun ~delay:_ _ -> { Node_env.cancel = ignore });
    rng = Ci_engine.Rng.create ~seed:id;
    note_phase = (fun ~phase:_ -> ());
  }

let deliver_all net =
  while not (Queue.is_empty net.q) do
    let src, dst, msg = Queue.pop net.q in
    net.seen <- (src, dst, msg) :: net.seen;
    if dst < Array.length net.handlers && not (net.drop ~src ~dst msg) then
      net.handlers.(dst) ~src msg
  done

(* Messages sent since [mark] (a [seen] snapshot), oldest first. *)
let since net mark =
  let rec take acc l =
    if l == mark then acc else match l with [] -> acc | x :: r -> take (x :: acc) r
  in
  take [] net.seen

let client_node = 9
let value i = { Wire.client = client_node; req_id = i; cmd = Command.Put { key = i; data = 100 + i } }

(* [n] replicas, node ids 0..n-1: leader 0, acceptor 1, adopted. *)
let cluster net n =
  let config = Onepaxos.default_config ~replicas:(Array.init n Fun.id) in
  let rs = Array.init n (fun id -> Onepaxos.create ~env:(env net id) ~config) in
  net.handlers <- Array.map (fun r -> Onepaxos.handle r) rs;
  Array.iter Onepaxos.start rs;
  deliver_all net;
  rs

let request net rs ~dst i =
  Onepaxos.handle rs.(dst) ~src:client_node
    (Wire.Request { req_id = i; cmd = (value i).Wire.cmd; relaxed_read = false });
  deliver_all net

(* Leader 0's adoption pn: its first proposal round. *)
let leader_pn = Pn.make ~round:1 ~owner:0

let decided core =
  List.map (fun (i, (v : Wire.value)) -> (i, v.Wire.req_id)) (Replica_core.decisions_from core ~from_:0)

(* ----- acceptor pruning --------------------------------------------------- *)

let test_acceptor_prunes_decided () =
  let net = new_net () in
  let rs = cluster net 3 in
  for i = 0 to 9 do
    request net rs ~dst:0 i
  done;
  let core = Onepaxos.replica_core rs.(1) in
  Alcotest.(check int) "acceptor decided all" 10 (Replica_core.first_gap core);
  let r = Onepaxos.retained rs.(1) and l = Onepaxos.retained rs.(0) in
  Alcotest.(check int) "acceptor keeps no decided acceptance" 0 r.Onepaxos.acceptances;
  Alcotest.(check int) "leader keeps no decided proposal" 0 l.Onepaxos.proposals

(* A retried single accept and a retried batch for pruned instances
   re-learn the logged values, never the retry's values. *)
let test_retried_accepts_relearn () =
  let net = new_net () in
  let rs = cluster net 3 in
  for i = 0 to 9 do
    request net rs ~dst:0 i
  done;
  let other = value 77 in
  let mark = net.seen in
  Onepaxos.handle rs.(1) ~src:0 (Wire.Op_accept_request { inst = 5; pn = leader_pn; v = other });
  deliver_all net;
  let learns =
    List.filter_map
      (fun (src, _, m) ->
        match m with Wire.Op_learn { inst; v } when src = 1 -> Some (inst, v.Wire.req_id) | _ -> None)
      (since net mark)
  in
  Alcotest.(check (list (pair int int))) "single retry re-learns the logged value"
    [ (5, 5); (5, 5); (5, 5) ] learns;
  let mark = net.seen in
  Onepaxos.handle rs.(1) ~src:0
    (Wire.Op_accept_batch { base = 3; pn = leader_pn; vs = [| other; other |] });
  deliver_all net;
  let batches =
    List.filter_map
      (fun (src, _, m) ->
        match m with
        | Wire.Op_learn_batch { base; vs } when src = 1 ->
          Some (base, Array.to_list (Array.map (fun (v : Wire.value) -> v.Wire.req_id) vs))
        | _ -> None)
      (since net mark)
  in
  Alcotest.(check (list (pair int (list int)))) "batch retry re-learns the logged values"
    [ (3, [ 3; 4 ]); (3, [ 3; 4 ]); (3, [ 3; 4 ]) ] batches;
  Alcotest.(check int) "nothing re-accepted" 0 (Onepaxos.retained rs.(1)).Onepaxos.acceptances;
  Array.iter
    (fun r ->
      Alcotest.(check (list (pair int int))) "logs unchanged" (List.init 10 (fun i -> (i, i)))
        (decided (Onepaxos.replica_core r)))
    rs

let prepare_reply net acceptor ~pn ~low =
  let mark = net.seen in
  Onepaxos.handle acceptor ~src:2 (Wire.Op_prepare_request { pn; must_be_fresh = false; low });
  deliver_all net;
  match
    List.filter_map
      (fun (_, _, m) ->
        match m with Wire.Op_prepare_response { accepted; _ } -> Some accepted | _ -> None)
      (since net mark)
  with
  | [ accepted ] -> List.map (fun (i, (_, (v : Wire.value))) -> (i, v.Wire.req_id)) accepted
  | _ -> Alcotest.fail "expected exactly one prepare response"

(* The prepare reply answers for every accepted instance at or above
   [low], from the log below the acceptor's prefix; before [low] it
   carries nothing. *)
let test_prepare_reply_from_log () =
  let net = new_net () in
  let rs = cluster net 3 in
  for i = 0 to 9 do
    request net rs ~dst:0 i
  done;
  Alcotest.(check (list (pair int int))) "decided values at or above low"
    (List.init 7 (fun i -> (i + 3, i + 3)))
    (prepare_reply net rs.(1) ~pn:(Pn.make ~round:5 ~owner:2) ~low:3);
  Alcotest.(check (list (pair int int))) "nothing below a caught-up low" []
    (prepare_reply net rs.(1) ~pn:(Pn.make ~round:6 ~owner:2) ~low:10)

(* Durable registers keep the invariant: after a crash and recovery the
   acceptor still answers for every instance it accepted, pruned ones
   from its log and one above a gap from its acceptance table. *)
let test_stable_recover_keep_invariant () =
  let net = new_net () in
  let rs = cluster net 3 in
  for i = 0 to 5 do
    request net rs ~dst:0 i
  done;
  (* An acceptance above a gap stays in the table: instance 8 with 6
     and 7 undecided. *)
  Onepaxos.handle rs.(1) ~src:0 (Wire.Op_accept_request { inst = 8; pn = leader_pn; v = value 8 });
  deliver_all net;
  Alcotest.(check int) "only the acceptance above the gap" 1
    (Onepaxos.retained rs.(1)).Onepaxos.acceptances;
  let st = Onepaxos.stable rs.(1) in
  let config = Onepaxos.default_config ~replicas:[| 0; 1; 2 |] in
  let back = Onepaxos.recover ~env:(env net 1) ~config ~stable:st in
  net.handlers.(1) <- Onepaxos.handle back;
  deliver_all net;
  Alcotest.(check (list (pair int int))) "recovered acceptor answers for all it accepted"
    [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4); (5, 5); (8, 8) ]
    (prepare_reply net back ~pn:(Pn.make ~round:9 ~owner:2) ~low:0)

(* ----- leader side: a new leader behind the acceptor's prefix ------------ *)

(* Five replicas; learns to 2, 3 and 4 are lost while leader 0 commits
   ten instances, so they lag while acceptor 1 has pruned all ten. Then
   0 goes silent and replica 2 takes over; its learner sync is answered
   only by the laggards, so its prepare carries [low = 0]. The reply
   must carry the ten decided values, and 2 must re-propose exactly
   those at their instances, putting new commands above them. *)
let test_new_leader_below_acceptor_prefix () =
  let net = new_net () in
  let rs = cluster net 5 in
  net.drop <- (fun ~src:_ ~dst m -> dst >= 2 && match m with Wire.Op_learn _ -> true | _ -> false);
  for i = 0 to 9 do
    request net rs ~dst:0 i
  done;
  Alcotest.(check int) "acceptor pruned" 0 (Onepaxos.retained rs.(1)).Onepaxos.acceptances;
  Alcotest.(check int) "replica 2 lags" 0 (Replica_core.first_gap (Onepaxos.replica_core rs.(2)));
  net.drop <-
    (fun ~src ~dst m ->
      src = 0 || dst = 0
      || (src = 1 && dst = 2 && match m with Wire.Ls_reply _ -> true | _ -> false));
  let mark = net.seen in
  request net rs ~dst:2 10;
  let sent = since net mark in
  let low =
    List.filter_map
      (fun (src, _, m) ->
        match m with Wire.Op_prepare_request { low; _ } when src = 2 -> Some low | _ -> None)
      sent
  in
  Alcotest.(check (list int)) "prepare carries the laggard's low" [ 0 ] low;
  let replies =
    List.filter_map
      (fun (_, dst, m) ->
        match m with
        | Wire.Op_prepare_response { accepted; _ } when dst = 2 ->
          Some (List.map (fun (i, (_, (v : Wire.value))) -> (i, v.Wire.req_id)) accepted)
        | _ -> None)
      sent
  in
  Alcotest.(check (list (list (pair int int)))) "reply carries the decided values"
    [ List.init 10 (fun i -> (i, i)) ] replies;
  let accepts =
    List.filter_map
      (fun (src, _, m) ->
        match m with
        | Wire.Op_accept_request { inst; v; _ } when src = 2 -> Some (inst, v.Wire.req_id)
        | _ -> None)
      sent
  in
  Alcotest.(check (list (pair int int))) "re-proposes them, then proposes the new command"
    (List.init 11 (fun i -> (i, i))) accepts;
  Alcotest.(check bool) "replica 2 leads" true (Onepaxos.is_leader rs.(2));
  List.iter
    (fun i ->
      Alcotest.(check (list (pair int int))) "every live log agrees"
        (List.init 11 (fun i -> (i, i)))
        (decided (Onepaxos.replica_core rs.(i))))
    [ 1; 2; 3; 4 ]

(* ----- churn: a leader change every N instances ------------------------- *)

type churn = {
  c_instances : int;
  c_changes : int;
  c_max_accepted : int; (* longest [accepted] in any prepare response *)
  c_max_retained : int; (* most entries any replica held, sampled *)
}

let n_clients = 4

(* 3 replicas and [n_clients] closed-loop clients on the simulator.
   Each time the decided prefix passes another [every] instances, the
   current leader is paused for 3 ms through a Ci_faults schedule: its
   clients time out, fail over, and another replica takes over. The
   clients fail over in the order 0, 2, 1, so takeovers alternate
   between one that keeps the acceptor (whose prepare response is what
   is measured) and one where the acceptor node itself takes the lead
   and installs a fresh acceptor elsewhere. *)
let churn ~every ~instances =
  let machine =
    Machine.create ~seed:11 ~topology:(Topology.single_socket (3 + n_clients))
      ~params:Net_params.multicore ()
  in
  let nodes = Array.init 3 (fun i -> Machine.add_node machine ~core:i) in
  let ids = Array.map Machine.node_id nodes in
  let paused = Array.make 3 false in
  let backlog = Array.init 3 (fun _ -> Queue.create ()) in
  let gate i f () = if paused.(i) then Queue.add f backlog.(i) else f () in
  let config = Onepaxos.default_config ~replicas:ids in
  let replicas =
    Array.mapi
      (fun i node ->
        let base = Machine.env node in
        Onepaxos.create
          ~env:
            {
              base with
              Node_env.after = (fun ~delay f -> base.Node_env.after ~delay (gate i f));
              after_cancel = (fun ~delay f -> base.Node_env.after_cancel ~delay (gate i f));
            }
          ~config)
      nodes
  in
  let max_accepted = ref 0 in
  Array.iteri
    (fun i node ->
      Machine.set_handler node (fun ~src msg ->
          (match msg with
          | Wire.Op_prepare_response { accepted; _ } ->
            max_accepted := max !max_accepted (List.length accepted)
          | _ -> ());
          gate i (fun () -> Onepaxos.handle replicas.(i) ~src msg) ()))
    nodes;
  let clients =
    Array.init n_clients (fun c ->
        let node = Machine.add_node machine ~core:(3 + c) in
        let client =
          Open_client.create ~env:(Machine.env node)
            ~config:
              {
                (Open_client.default_config ~targets:[| ids.(0); ids.(2); ids.(1) |]) with
                stop_at = max_int;
                loop =
                  Closed
                    { think = 0; read_ratio = 0.; cross_shard_ratio = 0.; key_space = 1024 };
              }
            ~sink:(Samples (Run_stats.create ~bucket:(Sim_time.ms 10)))
        in
        Machine.set_handler node (fun ~src msg -> Open_client.handle client ~src msg);
        client)
  in
  let resume i =
    paused.(i) <- false;
    while not (Queue.is_empty backlog.(i)) do
      (Queue.pop backlog.(i)) ()
    done
  in
  let pause_leader () =
    match Array.find_index Onepaxos.is_leader replicas with
    | None -> false
    | Some i ->
      let now = Machine.now machine in
      let nemesis =
        {
          Ci_faults.seed = 0;
          faults =
            [ Ci_faults.Pause { node = i; from_ = now + 1; until_ = now + Sim_time.ms 3 } ];
        }
      in
      (match Ci_faults.validate ~n_nodes:(3 + n_clients) nemesis with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Ci_workload.Nemesis.install machine ~nemesis ~crash:(fun ~node:_ -> ())
        ~restart:(fun ~node:_ -> ())
        ~pause:(fun ~node -> paused.(node) <- true)
        ~resume:(fun ~node -> resume node);
      true
  in
  Array.iter Onepaxos.start replicas;
  Array.iter Open_client.start clients;
  let prefix () =
    Array.fold_left (fun a r -> max a (Replica_core.first_gap (Onepaxos.replica_core r))) 0 replicas
  in
  let max_retained = ref 0 in
  let next_change = ref every in
  let quiet_until = ref 0 in
  let limit = Sim_time.ms 60_000 in
  while prefix () < instances && Machine.now machine < limit do
    Machine.run_until machine ~time:(Machine.now machine + Sim_time.us 100);
    Array.iter
      (fun r ->
        let k = Onepaxos.retained r in
        max_retained := max !max_retained (max k.Onepaxos.proposals k.Onepaxos.acceptances))
      replicas;
    let now = Machine.now machine in
    if prefix () >= !next_change && now >= !quiet_until then
      if pause_leader () then begin
        next_change := !next_change + every;
        quiet_until := now + Sim_time.ms 5
      end
  done;
  {
    c_instances = prefix ();
    c_changes = Array.fold_left (fun a r -> max a (Onepaxos.leader_changes r)) 0 replicas;
    c_max_accepted = !max_accepted;
    c_max_retained = !max_retained;
  }

(* Fails when takeover cost grows with history: a prepare response that
   ships the whole acceptance table, or tables that keep every decided
   instance. Both measures must stay under a bound set by the clients'
   in-flight requests at every change frequency and run length. *)
let test_churn_flat () =
  let bound = 4 * n_clients in
  let runs = [ (2_000, 40_000); (2_000, 200_000); (20_000, 200_000) ] in
  List.iter
    (fun (every, instances) ->
      let c = churn ~every ~instances in
      let what = Printf.sprintf "every %d over %d" every instances in
      Alcotest.(check bool) (what ^ ": reached the run length") true (c.c_instances >= instances);
      Alcotest.(check bool)
        (Printf.sprintf "%s: leaders changed (%d)" what c.c_changes)
        true
        (c.c_changes >= instances / every / 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: prepare response length %d <= %d" what c.c_max_accepted bound)
        true (c.c_max_accepted <= bound);
      Alcotest.(check bool)
        (Printf.sprintf "%s: retained entries %d <= %d" what c.c_max_retained bound)
        true (c.c_max_retained <= bound))
    runs

let suite =
  ( "retained",
    [
      Alcotest.test_case "acceptor and leader prune decided instances" `Quick
        test_acceptor_prunes_decided;
      Alcotest.test_case "retried accepts for pruned instances re-learn" `Quick
        test_retried_accepts_relearn;
      Alcotest.test_case "prepare reply answers from the log" `Quick
        test_prepare_reply_from_log;
      Alcotest.test_case "stable/recover keep the acceptor invariant" `Quick
        test_stable_recover_keep_invariant;
      Alcotest.test_case "new leader below the acceptor's prefix re-proposes" `Quick
        test_new_leader_below_acceptor_prefix;
      Alcotest.test_case "leader change every N instances: flat takeover" `Slow
        test_churn_flat;
    ] )
