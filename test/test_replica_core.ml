module Replica_core = Ci_consensus.Replica_core
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command

let v ?(client = 1) ?(req_id = 0) cmd = { Wire.client; req_id; cmd }

let test_in_order_execution () =
  let t = Replica_core.create ~replica:0 in
  let e0 = Replica_core.learn t ~inst:0 (v ~req_id:0 (Put { key = 1; data = 10 })) in
  Alcotest.(check int) "one executed" 1 (List.length e0);
  let e1 = Replica_core.learn t ~inst:1 (v ~req_id:1 (Get { key = 1 })) in
  (match e1 with
   | [ { Replica_core.result = Command.Found (Some 10); inst = 1; _ } ] -> ()
   | _ -> Alcotest.fail "read saw the prior write");
  Alcotest.(check int) "commits" 2 (Replica_core.commits t)

let test_gap_defers_execution () =
  let t = Replica_core.create ~replica:0 in
  let e2 = Replica_core.learn t ~inst:2 (v ~req_id:2 Command.Nop) in
  Alcotest.(check int) "nothing executable yet" 0 (List.length e2);
  Alcotest.(check bool) "decided though" true (Replica_core.is_decided t ~inst:2);
  let e0 = Replica_core.learn t ~inst:0 (v ~req_id:0 Command.Nop) in
  Alcotest.(check int) "only instance 0 runs" 1 (List.length e0);
  let e1 = Replica_core.learn t ~inst:1 (v ~req_id:1 Command.Nop) in
  Alcotest.(check (list int)) "1 and 2 run together" [ 1; 2 ]
    (List.map (fun e -> e.Replica_core.inst) e1);
  Alcotest.(check int) "first gap" 3 (Replica_core.first_gap t)

let test_duplicate_learn_noop () =
  let t = Replica_core.create ~replica:0 in
  let value = v (Put { key = 1; data = 1 }) in
  ignore (Replica_core.learn t ~inst:0 value);
  Alcotest.(check int) "re-learn executes nothing" 0
    (List.length (Replica_core.learn t ~inst:0 value))

let test_session_dedup () =
  let t = Replica_core.create ~replica:0 in
  (* The same client request decided at two instances (a retry during a
     leader change): the second execution must not reapply. *)
  let value = v ~client:9 ~req_id:5 (Put { key = 1; data = 1 }) in
  ignore (Replica_core.learn t ~inst:0 value);
  ignore (Replica_core.learn t ~inst:1 (v ~client:0 ~req_id:0 (Put { key = 1; data = 2 })));
  let e = Replica_core.learn t ~inst:2 value in
  (match e with
   | [ { Replica_core.result = Command.Done; _ } ] -> ()
   | _ -> Alcotest.fail "duplicate still reports a result");
  (* If the duplicate had re-applied, k1 would be 1 again. *)
  Alcotest.(check (option int)) "no double apply" (Some 2) (Replica_core.local_get t ~key:1)

let test_cached_result () =
  let t = Replica_core.create ~replica:0 in
  Alcotest.(check bool) "miss" true
    (Replica_core.cached_result t ~client:1 ~req_id:0 = None);
  ignore (Replica_core.learn t ~inst:0 (v ~client:1 ~req_id:0 (Put { key = 3; data = 4 })));
  (match Replica_core.cached_result t ~client:1 ~req_id:0 with
   | Some Command.Done -> ()
   | _ -> Alcotest.fail "result not cached");
  (* Undecided request still misses. *)
  Alcotest.(check bool) "other request misses" true
    (Replica_core.cached_result t ~client:1 ~req_id:1 = None)

let test_decisions_from () =
  let t = Replica_core.create ~replica:0 in
  for i = 0 to 4 do
    ignore (Replica_core.learn t ~inst:i (v ~req_id:i Command.Nop))
  done;
  Alcotest.(check (list int)) "suffix" [ 2; 3; 4 ]
    (List.map fst (Replica_core.decisions_from t ~from_:2))

let test_view () =
  let t = Replica_core.create ~replica:7 in
  ignore (Replica_core.learn t ~inst:0 (v (Put { key = 1; data = 1 })));
  let view = Replica_core.view t in
  Alcotest.(check int) "replica id" 7 view.Ci_rsm.Consistency.replica;
  Alcotest.(check int) "prefix" 1 view.Ci_rsm.Consistency.executed_prefix;
  Alcotest.(check int) "decisions" 1
    (Ci_rsm.Op_log.decided_count view.Ci_rsm.Consistency.log)

let test_two_replicas_converge () =
  let a = Replica_core.create ~replica:0 and b = Replica_core.create ~replica:1 in
  let values =
    List.init 20 (fun i -> (i, v ~req_id:i (Command.Put { key = i mod 3; data = i })))
  in
  (* a learns in order; b learns in reverse: same final state. *)
  List.iter (fun (i, value) -> ignore (Replica_core.learn a ~inst:i value)) values;
  List.iter (fun (i, value) -> ignore (Replica_core.learn b ~inst:i value)) (List.rev values);
  let va = Replica_core.view a and vb = Replica_core.view b in
  Alcotest.(check int) "same prefix" va.Ci_rsm.Consistency.executed_prefix
    vb.Ci_rsm.Consistency.executed_prefix;
  Alcotest.(check int) "same fingerprint" va.Ci_rsm.Consistency.fingerprint
    vb.Ci_rsm.Consistency.fingerprint

let suite =
  ( "replica_core",
    [
      Alcotest.test_case "in-order execution" `Quick test_in_order_execution;
      Alcotest.test_case "gaps defer execution" `Quick test_gap_defers_execution;
      Alcotest.test_case "duplicate learn is no-op" `Quick test_duplicate_learn_noop;
      Alcotest.test_case "session dedup across instances" `Quick test_session_dedup;
      Alcotest.test_case "cached result" `Quick test_cached_result;
      Alcotest.test_case "decisions_from" `Quick test_decisions_from;
      Alcotest.test_case "consistency view" `Quick test_view;
      Alcotest.test_case "replicas converge regardless of learn order" `Quick
        test_two_replicas_converge;
    ] )
