module Consistency = Ci_rsm.Consistency
module Op_log = Ci_rsm.Op_log
module Vec = Ci_rsm.Vec

let view replica decisions fingerprint executed_prefix =
  let log = Op_log.create ~equal:String.equal () in
  List.iter (fun (inst, v) -> ignore (Op_log.decide log ~inst v)) decisions;
  { Consistency.replica; log; fingerprint; executed_prefix }

(* [(client, req_id)] pairs, grouped per client in first-seen order. *)
let acked_of pairs =
  List.fold_left
    (fun acc (c, r) ->
      match List.assoc_opt c acc with
      | Some reqs ->
        Vec.push reqs r;
        acc
      | None -> acc @ [ (c, Vec.of_list [ r ]) ])
    [] pairs

let check_all ?(proposed = fun _ -> true) ?(acked = []) views =
  Consistency.check ~equal:String.equal ~proposed ~acked:(acked_of acked)
    ~key_of:(fun v -> (String.length v, 0))
    views

let test_clean () =
  let r =
    check_all
      [
        view 0 [ (0, "a"); (1, "b") ] 42 2;
        view 1 [ (0, "a"); (1, "b") ] 42 2;
      ]
  in
  Alcotest.(check bool) "ok" true (Consistency.ok r);
  Alcotest.(check int) "instances" 2 r.Consistency.checked_instances;
  Alcotest.(check int) "replicas" 2 r.Consistency.checked_replicas

let test_disagreement () =
  let r =
    check_all [ view 0 [ (0, "a") ] 1 1; view 1 [ (0, "DIFFERENT") ] 2 1 ]
  in
  Alcotest.(check bool) "not ok" false (Consistency.ok r);
  match r.Consistency.violations with
  | [ Consistency.Disagreement { inst = 0; a = 0; b = 1 }; _ ] | [ Consistency.Disagreement { inst = 0; a = 0; b = 1 } ] -> ()
  | v -> Alcotest.failf "unexpected violations (%d)" (List.length v)

let test_partial_views_ok () =
  (* A replica that learned fewer instances is not a violation. *)
  let r =
    check_all
      [ view 0 [ (0, "a"); (1, "b"); (2, "c") ] 1 3; view 1 [ (0, "a") ] 2 1 ]
  in
  Alcotest.(check bool) "lagging learner fine" true (Consistency.ok r)

let test_unproposed () =
  let r = check_all ~proposed:(fun v -> v <> "evil") [ view 0 [ (0, "evil") ] 1 1 ] in
  match r.Consistency.violations with
  | [ Consistency.Unproposed { replica = 0; inst = 0 } ] -> ()
  | _ -> Alcotest.fail "expected Unproposed"

let test_fingerprint_mismatch () =
  let r =
    check_all [ view 0 [ (0, "a") ] 111 1; view 1 [ (0, "a") ] 222 1 ]
  in
  match r.Consistency.violations with
  | [ Consistency.Fingerprint_mismatch { prefix = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected Fingerprint_mismatch"

let test_different_prefixes_not_compared () =
  let r = check_all [ view 0 [ (0, "a") ] 111 1; view 1 [] 222 0 ] in
  Alcotest.(check bool) "no cross-prefix comparison" true (Consistency.ok r)

let test_lost_ack () =
  let r = check_all ~acked:[ (1, 0); (9, 9) ] [ view 0 [ (0, "x") ] 1 1 ] in
  (* "x" has key (1,0); the (9,9) ack was never learned. *)
  match r.Consistency.violations with
  | [ Consistency.Lost_ack { client = 9; req_id = 9 } ] -> ()
  | _ -> Alcotest.fail "expected exactly the lost ack"

let test_pp () =
  let r = check_all [ view 0 [ (0, "a") ] 1 1; view 1 [ (0, "b") ] 1 1 ] in
  let s = Format.asprintf "%a" Consistency.pp r in
  Alcotest.(check bool) "mentions disagreement" true
    (String.length s > 0 && not (Consistency.ok r))

(* The checker reads logs in place, in instance order: a disagreement
   must still be found at a log's last instance and right after a gap,
   where an off-by-one in the scan would miss it. *)
let test_disagreement_at_last_instance () =
  let r =
    check_all
      [
        view 0 [ (0, "a"); (1, "b"); (2, "c") ] 1 3;
        view 1 [ (0, "a"); (1, "b"); (2, "X") ] 2 3;
      ]
  in
  match r.Consistency.violations with
  | Consistency.Disagreement { inst = 2; a = 0; b = 1 } :: _ ->
    Alcotest.(check int) "instances" 3 r.Consistency.checked_instances
  | _ -> Alcotest.fail "expected a disagreement at the last instance"

let test_disagreement_next_to_gap () =
  (* Both logs miss instance 1; replica 2 alone decided 5 and 6. *)
  let r =
    check_all
      [
        view 0 [ (0, "a"); (2, "c"); (3, "d") ] 1 1;
        view 1 [ (0, "a"); (2, "Z"); (3, "d") ] 2 1;
        view 2 [ (0, "a"); (5, "e"); (6, "f") ] 1 1;
      ]
  in
  (match r.Consistency.violations with
  | [ Consistency.Disagreement { inst = 2; a = 0; b = 1 }; Consistency.Fingerprint_mismatch _ ] -> ()
  | v -> Alcotest.failf "expected one disagreement at 2 (got %d violations)" (List.length v));
  Alcotest.(check int) "distinct instances" 5 r.Consistency.checked_instances;
  Alcotest.(check int) "replicas" 3 r.Consistency.checked_replicas

(* Every violation kind from one run, in the documented order: by
   property, then replica, then instance. *)
let test_every_kind_in_order () =
  let r =
    check_all
      ~proposed:(fun v -> v <> "evil")
      ~acked:[ (1, 0); (4, 0); (9, 9); (4, 7) ]
      [
        view 0 [ (0, "x"); (1, "evil") ] 10 2;
        view 1 [ (0, "y"); (1, "evil"); (2, "four") ] 20 2;
      ]
  in
  match r.Consistency.violations with
  | [
   Consistency.Disagreement { inst = 0; a = 0; b = 1 };
   Consistency.Unproposed { replica = 0; inst = 1 };
   Consistency.Unproposed { replica = 1; inst = 1 };
   Consistency.Fingerprint_mismatch { a = 0; b = 1; prefix = 2 };
   Consistency.Lost_ack { client = 4; req_id = 7 };
   Consistency.Lost_ack { client = 9; req_id = 9 };
  ] ->
    ()
  | v ->
    Alcotest.failf "unexpected violations: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Consistency.pp_violation) v))

let test_lost_ack_beyond_learned () =
  (* Acked req_ids far above anything learned, and a client no replica
     ever learned from: both are lost. *)
  let r = check_all ~acked:[ (1, 0); (1, 5000); (3, 2) ] [ view 0 [ (0, "x") ] 1 1 ] in
  match r.Consistency.violations with
  | [
   Consistency.Lost_ack { client = 1; req_id = 5000 };
   Consistency.Lost_ack { client = 3; req_id = 2 };
  ] ->
    ()
  | _ -> Alcotest.fail "expected the two lost acks"

let suite =
  ( "consistency",
    [
      Alcotest.test_case "clean report" `Quick test_clean;
      Alcotest.test_case "disagreement detected" `Quick test_disagreement;
      Alcotest.test_case "lagging learner accepted" `Quick test_partial_views_ok;
      Alcotest.test_case "unproposed value detected" `Quick test_unproposed;
      Alcotest.test_case "state divergence detected" `Quick test_fingerprint_mismatch;
      Alcotest.test_case "different prefixes not compared" `Quick
        test_different_prefixes_not_compared;
      Alcotest.test_case "lost ack detected" `Quick test_lost_ack;
      Alcotest.test_case "report printing" `Quick test_pp;
      Alcotest.test_case "disagreement at the last instance" `Quick
        test_disagreement_at_last_instance;
      Alcotest.test_case "disagreement next to a gap" `Quick
        test_disagreement_next_to_gap;
      Alcotest.test_case "every violation kind, in order" `Quick
        test_every_kind_in_order;
      Alcotest.test_case "lost acks beyond the learned range" `Quick
        test_lost_ack_beyond_learned;
    ] )
