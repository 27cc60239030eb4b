module Wire = Ci_consensus.Wire
module Pn = Ci_consensus.Pn
module Command = Ci_rsm.Command

let v ?(client = 1) ?(req_id = 2) cmd = { Wire.client; req_id; cmd }

let test_value_equal () =
  let a = v (Command.Put { key = 1; data = 2 }) in
  Alcotest.(check bool) "equal" true
    (Wire.value_equal a (v (Command.Put { key = 1; data = 2 })));
  Alcotest.(check bool) "different cmd" false
    (Wire.value_equal a (v (Command.Put { key = 1; data = 3 })));
  Alcotest.(check bool) "different req" false
    (Wire.value_equal a (v ~req_id:9 (Command.Put { key = 1; data = 2 })));
  Alcotest.(check bool) "different client" false
    (Wire.value_equal a (v ~client:9 (Command.Put { key = 1; data = 2 })))

let test_value_key () =
  Alcotest.(check (pair int int)) "key" (1, 2) (Wire.value_key (v Command.Nop))

let test_config_entry_equal () =
  let lc = Wire.Leader_change { leader = 1; acceptor = 2 } in
  Alcotest.(check bool) "lc equal" true
    (Wire.config_entry_equal lc (Leader_change { leader = 1; acceptor = 2 }));
  Alcotest.(check bool) "lc differs" false
    (Wire.config_entry_equal lc (Leader_change { leader = 2; acceptor = 2 }));
  let ac c = Wire.Acceptor_change { acceptor = 3; carried = c } in
  Alcotest.(check bool) "ac equal with carried" true
    (Wire.config_entry_equal (ac [ (0, v Command.Nop) ]) (ac [ (0, v Command.Nop) ]));
  Alcotest.(check bool) "ac differs in carried" false
    (Wire.config_entry_equal (ac [ (0, v Command.Nop) ]) (ac []));
  Alcotest.(check bool) "ac differs in carried value" false
    (Wire.config_entry_equal
       (ac [ (0, v Command.Nop) ])
       (ac [ (1, v Command.Nop) ]));
  Alcotest.(check bool) "lc <> ac" false (Wire.config_entry_equal lc (ac []))

let test_kind_total () =
  (* Every constructor renders and reports a distinct kind. *)
  let pn = Pn.make ~round:1 ~owner:0 in
  let value = v Command.Nop in
  let msgs =
    [
      Wire.Request { req_id = 1; cmd = Command.Nop; relaxed_read = false };
      Reply { req_id = 1; result = Command.Done };
      Forward { v = value };
      Op_prepare_request { pn; must_be_fresh = true; low = 3 };
      Op_prepare_response { pn; accepted = [] };
      Op_abandon { hpn = pn };
      Op_accept_request { inst = 0; pn; v = value };
      Op_learn { inst = 0; v = value };
      Op_accept_batch { base = 0; pn; vs = [| value |] };
      Op_learn_batch { base = 0; vs = [| value |] };
      Pu_prepare { cseq = 0; pn };
      Pu_promise { cseq = 0; pn; accepted = None; chosen_suffix = [] };
      Pu_reject { cseq = 0; pn; chosen_suffix = [] };
      Pu_accept { cseq = 0; pn; entry = Leader_change { leader = 0; acceptor = 1 } };
      Pu_accepted { cseq = 0; pn };
      Pu_nack { cseq = 0; pn };
      Pu_learn { cseq = 0; entry = Leader_change { leader = 0; acceptor = 1 } };
      Pu_read { token = 0; from_ = 0 };
      Pu_read_reply { token = 0; chosen_suffix = [] };
      Ls_req { token = 0; from_ = 0 };
      Ls_reply { token = 0; decisions = [] };
      Mn_accept { inst = 0; v = Some value };
      Mn_learn { inst = 1; v = None };
      Cp_accept { epoch = 0; inst = 0; v = value };
      Cp_accepted { epoch = 0; inst = 0; v = value };
      Cp_learn { epoch = 0; inst = 0; v = value };
      Cp_state { epoch = 1; accepted = [ (0, value) ] };
      Mp_prepare { pn; low = 0 };
      Mp_promise { pn; accepted = [] };
      Mp_reject { pn };
      Mp_accept { inst = 0; pn; v = value };
      Mp_learn { inst = 0; pn; v = value };
      Mp_accept_batch { base = 0; pn; vs = [| value |] };
      Mp_learn_batch { base = 0; pn; vs = [| value |] };
      Tp_prepare { inst = 0; v = value };
      Tp_ack { inst = 0 };
      Tp_commit { inst = 0; v = value };
      Tp_commit_ack { inst = 0 };
      Tp_rollback { inst = 0 };
    ]
  in
  let kinds = List.map Wire.kind msgs in
  Alcotest.(check int) "all kinds distinct" (List.length msgs)
    (List.length (List.sort_uniq compare kinds));
  List.iter
    (fun m ->
      let s = Format.asprintf "%a" Wire.pp m in
      Alcotest.(check bool) "renders non-empty" true (String.length s > 0))
    msgs

let test_pp_value () =
  Alcotest.(check string) "value rendering" "c1#2:nop"
    (Format.asprintf "%a" Wire.pp_value (v Command.Nop))

let suite =
  ( "wire",
    [
      Alcotest.test_case "value equality" `Quick test_value_equal;
      Alcotest.test_case "value key" `Quick test_value_key;
      Alcotest.test_case "config entry equality" `Quick test_config_entry_equal;
      Alcotest.test_case "kinds total and distinct" `Quick test_kind_total;
      Alcotest.test_case "value printing" `Quick test_pp_value;
    ] )
