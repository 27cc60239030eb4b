(* The binary codec must be a bijection over the full Wire.t vocabulary
   (decode ∘ encode = id), reject malformed input with Codec.Error only,
   and encode without allocating — the property the byte transports rely
   on for their zero-copy hot path. *)

module Codec = Ci_consensus.Codec
module Wire = Ci_consensus.Wire
module Pn = Ci_consensus.Pn
module Command = Ci_rsm.Command

let v ?(client = 1) ?(req_id = 2) cmd = { Wire.client; req_id; cmd }

(* ---------- generators ---------- *)

(* Integers must survive the 8-byte round trip across the whole 63-bit
   range, including the negatives Pn.bottom carries. *)
let int_gen =
  QCheck.Gen.(
    frequency
      [
        (5, int_bound 100_000);
        (2, map (fun n -> -n) (int_bound 100_000));
        (1, oneofl [ 0; 1; -1; max_int; min_int; 0xFFFF_FFFF; -0xFFFF_FFFF ]);
      ])

let cmd_gen =
  QCheck.Gen.(
    let* tag = int_bound 7 in
    let* a = int_gen and* b = int_gen and* c = int_gen and* d = int_gen in
    let* flag = bool in
    return
      (match tag with
      | 0 -> Command.Put { key = a; data = b }
      | 1 -> Command.Get { key = a }
      | 2 -> Command.Cas { key = a; expect = b; data = c }
      | 3 -> Command.Nop
      | 4 -> Command.Mput { k1 = a; d1 = b; k2 = c; d2 = d }
      | 5 -> Command.Prep { txn = a; key = b; data = c }
      | 6 -> Command.Range { lo = a; hi = b }
      | _ -> Command.Fin { txn = a; key = b; commit = flag }))

let result_gen =
  QCheck.Gen.(
    let* x = int_gen and* flag = bool in
    let* kvs = list_size (int_bound 5) (pair int_gen int_gen) in
    oneofl
      [ Command.Done; Command.Found None; Command.Found (Some x);
        Command.Swapped flag; Command.Vals kvs; Command.Rejected ])

let value_gen =
  QCheck.Gen.(
    let* client = int_gen and* req_id = int_gen and* cmd = cmd_gen in
    return { Wire.client; req_id; cmd })

let pn_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* round = int_bound 100_000 and* owner = int_bound 1_000 in
          return (Pn.make ~round ~owner) );
        (1, return Pn.bottom);
      ])

let entry_gen =
  QCheck.Gen.(
    let* tag = int_bound 2 in
    match tag with
    | 0 ->
      let* leader = int_gen and* acceptor = int_gen in
      return (Wire.Leader_change { leader; acceptor })
    | 1 ->
      let* acceptor = int_gen in
      let* carried =
        list_size (int_bound 4) (pair int_gen value_gen)
      in
      return (Wire.Acceptor_change { acceptor; carried })
    | _ ->
      let* actives = list_size (int_bound 6) int_gen in
      return (Wire.Epoch_change { actives }))

let iv_list_gen = QCheck.Gen.(list_size (int_bound 5) (pair int_gen value_gen))

let ipnv_list_gen =
  QCheck.Gen.(list_size (int_bound 5) (pair int_gen (pair pn_gen value_gen)))

let ie_list_gen = QCheck.Gen.(list_size (int_bound 5) (pair int_gen entry_gen))

let varr_gen =
  QCheck.Gen.(
    let* n = int_bound 9 in
    let* vs = list_repeat n value_gen in
    return (Array.of_list vs))

(* One generator per constructor, so shrink-free random sampling still
   exercises the complete vocabulary with high probability. *)
let msg_gen =
  QCheck.Gen.(
    let open Wire in
    let* inst = int_gen
    and* epoch = int_gen
    and* base = int_gen
    and* cseq = int_gen
    and* token = int_gen
    and* from_ = int_gen
    and* req_id = int_gen
    and* low = int_gen
    and* flag = bool
    and* pn = pn_gen
    and* apn = pn_gen
    and* value = value_gen
    and* opt_v = option value_gen
    and* cmd = cmd_gen
    and* result = result_gen
    and* entry = entry_gen
    and* iv = iv_list_gen
    and* ipnv = ipnv_list_gen
    and* ie = ie_list_gen
    and* vs = varr_gen in
    let accepted_pe = if flag then Some (apn, entry) else None in
    oneofl
      [
        Request { req_id; cmd; relaxed_read = flag };
        Reply { req_id; result };
        Forward { v = value };
        Op_prepare_request { pn; must_be_fresh = flag; low };
        Op_prepare_response { pn; accepted = ipnv };
        Op_abandon { hpn = pn };
        Op_accept_request { inst; pn; v = value };
        Op_learn { inst; v = value };
        Op_accept_batch { base; pn; vs };
        Op_learn_batch { base; vs };
        Pu_prepare { cseq; pn };
        Pu_promise { cseq; pn; accepted = accepted_pe; chosen_suffix = ie };
        Pu_reject { cseq; pn; chosen_suffix = ie };
        Pu_accept { cseq; pn; entry };
        Pu_accepted { cseq; pn };
        Pu_nack { cseq; pn };
        Pu_learn { cseq; entry };
        Pu_read { token; from_ };
        Pu_read_reply { token; chosen_suffix = ie };
        Ls_req { token; from_ };
        Ls_reply { token; decisions = iv };
        Mp_prepare { pn; low };
        Mp_promise { pn; accepted = ipnv };
        Mp_reject { pn };
        Mp_accept { inst; pn; v = value };
        Mp_learn { inst; pn; v = value };
        Mp_accept_batch { base; pn; vs };
        Mp_learn_batch { base; pn; vs };
        Mn_accept { inst; v = opt_v };
        Mn_learn { inst; v = opt_v };
        Cp_accept { epoch; inst; v = value };
        Cp_accepted { epoch; inst; v = value };
        Cp_learn { epoch; inst; v = value };
        Cp_state { epoch; accepted = iv };
        Tp_prepare { inst; v = value };
        Tp_ack { inst };
        Tp_commit { inst; v = value };
        Tp_commit_ack { inst };
        Tp_rollback { inst };
        Tp_nack { inst };
        Le_renew { pn; sent = inst };
        Le_grant { pn; sent = inst };
      ])

let msg_arb =
  QCheck.make ~print:(fun m -> Format.asprintf "%a" Wire.pp m) msg_gen

(* Deterministic sample hitting all 42 constructors, including the
   shapes qcheck rarely draws (empty batch, Pn.bottom, big lists). *)
let vocabulary =
  let pn = Pn.make ~round:3 ~owner:1 in
  let value = v (Command.Mput { k1 = 1; d1 = 2; k2 = 3; d2 = 4 }) in
  let entry =
    Wire.Acceptor_change { acceptor = 2; carried = [ (7, v Command.Nop) ] }
  in
  let ie = [ (0, entry); (1, Wire.Epoch_change { actives = [ 0; 1; 2 ] }) ] in
  let iv = [ (0, value); (1, v (Command.Get { key = 9 })) ] in
  let ipnv = [ (4, (pn, value)); (5, (Pn.bottom, v Command.Nop)) ] in
  let vs = Array.init 8 (fun i -> v ~req_id:i (Command.Put { key = i; data = i })) in
  [
    Wire.Request { req_id = 1; cmd = Command.Cas { key = 1; expect = 2; data = 3 }; relaxed_read = true };
    Reply { req_id = 2; result = Command.Found (Some max_int) };
    Forward { v = value };
    Op_prepare_request { pn = Pn.bottom; must_be_fresh = false; low = max_int };
    Op_prepare_response { pn; accepted = ipnv };
    Op_abandon { hpn = pn };
    Op_accept_request { inst = 42; pn; v = value };
    Op_learn { inst = 0; v = value };
    Op_accept_batch { base = 100; pn; vs };
    Op_learn_batch { base = 7; vs = [||] };
    Pu_prepare { cseq = 0; pn };
    Pu_promise { cseq = 1; pn; accepted = Some (Pn.bottom, entry); chosen_suffix = ie };
    Pu_reject { cseq = 2; pn; chosen_suffix = ie };
    Pu_accept { cseq = 3; pn; entry };
    Pu_accepted { cseq = 4; pn };
    Pu_nack { cseq = 5; pn };
    Pu_learn { cseq = 6; entry = Wire.Leader_change { leader = 1; acceptor = 2 } };
    Pu_read { token = 7; from_ = 1 };
    Pu_read_reply { token = 8; chosen_suffix = [] };
    Ls_req { token = 9; from_ = 2 };
    Ls_reply { token = 10; decisions = iv };
    Mp_prepare { pn; low = -1 };
    Mp_promise { pn; accepted = ipnv };
    Mp_reject { pn };
    Mp_accept { inst = 6; pn; v = value };
    Mp_learn { inst = 7; pn; v = value };
    Mp_accept_batch { base = 11; pn; vs };
    Mp_learn_batch { base = 12; pn; vs };
    Mn_accept { inst = 8; v = Some value };
    Mn_learn { inst = 9; v = None };
    Cp_accept { epoch = 1; inst = 10; v = value };
    Cp_accepted { epoch = 2; inst = 11; v = value };
    Cp_learn { epoch = 3; inst = 12; v = value };
    Cp_state { epoch = 4; accepted = iv };
    Tp_prepare { inst = 13; v = value };
    Tp_ack { inst = 14 };
    Tp_commit { inst = 15; v = value };
    Tp_commit_ack { inst = 16 };
    Tp_rollback { inst = 17 };
    Tp_nack { inst = min_int };
    Le_renew { pn; sent = 1234 };
    Le_grant { pn; sent = max_int };
  ]

(* Shapes the kind-distinct vocabulary above cannot carry twice: the
   Range command and its Vals / Rejected results ride inside Request
   and Reply, whose slots are already taken. *)
let vocabulary_extras =
  [
    Wire.Request
      { req_id = 3; cmd = Command.Range { lo = 2; hi = 9 }; relaxed_read = false };
    Reply { req_id = 4; result = Command.Vals [ (2, 20); (5, 50) ] };
    Reply { req_id = 5; result = Command.Vals [] };
    Reply { req_id = 6; result = Command.Rejected };
  ]

let roundtrip m =
  let size = Codec.encoded_size m in
  let buf = Bytes.create (size + 16) in
  let written = Codec.encode m buf ~pos:5 in
  if written <> size then
    Alcotest.failf "encode wrote %d, encoded_size said %d" written size;
  Codec.decode buf ~pos:5 ~len:size

let test_vocabulary_roundtrip () =
  Alcotest.(check int) "all constructors present" 42 (List.length vocabulary);
  Alcotest.(check int) "kinds distinct" 42
    (List.length (List.sort_uniq compare (List.map Wire.kind vocabulary)));
  List.iter
    (fun m ->
      let m' = roundtrip m in
      if m' <> m then
        Alcotest.failf "round trip changed %a into %a" Wire.pp m Wire.pp m')
    (vocabulary @ vocabulary_extras)

let roundtrip_prop =
  QCheck.Test.make ~name:"decode (encode m) = m" ~count:2000 msg_arb (fun m ->
      roundtrip m = m)

(* Every truncation of a valid encoding must raise Codec.Error — never
   succeed, never escape with a different exception. *)
let test_truncation () =
  List.iter
    (fun m ->
      let size = Codec.encoded_size m in
      let buf = Bytes.create size in
      ignore (Codec.encode m buf ~pos:0);
      for len = 0 to size - 1 do
        match Codec.decode buf ~pos:0 ~len with
        | _ -> Alcotest.failf "truncated %a at %d decoded" Wire.pp m len
        | exception Codec.Error _ -> ()
      done;
      (* Trailing bytes are also a framing error. *)
      let padded = Bytes.make (size + 1) '\x00' in
      ignore (Codec.encode m padded ~pos:0);
      match Codec.decode padded ~pos:0 ~len:(size + 1) with
      | _ -> Alcotest.failf "%a with trailing byte decoded" Wire.pp m
      | exception Codec.Error _ -> ())
    (vocabulary @ vocabulary_extras)

let garbage_prop =
  QCheck.Test.make ~name:"garbage decode errors, never crashes" ~count:2000
    QCheck.(string_of_size Gen.(int_bound 80))
    (fun s ->
      let buf = Bytes.of_string s in
      match Codec.decode buf ~pos:0 ~len:(Bytes.length buf) with
      | _ -> true
      | exception Codec.Error _ -> true)

let corruption_prop =
  QCheck.Test.make ~name:"corrupted encodings error or decode" ~count:1000
    QCheck.(pair msg_arb (pair small_nat small_nat))
    (fun (m, (off, delta)) ->
      let size = Codec.encoded_size m in
      let buf = Bytes.create size in
      ignore (Codec.encode m buf ~pos:0);
      let i = off mod size in
      Bytes.set buf i
        (Char.chr ((Char.code (Bytes.get buf i) + 1 + delta) land 0xff));
      match Codec.decode buf ~pos:0 ~len:size with
      | _ -> true
      | exception Codec.Error _ -> true)

let test_encode_bounds () =
  let m = List.hd vocabulary in
  let size = Codec.encoded_size m in
  let buf = Bytes.create size in
  (match Codec.encode m buf ~pos:1 with
  | _ -> Alcotest.fail "encode past end succeeded"
  | exception Codec.Error _ -> ());
  match Codec.encode m buf ~pos:(-1) with
  | _ -> Alcotest.fail "encode at negative pos succeeded"
  | exception Codec.Error _ -> ()

(* The transports size their fixed slots from max_fixed_size: it must
   bound every constructor that carries no list or array, and be tight:
   some message in the vocabulary is exactly that long. *)
let test_max_fixed_size () =
  let largest = ref 0 in
  List.iter
    (fun m ->
      let has_variable =
        match m with
        | Wire.Op_prepare_response _ | Op_accept_batch _ | Op_learn_batch _
        | Pu_promise _ | Pu_reject _ | Pu_read_reply _ | Ls_reply _
        | Mp_promise _ | Mp_accept_batch _ | Mp_learn_batch _ | Cp_state _
        | Pu_accept _ | Pu_learn _ ->
          true
        | _ -> false
      in
      if not has_variable then begin
        let size = Codec.encoded_size m in
        largest := max !largest size;
        if size > Codec.max_fixed_size then
          Alcotest.failf "%a is %d bytes > max_fixed_size %d" Wire.pp m size
            Codec.max_fixed_size
      end)
    vocabulary;
  Alcotest.(check int) "largest fixed message" Codec.max_fixed_size !largest

(* The tag byte of every constructor, pinned: the socket transport and
   any stored encoding depend on these numbers. Tags 21-25 are
   unassigned and must not decode. *)
let wire_tags =
  [
    ("Request", 0); ("Reply", 1); ("Forward", 2); ("Op_prepare_request", 3);
    ("Op_prepare_response", 4); ("Op_abandon", 5); ("Op_accept_request", 6);
    ("Op_learn", 7); ("Op_accept_batch", 8); ("Op_learn_batch", 9);
    ("Pu_prepare", 10); ("Pu_promise", 11); ("Pu_reject", 12);
    ("Pu_accept", 13); ("Pu_accepted", 14); ("Pu_nack", 15); ("Pu_learn", 16);
    ("Pu_read", 17); ("Pu_read_reply", 18); ("Ls_req", 19); ("Ls_reply", 20);
    ("Mp_prepare", 26); ("Mp_promise", 27); ("Mp_reject", 28);
    ("Mp_accept", 29); ("Mp_learn", 30); ("Mp_accept_batch", 31);
    ("Mp_learn_batch", 32); ("Mn_accept", 33); ("Mn_learn", 34);
    ("Cp_accept", 35); ("Cp_accepted", 36); ("Cp_learn", 37);
    ("Cp_state", 38); ("Tp_prepare", 39); ("Tp_ack", 40); ("Tp_commit", 41);
    ("Tp_commit_ack", 42); ("Tp_rollback", 43); ("Tp_nack", 44);
    ("Le_renew", 45); ("Le_grant", 46);
  ]

let encoded m =
  let buf = Bytes.create (Codec.encoded_size m) in
  ignore (Codec.encode m buf ~pos:0);
  buf

let test_wire_tags () =
  Alcotest.(check int) "one tag per constructor" (List.length vocabulary)
    (List.length wire_tags);
  List.iter
    (fun m ->
      match List.assoc_opt (Wire.kind m) wire_tags with
      | None -> Alcotest.failf "%s has no pinned tag" (Wire.kind m)
      | Some tag ->
        Alcotest.(check int) (Wire.kind m) tag
          (Char.code (Bytes.get (encoded m) 0)))
    vocabulary;
  (* Every body shape behind an unassigned tag is an unknown message. *)
  List.iter
    (fun m ->
      let buf = encoded m in
      for tag = 21 to 25 do
        Bytes.set buf 0 (Char.chr tag);
        match Codec.decode buf ~pos:0 ~len:(Bytes.length buf) with
        | m' -> Alcotest.failf "tag %d decoded as %a" tag Wire.pp m'
        | exception Codec.Error _ -> ()
      done)
    vocabulary

(* The zero-allocation claim, asserted: a thousand encodes of every
   constructor in the vocabulary must not allocate. The two
   Gc.allocated_bytes calls themselves box a float each, hence the
   one-word-per-iteration slack. *)
let test_encode_no_alloc () =
  let buf = Bytes.create 4096 in
  List.iter
    (fun m ->
      ignore (Codec.encode m buf ~pos:0);
      let before = Gc.allocated_bytes () in
      for _ = 1 to 1000 do
        ignore (Codec.encode m buf ~pos:0)
      done;
      let after = Gc.allocated_bytes () in
      let per_op = (after -. before) /. 1000. in
      if per_op > 1.0 then
        Alcotest.failf "encode of %s allocates %.1f bytes/op" (Wire.kind m)
          per_op)
    vocabulary

let test_encoded_size_no_alloc () =
  List.iter
    (fun m ->
      ignore (Codec.encoded_size m);
      let before = Gc.allocated_bytes () in
      for _ = 1 to 1000 do
        ignore (Codec.encoded_size m)
      done;
      let after = Gc.allocated_bytes () in
      let per_op = (after -. before) /. 1000. in
      if per_op > 1.0 then
        Alcotest.failf "encoded_size of %s allocates %.1f bytes/op"
          (Wire.kind m) per_op)
    vocabulary

let suite =
  ( "codec",
    [
      Alcotest.test_case "full vocabulary round trip" `Quick
        test_vocabulary_roundtrip;
      Alcotest.test_case "truncation always errors" `Quick test_truncation;
      Alcotest.test_case "encode bounds checked" `Quick test_encode_bounds;
      Alcotest.test_case "max_fixed_size bounds fixed messages" `Quick
        test_max_fixed_size;
      Alcotest.test_case "wire tags pinned" `Quick test_wire_tags;
      Alcotest.test_case "encode allocates nothing" `Quick test_encode_no_alloc;
      Alcotest.test_case "encoded_size allocates nothing" `Quick
        test_encoded_size_no_alloc;
      QCheck_alcotest.to_alcotest roundtrip_prop;
      QCheck_alcotest.to_alcotest garbage_prop;
      QCheck_alcotest.to_alcotest corruption_prop;
    ] )
