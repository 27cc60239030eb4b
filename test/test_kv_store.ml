module Kv_store = Ci_rsm.Kv_store
module Command = Ci_rsm.Command

let result = Alcotest.testable Command.pp_result Command.equal_result

let test_put_get () =
  let s = Kv_store.create () in
  Alcotest.check result "miss" (Found None) (Kv_store.apply s (Get { key = 1 }));
  Alcotest.check result "put" Done (Kv_store.apply s (Put { key = 1; data = 10 }));
  Alcotest.check result "hit" (Found (Some 10)) (Kv_store.apply s (Get { key = 1 }));
  Alcotest.check result "overwrite" Done (Kv_store.apply s (Put { key = 1; data = 20 }));
  Alcotest.check result "new value" (Found (Some 20)) (Kv_store.apply s (Get { key = 1 }))

let test_cas () =
  let s = Kv_store.create () in
  Alcotest.check result "cas on missing key fails" (Swapped false)
    (Kv_store.apply s (Cas { key = 1; expect = 0; data = 5 }));
  ignore (Kv_store.apply s (Put { key = 1; data = 5 }));
  Alcotest.check result "wrong expectation fails" (Swapped false)
    (Kv_store.apply s (Cas { key = 1; expect = 4; data = 9 }));
  Alcotest.(check (option int)) "value unchanged" (Some 5) (Kv_store.get s 1);
  Alcotest.check result "matching cas succeeds" (Swapped true)
    (Kv_store.apply s (Cas { key = 1; expect = 5; data = 9 }));
  Alcotest.(check (option int)) "value updated" (Some 9) (Kv_store.get s 1)

let test_nop () =
  let s = Kv_store.create () in
  Alcotest.check result "nop" Done (Kv_store.apply s Nop);
  Alcotest.(check int) "no keys created" 0 (Kv_store.size s)

let test_fingerprint_converges () =
  let a = Kv_store.create () and b = Kv_store.create () in
  let cmds =
    [
      Command.Put { key = 1; data = 10 };
      Put { key = 2; data = 20 };
      Cas { key = 1; expect = 10; data = 11 };
      Put { key = 3; data = 30 };
    ]
  in
  List.iter (fun c -> ignore (Kv_store.apply a c)) cmds;
  List.iter (fun c -> ignore (Kv_store.apply b c)) cmds;
  Alcotest.(check int) "same history, same fingerprint" (Kv_store.fingerprint a)
    (Kv_store.fingerprint b);
  ignore (Kv_store.apply b (Put { key = 1; data = 999 }));
  Alcotest.(check bool) "divergence changes fingerprint" true
    (Kv_store.fingerprint a <> Kv_store.fingerprint b)

let test_snapshot_sorted () =
  let s = Kv_store.create () in
  List.iter
    (fun (k, v) -> ignore (Kv_store.apply s (Put { key = k; data = v })))
    [ (5, 50); (1, 10); (3, 30) ];
  Alcotest.(check (list (pair int int))) "sorted by key"
    [ (1, 10); (3, 30); (5, 50) ]
    (Kv_store.snapshot s);
  Alcotest.(check int) "size" 3 (Kv_store.size s)

(* Property: order-sensitive commands detect order divergence — two
   stores that apply the same multiset of Cas-heavy commands in
   different orders rarely agree, but identical orders always do. *)
let prop_fingerprint_order =
  QCheck.Test.make ~name:"identical command sequences converge" ~count:100
    QCheck.(list (pair (int_bound 8) (int_bound 100)))
    (fun pairs ->
      let a = Kv_store.create () and b = Kv_store.create () in
      List.iter
        (fun (k, v) ->
          let c = Command.Put { key = k; data = v } in
          ignore (Kv_store.apply a c);
          ignore (Kv_store.apply b c))
        pairs;
      Kv_store.fingerprint a = Kv_store.fingerprint b)

(* The map as a [Hashtbl], as the store kept it before it became a flat
   int table: every observable of the two must agree. *)
module Model = struct
  type t = {
    store : (int, int) Hashtbl.t;
    locks : (int, int) Hashtbl.t;
    staged : (int, int) Hashtbl.t;
  }

  let create () =
    { store = Hashtbl.create 64; locks = Hashtbl.create 8; staged = Hashtbl.create 8 }

  let range t ~lo ~hi =
    Hashtbl.fold (fun k v acc -> if k >= lo && k < hi then (k, v) :: acc else acc) t.store []
    |> List.sort compare

  let apply t (c : Command.t) : Command.result =
    match c with
    | Put { key; data } ->
      Hashtbl.replace t.store key data;
      Done
    | Get { key } -> Found (Hashtbl.find_opt t.store key)
    | Cas { key; expect; data } -> (
      match Hashtbl.find_opt t.store key with
      | Some v when v = expect ->
        Hashtbl.replace t.store key data;
        Swapped true
      | Some _ | None -> Swapped false)
    | Nop -> Done
    | Mput { k1; d1; k2; d2 } ->
      Hashtbl.replace t.store k1 d1;
      Hashtbl.replace t.store k2 d2;
      Done
    | Prep { txn; key; data } -> (
      match Hashtbl.find_opt t.locks key with
      | Some owner when owner <> txn -> Swapped false
      | Some _ | None ->
        Hashtbl.replace t.locks key txn;
        Hashtbl.replace t.staged key data;
        Swapped true)
    | Fin { txn; key; commit } -> (
      match Hashtbl.find_opt t.locks key with
      | Some owner when owner = txn ->
        (if commit then
           match Hashtbl.find_opt t.staged key with
           | Some data -> Hashtbl.replace t.store key data
           | None -> ());
        Hashtbl.remove t.locks key;
        Hashtbl.remove t.staged key;
        Done
      | Some _ | None -> Done)
    | Range { lo; hi } -> Vals (range t ~lo ~hi)

  let fingerprint t =
    let fold salt tbl acc =
      Hashtbl.fold (fun k v acc -> acc lxor Hashtbl.hash (k, v, salt)) tbl acc
    in
    fold 0x9e3779b9 t.store 0 |> fold 0x517cc1b7 t.locks |> fold 0x27220a95 t.staged

  let snapshot t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store [] |> List.sort compare
end

(* Keys that stress the table: a hot few, enough distinct ones to force
   several resizes, negatives, and the extremes — [min_int] is the
   table's own free-slot marker. *)
let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 16);
        (4, int_bound 3_000);
        (1, map (fun k -> -k) (int_bound 100));
        (1, oneofl [ min_int; max_int; min_int + 1 ]);
      ])

let command_gen =
  QCheck.Gen.(
    let data = int_bound 4 in
    frequency
      [
        (6, map2 (fun key data -> Command.Put { key; data }) key_gen data);
        (2, map (fun key -> Command.Get { key }) key_gen);
        (2, map3 (fun key expect data -> Command.Cas { key; expect; data }) key_gen data data);
        (1, return Command.Nop);
        ( 1,
          map2
            (fun (k1, d1) (k2, d2) -> Command.Mput { k1; d1; k2; d2 })
            (pair key_gen data) (pair key_gen data) );
        (2, map3 (fun txn key data -> Command.Prep { txn; key; data }) (int_bound 3) key_gen data);
        (2, map3 (fun txn key commit -> Command.Fin { txn; key; commit }) (int_bound 3) key_gen bool);
        (1, map2 (fun lo span -> Command.Range { lo; hi = lo + span }) key_gen (int_bound 200));
      ])

let prop_flat_matches_model =
  QCheck.Test.make ~name:"flat store = Hashtbl model" ~count:300
    QCheck.(make Gen.(list_size (int_bound 400) command_gen))
    (fun cmds ->
      let s = Kv_store.create () and m = Model.create () in
      List.for_all (fun c -> Command.equal_result (Kv_store.apply s c) (Model.apply m c)) cmds
      && Kv_store.fingerprint s = Model.fingerprint m
      && Kv_store.snapshot s = Model.snapshot m
      && Kv_store.size s = Hashtbl.length m.Model.store
      && Kv_store.locked_keys s = Hashtbl.length m.Model.locks
      && List.for_all
           (fun (lo, hi) -> Kv_store.range s ~lo ~hi = Model.range m ~lo ~hi)
           [ (min_int, max_int); (0, 17); (-50, 0); (100, 2_000) ]
      && List.for_all
           (fun k -> Kv_store.get s k = Hashtbl.find_opt m.Model.store k)
           [ min_int; max_int; -1; 0; 5; 2_999 ])

let suite =
  ( "kv_store",
    [
      Alcotest.test_case "put/get" `Quick test_put_get;
      Alcotest.test_case "cas semantics" `Quick test_cas;
      Alcotest.test_case "nop" `Quick test_nop;
      Alcotest.test_case "fingerprint convergence" `Quick test_fingerprint_converges;
      Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
      QCheck_alcotest.to_alcotest prop_fingerprint_order;
      QCheck_alcotest.to_alcotest prop_flat_matches_model;
    ] )
