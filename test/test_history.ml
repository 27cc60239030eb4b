(* The chunked history storage: Dense and Vec against plain models, the
   growth-allocation bound that rules out doubling slack and grow-copies,
   and Run_stats' columns against the per-sample list they replaced. *)
module Chunked = Ci_rsm.Chunked
module Dense = Ci_rsm.Dense
module Vec = Ci_rsm.Vec
module Run_stats = Ci_load.Run_stats
module Summary = Ci_stats.Summary

let words_allocated f =
  let b0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

(* What [words_allocated] itself costs (its boxed floats), so a
   zero-allocation check subtracts it. *)
let measuring_cost () = words_allocated ignore

(* Indices that exercise the layout: the first chunk's geometric
   growth, both sides of the first chunk boundary (4095, 4096), a few
   chunks in, and far sparse indices whose chunks leave holes. *)
let index_gen =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 100);
        (2, map (fun d -> Chunked.size - 3 + d) (int_bound 6));
        (2, int_bound (3 * Chunked.size));
        (1, int_range 100_000 1_000_000);
      ])

let probes sets =
  [ -1; 0; 1; Chunked.size - 1; Chunked.size; Chunked.size + 1; 2_000_000 ]
  @ List.concat_map (fun (i, _) -> [ i - 1; i; i + 1 ]) sets

let prop_dense_model =
  QCheck.Test.make ~name:"Dense = Hashtbl model" ~count:300
    QCheck.(make Gen.(list_size (int_bound 60) (pair index_gen small_int)))
    (fun sets ->
      let d = Dense.create () and model = Hashtbl.create 16 in
      List.iter
        (fun (i, v) ->
          Dense.set d i v;
          Hashtbl.replace model i v)
        sets;
      List.for_all
        (fun i ->
          Dense.mem d i = Hashtbl.mem model i
          && ((not (Hashtbl.mem model i)) || Dense.get d i = Hashtbl.find model i))
        (probes sets))

(* The capacity contract: once the storage covers an index, storing
   there allocates nothing — the property [Session_table] relies on. *)
let prop_dense_capacity =
  QCheck.Test.make ~name:"Dense.set below capacity allocates nothing" ~count:100
    QCheck.(make Gen.(pair (list_size (int_range 1 40) (pair index_gen small_int)) nat))
    (fun (sets, pick) ->
      let d = Dense.create () in
      List.iter (fun (i, v) -> Dense.set d i v) sets;
      let cap = Dense.capacity d in
      cap = 0
      ||
      let i = pick mod cap in
      let cost = measuring_cost () in
      let w = words_allocated (fun () -> Dense.set d i pick) in
      w -. cost <= 0. && Dense.mem d i && Dense.get d i = pick)

let test_dense_edges () =
  let d = Dense.create () in
  Alcotest.(check int) "empty capacity" 0 (Dense.capacity d);
  Alcotest.(check bool) "empty mem" false (Dense.mem d 0);
  List.iter (fun i -> Dense.set d i (i * 3)) [ 0; 4095; 4096; 1_000_000 ];
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Dense.mem d i);
      Alcotest.(check int) (Printf.sprintf "get %d" i) (i * 3) (Dense.get d i))
    [ 0; 4095; 4096; 1_000_000 ];
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "hole %d" i) false (Dense.mem d i))
    [ 1; 4094; 4097; 8192; 999_999; 1_000_001; -5 ];
  (* 4095 grew the first chunk to full size and 4096 made the second:
     the covered prefix spans both and ends at the hole before
     1_000_000. *)
  Alcotest.(check bool) "prefix covers the first two chunks" true
    (Dense.capacity d >= 2 * Chunked.size);
  Alcotest.(check bool) "prefix stops at the first hole" true (Dense.capacity d < 1_000_000);
  Alcotest.check_raises "negative index" (Invalid_argument "Dense.set: negative index")
    (fun () -> Dense.set d (-1) 0)

let prop_vec_model =
  QCheck.Test.make ~name:"Vec = array model" ~count:200
    QCheck.(make Gen.(oneof [ int_bound 50; int_range 4090 4200; int_range 8000 9000 ]))
    (fun n ->
      let v = Vec.create () in
      for i = 0 to n - 1 do
        Vec.push v (i * 7)
      done;
      let model = Array.init n (fun i -> i * 7) in
      let seen = ref [] in
      Vec.iter (fun x -> seen := x :: !seen) v;
      Vec.length v = n
      && Array.for_all (fun i -> Vec.get v i = model.(i)) (Array.init n Fun.id)
      && Vec.to_list v = Array.to_list model
      && List.rev !seen = Array.to_list model
      && Vec.to_list (Vec.of_list (Array.to_list model)) = Array.to_list model
      && List.for_all
           (fun i -> match Vec.get v i with _ -> false | exception Invalid_argument _ -> true)
           [ -1; n; n + Chunked.size ])

(* Filling [n] entries costs the entries, the unused tail of the last
   chunk, the first chunk's outgrown copies (which sum below one chunk),
   one header per chunk and the directory. A doubling array pays up to
   [2n] plus every copy it outgrew: about 262k words for 100k entries. *)
let growth_bound n = n + (2 * Chunked.size) + (4 * ((n / Chunked.size) + 1)) + 64

(* The least of three fills: a GC cycle ending mid-fill can run
   finalisers that allocate on this domain and would be charged to it. *)
let fill_cost fill = List.fold_left min infinity (List.init 3 (fun _ -> words_allocated fill))

let test_growth_allocation () =
  let n = 100_000 in
  let w = fill_cost (fun () ->
    let v = Vec.create () in
    for i = 0 to n - 1 do Vec.push v i done) in
  Alcotest.(check bool)
    (Printf.sprintf "Vec: %.0f words for %d entries <= %d" w n (growth_bound n))
    true
    (w <= float_of_int (growth_bound n));
  (* Dense adds its presence bitmap: one int per 32 indices, itself
     chunked the same way. *)
  let w = fill_cost (fun () ->
    let d = Dense.create () in
    for i = 0 to n - 1 do Dense.set d i i done) in
  let bound = growth_bound n + growth_bound (n / 32) in
  Alcotest.(check bool)
    (Printf.sprintf "Dense: %.0f words for %d entries <= %d" w n bound)
    true
    (w <= float_of_int bound)

(* ----- Run_stats columns = the sample list -------------------------------- *)

let sample_gen =
  QCheck.Gen.(
    map
      (fun (t, a, b) ->
        { Run_stats.intended_at = t; sent_at = t + a; replied_at = t + a + b })
      (triple (int_bound 1_000) (int_bound 50) (int_bound 200)))

let prop_run_stats_columns =
  QCheck.Test.make ~name:"Run_stats arrays = list reference" ~count:200
    QCheck.(
      make Gen.(triple (list_size (int_bound 300) sample_gen) (int_bound 1_200) (int_bound 1_200)))
    (fun (samples, a, b) ->
      let from_ = min a b and until_ = max a b in
      let t = Run_stats.create ~bucket:100 in
      List.iter
        (fun s ->
          Run_stats.record t ~intended_at:s.Run_stats.intended_at ~sent_at:s.sent_at
            ~replied_at:s.replied_at)
        samples;
      let inside =
        List.filter
          (fun s -> s.Run_stats.replied_at >= from_ && s.Run_stats.replied_at < until_)
          samples
      in
      let lat = Array.of_list (List.map (fun s -> s.Run_stats.replied_at - s.intended_at) inside) in
      let svc = Array.of_list (List.map (fun s -> s.Run_stats.replied_at - s.sent_at) inside) in
      let done_ = Array.of_list (List.sort compare (List.map (fun s -> s.Run_stats.replied_at) inside)) in
      let merged = Run_stats.create ~bucket:100 in
      Run_stats.merge ~into:merged t;
      Run_stats.samples t = samples
      && Run_stats.samples merged = samples
      && Run_stats.completed t = List.length samples
      && Run_stats.completed_in t ~from_ ~until_ = List.length inside
      && Run_stats.latencies_in t ~from_ ~until_ = lat
      && Run_stats.service_latencies_in t ~from_ ~until_ = svc
      && Run_stats.completions_in t ~from_ ~until_ = done_
      (* The list sink handed the summary its samples newest first: the
         summary sorts first, so the order does not show. *)
      && Summary.of_samples lat = Summary.of_samples (Array.of_list (List.rev (Array.to_list lat))))

let suite =
  ( "history",
    [
      QCheck_alcotest.to_alcotest prop_dense_model;
      QCheck_alcotest.to_alcotest prop_dense_capacity;
      Alcotest.test_case "Dense chunk edges and holes" `Quick test_dense_edges;
      QCheck_alcotest.to_alcotest prop_vec_model;
      Alcotest.test_case "growth allocates no doubling slack" `Quick test_growth_allocation;
      QCheck_alcotest.to_alcotest prop_run_stats_columns;
    ] )
