type sample = { intended_at : int; sent_at : int; replied_at : int }

type t = { mutable acc : sample list; ts : Ci_stats.Timeseries.t; mutable n : int }

let create ~bucket = { acc = []; ts = Ci_stats.Timeseries.create ~bucket; n = 0 }

let record t ~intended_at ~sent_at ~replied_at =
  t.acc <- { intended_at; sent_at; replied_at } :: t.acc;
  t.n <- t.n + 1;
  Ci_stats.Timeseries.add t.ts ~time:replied_at

let merge ~into src =
  List.iter
    (fun s ->
      record into ~intended_at:s.intended_at ~sent_at:s.sent_at
        ~replied_at:s.replied_at)
    (List.rev src.acc)

let samples t = List.rev t.acc
let timeline t = t.ts
let completed t = t.n

(* Reported latency runs from the *intended* arrival, not the first
   transmission: an open-loop driver that falls behind its schedule
   still charges the wait to the system (no coordinated omission).
   Closed-loop clients pass [intended_at = sent_at], so the two
   measures coincide there. *)
let latencies_in t ~from_ ~until_ =
  List.filter_map
    (fun s ->
      if s.replied_at >= from_ && s.replied_at < until_ then
        Some (s.replied_at - s.intended_at)
      else None)
    t.acc
  |> Array.of_list

let service_latencies_in t ~from_ ~until_ =
  List.filter_map
    (fun s ->
      if s.replied_at >= from_ && s.replied_at < until_ then
        Some (s.replied_at - s.sent_at)
      else None)
    t.acc
  |> Array.of_list

let completed_in t ~from_ ~until_ =
  List.fold_left
    (fun acc s -> if s.replied_at >= from_ && s.replied_at < until_ then acc + 1 else acc)
    0 t.acc

let completions_in t ~from_ ~until_ =
  let a =
    List.filter_map
      (fun s ->
        if s.replied_at >= from_ && s.replied_at < until_ then Some s.replied_at
        else None)
      t.acc
    |> Array.of_list
  in
  Array.sort compare a;
  a
