type sample = { intended_at : int; sent_at : int; replied_at : int }

(* Three int columns, in completion order: no record or list cell per
   request, and nothing for the GC to scan. *)
type t = {
  intended : int Ci_rsm.Vec.t;
  sent : int Ci_rsm.Vec.t;
  replied : int Ci_rsm.Vec.t;
  ts : Ci_stats.Timeseries.t;
}

let create ~bucket =
  {
    intended = Ci_rsm.Vec.create ();
    sent = Ci_rsm.Vec.create ();
    replied = Ci_rsm.Vec.create ();
    ts = Ci_stats.Timeseries.create ~bucket;
  }

let record t ~intended_at ~sent_at ~replied_at =
  Ci_rsm.Vec.push t.intended intended_at;
  Ci_rsm.Vec.push t.sent sent_at;
  Ci_rsm.Vec.push t.replied replied_at;
  Ci_stats.Timeseries.add t.ts ~time:replied_at

let completed t = Ci_rsm.Vec.length t.replied

let sample t i =
  {
    intended_at = Ci_rsm.Vec.get t.intended i;
    sent_at = Ci_rsm.Vec.get t.sent i;
    replied_at = Ci_rsm.Vec.get t.replied i;
  }

let merge ~into src =
  for i = 0 to completed src - 1 do
    let s = sample src i in
    record into ~intended_at:s.intended_at ~sent_at:s.sent_at ~replied_at:s.replied_at
  done

let samples t = List.init (completed t) (sample t)
let timeline t = t.ts

let completed_in t ~from_ ~until_ =
  let n = ref 0 in
  Ci_rsm.Vec.iter (fun r -> if r >= from_ && r < until_ then incr n) t.replied;
  !n

(* [f i] for every request [i] completed within the window, into an
   exact-size array in completion order. *)
let collect t ~from_ ~until_ f =
  let a = Array.make (completed_in t ~from_ ~until_) 0 in
  let k = ref 0 in
  for i = 0 to completed t - 1 do
    let r = Ci_rsm.Vec.get t.replied i in
    if r >= from_ && r < until_ then begin
      a.(!k) <- f i r;
      incr k
    end
  done;
  a

(* Reported latency runs from the *intended* arrival, not the first
   transmission: an open-loop driver that falls behind its schedule
   still charges the wait to the system (no coordinated omission).
   Closed-loop clients pass [intended_at = sent_at], so the two
   measures coincide there. *)
let latencies_in t ~from_ ~until_ =
  collect t ~from_ ~until_ (fun i r -> r - Ci_rsm.Vec.get t.intended i)

let service_latencies_in t ~from_ ~until_ =
  collect t ~from_ ~until_ (fun i r -> r - Ci_rsm.Vec.get t.sent i)

let completions_in t ~from_ ~until_ =
  let a = collect t ~from_ ~until_ (fun _ r -> r) in
  Array.sort compare a;
  a
