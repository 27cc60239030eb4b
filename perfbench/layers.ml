(* Per-layer costs, timed from outside. Every number comes from calling
   one layer's public functions in a loop — or, for the protocol
   handlers, from a loopback harness of three replicas behind a node
   environment built here. Nothing inside the program is instrumented.

   [scale] multiplies every iteration count (1.0 for a measured run,
   about 0.01 for a smoke run). Loops that need a second domain are
   also bounded in wall-clock time, so an oversubscribed host slows
   them down instead of wedging them. *)

module Wire = Ci_consensus.Wire
module Codec = Ci_consensus.Codec
module Replica_core = Ci_consensus.Replica_core
module Clock = Ci_runtime.Clock
module Spsc_bytes = Ci_runtime.Spsc_bytes
module Transport = Ci_runtime.Transport
module Timer_wheel = Ci_runtime.Timer_wheel
module Event_queue = Ci_engine.Event_queue
module Node_env = Ci_engine.Node_env
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command

type metric = string * float * string

(* Checks that failed while measuring; the caller turns any into a
   failed run. *)
let problems : string list ref = ref []
let check cond msg = if not cond then problems := msg :: !problems

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over five rounds of the mean cost of [f i], in ns. *)
let ns_per ~iters f =
  let iters = max 1 iters in
  let round () =
    let t0 = Clock.now_ns () in
    for i = 0 to iters - 1 do
      f i
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int iters
  in
  median (List.init 5 (fun _ -> round ()))

let iters ~scale n = max 1 (int_of_float (float_of_int n *. scale))

let pn = Ci_consensus.Pn.make ~round:1 ~owner:0

let value i =
  { Wire.client = 3; req_id = i; cmd = Command.Put { key = i land 0xffff; data = i } }

(* One representative message per kind on the 1Paxos and Multi-Paxos
   write paths. *)
let samples =
  [
    ( "request",
      Wire.Request
        { req_id = 7; cmd = Command.Put { key = 4242; data = 7 }; relaxed_read = false } );
    ("reply", Wire.Reply { req_id = 7; result = Command.Done });
    ("op_accept_request", Wire.Op_accept_request { inst = 100_000; pn; v = value 7 });
    ("op_learn", Wire.Op_learn { inst = 100_000; v = value 7 });
    ("mp_accept", Wire.Mp_accept { inst = 100_000; pn; v = value 7 });
    ("mp_learn", Wire.Mp_learn { inst = 100_000; pn; v = value 7 });
  ]

let accept_msg = List.assoc "op_accept_request" samples

(* ----- Ci_consensus.Codec ------------------------------------------------ *)

let codec ~scale =
  let n = iters ~scale 200_000 in
  let buf = Bytes.create 256 in
  List.concat_map
    (fun (kind, m) ->
      let len = Codec.encode m buf ~pos:0 in
      check (Codec.decode buf ~pos:0 ~len = m) ("codec round trip: " ^ kind);
      let enc = ns_per ~iters:n (fun _ -> ignore (Codec.encode m buf ~pos:0)) in
      let dec =
        ns_per ~iters:n (fun _ ->
            ignore (Sys.opaque_identity (Codec.decode buf ~pos:0 ~len)))
      in
      [ ("codec.encode_ns." ^ kind, enc, "ns"); ("codec.decode_ns." ^ kind, dec, "ns") ])
    samples

(* ----- Ci_runtime.Spsc_bytes and Transport ------------------------------- *)

let budget_ns = 300_000_000

let rec push_spin q m deadline =
  if Spsc_bytes.try_push q m then true
  else if Clock.now_ns () > deadline then false
  else begin
    Domain.cpu_relax ();
    push_spin q m deadline
  end

let rec pop_spin q deadline =
  match Spsc_bytes.try_pop q with
  | Some _ -> true
  | None ->
    if Clock.now_ns () > deadline then false
    else begin
      Domain.cpu_relax ();
      pop_spin q deadline
    end

(* The paper's Section 3 experiment: a 1-slot ring each way, one message
   bouncing between two domains. Returns ns per round trip. *)
let pingpong ~n =
  let ab = Spsc_bytes.create ~slots:1 ~slot_size:128 in
  let ba = Spsc_bytes.create ~slots:1 ~slot_size:128 in
  let deadline = Clock.now_ns () + budget_ns in
  let echo =
    Domain.spawn (fun () ->
        let rec loop k =
          if k > 0 && pop_spin ab deadline && push_spin ba accept_msg deadline then
            loop (k - 1)
        in
        loop n)
  in
  let t0 = Clock.now_ns () in
  let rec loop k =
    if k < n && push_spin ab accept_msg deadline && pop_spin ba deadline then
      loop (k + 1)
    else k
  in
  let done_ = loop 0 in
  let dt = Clock.now_ns () - t0 in
  Domain.join echo;
  check (done_ > 0) "ring ping-pong made no round trip";
  float_of_int dt /. float_of_int (max 1 done_)

(* A 64-slot ring kept full by a producer domain: ns per message at the
   pipelined rate, i.e. the transmission cost. *)
let stream ~n =
  let q = Spsc_bytes.create ~slots:64 ~slot_size:128 in
  let deadline = Clock.now_ns () + budget_ns in
  let t0 = Clock.now_ns () in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop k = if k < n && pop_spin q deadline then loop (k + 1) else k in
        let got = loop 0 in
        (got, Clock.now_ns ()))
  in
  let rec produce k = if k < n && push_spin q accept_msg deadline then produce (k + 1) in
  produce 0;
  let got, t1 = Domain.join consumer in
  check (got > 0) "ring stream delivered nothing";
  float_of_int (t1 - t0) /. float_of_int (max 1 got)

let ring ~scale =
  let q = Spsc_bytes.create ~slots:64 ~slot_size:128 in
  let push_pop =
    ns_per ~iters:(iters ~scale 200_000) (fun _ ->
        ignore (Spsc_bytes.try_push q accept_msg);
        ignore (Sys.opaque_identity (Spsc_bytes.try_pop q)))
  in
  let rtt = median (List.init 3 (fun _ -> pingpong ~n:(iters ~scale 20_000))) in
  let per_msg = median (List.init 3 (fun _ -> stream ~n:(iters ~scale 200_000))) in
  (* latency of a 1-slot round trip = 2 trans + 2 prop (Section 3) *)
  let trans = per_msg and prop = (rtt -. (2. *. per_msg)) /. 2. in
  let mesh = Transport.rings_mesh ~n:2 ~slots:64 ~slot_size:128 in
  let a = Transport.rings_endpoint mesh ~id:0 ~outbox_cap:4096 in
  let b = Transport.rings_endpoint mesh ~id:1 ~outbox_cap:4096 in
  let delivered = ref 0 in
  let sink ~src:_ _ = incr delivered in
  let n = iters ~scale 200_000 in
  let send_drain =
    ns_per ~iters:n (fun _ ->
        Transport.send a ~dst:1 accept_msg;
        ignore (Transport.drain b sink))
  in
  check (!delivered = 5 * n) "transport lost messages";
  [
    ("ring.push_pop_ns", push_pop, "ns");
    ("ring.pingpong_rtt_ns", rtt, "ns");
    ("ring.stream_ns_per_msg", per_msg, "ns");
    ("ring.trans_ns", trans, "ns");
    ("ring.prop_ns", prop, "ns");
    ("transport.send_drain_ns", send_drain, "ns");
  ]

(* ----- Ci_runtime.Timer_wheel and Ci_engine.Event_queue ------------------- *)

let timers ~scale =
  let n = iters ~scale 200_000 in
  let w = Timer_wheel.create () in
  let fired = ref 0 in
  let f () = incr fired in
  (* The client's per-request retry timer: armed, cancelled on the
     reply, reclaimed by the next [run_due]. *)
  let arm_cancel =
    ns_per ~iters:n (fun i ->
        Timer_wheel.cancel w (Timer_wheel.at_token w ~deadline:i f);
        ignore (Timer_wheel.run_due w ~now:i))
  in
  let arm_fire =
    ns_per ~iters:n (fun i ->
        Timer_wheel.at w ~deadline:i f;
        ignore (Timer_wheel.run_due w ~now:i))
  in
  check (!fired = 5 * n) "timer wheel lost timers";
  let q = Event_queue.create () in
  for i = 0 to 4095 do
    Event_queue.push q ~time:i i
  done;
  let push_pop =
    ns_per ~iters:n (fun i ->
        let now = Event_queue.next_time q in
        Event_queue.push q ~time:(now + 1 + ((i * 7919) land 4095)) i;
        ignore (Sys.opaque_identity (Event_queue.pop_payload q)))
  in
  [
    ("timer.arm_cancel_ns", arm_cancel, "ns");
    ("timer.arm_fire_ns", arm_fire, "ns");
    ("engine.evq_push_pop_ns", push_pop, "ns");
  ]

(* ----- Replica_core, Ci_rsm.Kv_store, Ci_rsm.Consistency ----------------- *)

let rsm ~scale =
  let n = iters ~scale 100_000 in
  let cores = Array.init 3 (fun r -> Replica_core.create ~replica:r) in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun c ->
      for i = 0 to n - 1 do
        ignore (Replica_core.learn c ~inst:i (value i))
      done)
    cores;
  let learn = float_of_int (Clock.now_ns () - t0) /. float_of_int (3 * n) in
  let views = Array.to_list (Array.map Replica_core.view cores) in
  let t0 = Clock.now_ns () in
  let report =
    Ci_rsm.Consistency.check ~equal:Wire.value_equal
      ~proposed:(fun _ -> true)
      ~acked:[] ~key_of:Wire.value_key views
  in
  let check_ns = float_of_int (Clock.now_ns () - t0) /. float_of_int n in
  check
    (Ci_rsm.Consistency.ok report && report.Ci_rsm.Consistency.checked_instances = n)
    "consistency check over identical views failed";
  let kv = Ci_rsm.Kv_store.create () in
  let m = iters ~scale 200_000 in
  let put =
    ns_per ~iters:m (fun i ->
        ignore (Ci_rsm.Kv_store.apply kv (Command.Put { key = i land 0xffff; data = i })))
  in
  let get =
    ns_per ~iters:m (fun i ->
        ignore
          (Sys.opaque_identity
             (Ci_rsm.Kv_store.apply kv (Command.Get { key = i land 0xffff }))))
  in
  [
    ("rsm.learn_ns", learn, "ns");
    ("rsm.kv_put_ns", put, "ns");
    ("rsm.kv_get_ns", get, "ns");
    ("rsm.check_ns_per_inst", check_ns, "ns");
  ]

(* ----- Ci_load driver building blocks ------------------------------------ *)

let load ~scale =
  let n = iters ~scale 200_000 in
  let keys = Ci_load.Key_dist.compile Ci_load.Key_dist.Uniform ~key_space:65_536 in
  let rng = Rng.create ~seed:1 in
  let sample =
    ns_per ~iters:n (fun _ ->
        ignore (Sys.opaque_identity (Ci_load.Key_dist.sample keys rng)))
  in
  let stats = Ci_load.Load_stats.create ~from_:0 ~until_:max_int in
  let record =
    ns_per ~iters:n (fun i ->
        Ci_load.Load_stats.record stats ~intended_at:i ~sent_at:(i + 100)
          ~replied_at:(i + 100 + (i land 0xffff)))
  in
  [ ("load.key_sample_ns", sample, "ns"); ("load.stats_record_ns", record, "ns") ]

(* ----- Loopback protocol harness ----------------------------------------- *)

(* Three replicas (nodes 0-2) and a client (node 3) behind a node
   environment whose sends go into one FIFO and whose timers are
   recorded but never fired, so only the message path runs. Each op
   injects one [Put] request at the leader and delivers messages until
   the FIFO is empty, timing every [handle] call. *)
let client = 3

type harness_result = {
  msgs_per_op : float;  (** boundary-crossing messages, request and reply included *)
  bytes_per_op : float;  (** their encoded size *)
  handle_ns_per_op : float;
  handle_ns : (string * float) list;  (** mean per delivery, by wire kind *)
}

let clock_overhead () =
  ns_per ~iters:10_000 (fun _ ->
      let t0 = Clock.now_ns () in
      ignore (Sys.opaque_identity (Clock.now_ns () - t0)))

let harness ~ops ~make =
  let fifo = Queue.create () in
  let msgs = ref 0 and bytes = ref 0 in
  let send src dst msg =
    if src <> dst then begin
      incr msgs;
      bytes := !bytes + Codec.encoded_size msg
    end;
    Queue.push (src, dst, msg) fifo
  in
  let env id =
    {
      Node_env.id;
      send = (fun ~dst msg -> send id dst msg);
      now = Clock.now_ns;
      after = (fun ~delay:_ _ -> ());
      after_cancel = (fun ~delay:_ _ -> { Node_env.cancel = ignore });
      rng = Rng.create ~seed:(id + 1);
      note_phase = (fun ~phase:_ -> ());
    }
  in
  let handlers : (src:int -> Wire.t -> unit) array = make env in
  let replies = ref 0 in
  let rec settle steps deliver =
    if steps = 0 then check false "loopback harness did not settle"
    else
      match Queue.take_opt fifo with
      | None -> ()
      | Some (src, dst, msg) ->
        if dst = client then (match msg with Wire.Reply _ -> incr replies | _ -> ())
        else deliver src dst msg;
        settle (steps - 1) deliver
  in
  (* Bootstrap (leader adoption or election) is neither timed nor
     counted. *)
  settle 1_000_000 (fun src dst msg -> handlers.(dst) ~src msg);
  let overhead = clock_overhead () in
  let by_kind = Hashtbl.create 8 in
  let total = ref 0. in
  let timed src dst msg =
    let t0 = Clock.now_ns () in
    handlers.(dst) ~src msg;
    let dt = float_of_int (Clock.now_ns () - t0) -. overhead in
    total := !total +. dt;
    let k = Wire.kind msg in
    let c, s = Option.value (Hashtbl.find_opt by_kind k) ~default:(0, 0.) in
    Hashtbl.replace by_kind k (c + 1, s +. dt)
  in
  msgs := 0;
  bytes := 0;
  replies := 0;
  for i = 1 to ops do
    send client 0
      (Wire.Request
         { req_id = i; cmd = Command.Put { key = i land 0xffff; data = i }; relaxed_read = false });
    settle 10_000 timed
  done;
  check (!replies = ops)
    (Printf.sprintf "loopback harness: %d replies for %d ops" !replies ops);
  let per_op x = x /. float_of_int ops in
  {
    msgs_per_op = per_op (float_of_int !msgs);
    bytes_per_op = per_op (float_of_int !bytes);
    handle_ns_per_op = per_op !total;
    handle_ns = Hashtbl.fold (fun k (c, s) acc -> (k, s /. float_of_int c) :: acc) by_kind [];
  }

let replicas = [| 0; 1; 2 |]

let onepaxos_harness ~ops =
  harness ~ops ~make:(fun env ->
      let config = Ci_consensus.Onepaxos.default_config ~replicas in
      let ps =
        Array.map (fun id -> Ci_consensus.Onepaxos.create ~env:(env id) ~config) replicas
      in
      Array.iter Ci_consensus.Onepaxos.start ps;
      Array.map Ci_consensus.Onepaxos.handle ps)

let multipaxos_harness ~ops =
  harness ~ops ~make:(fun env ->
      let config = Ci_consensus.Multipaxos.default_config ~replicas in
      let ps =
        Array.map (fun id -> Ci_consensus.Multipaxos.create ~env:(env id) ~config) replicas
      in
      Array.iter Ci_consensus.Multipaxos.start ps;
      Array.map Ci_consensus.Multipaxos.handle ps)

let protocols ~scale =
  let ops = iters ~scale 20_000 in
  let op = onepaxos_harness ~ops and mp = multipaxos_harness ~ops in
  (* The paper's Section 4.3 message counts per commit. *)
  check (op.msgs_per_op = 5.) (Printf.sprintf "1Paxos: %.2f msgs/op, not 5" op.msgs_per_op);
  check (mp.msgs_per_op = 10.)
    (Printf.sprintf "Multi-Paxos: %.2f msgs/op, not 10" mp.msgs_per_op);
  let kind k = Option.value (List.assoc_opt k op.handle_ns) ~default:nan in
  [
    ("onepaxos.handle_ns.request", kind "Request", "ns");
    ("onepaxos.handle_ns.op_accept_request", kind "Op_accept_request", "ns");
    ("onepaxos.handle_ns.op_learn", kind "Op_learn", "ns");
    ("onepaxos.handle_ns_per_op", op.handle_ns_per_op, "ns");
    ("onepaxos.msgs_per_op", op.msgs_per_op, "count");
    ("codec.bytes_per_op", op.bytes_per_op, "B");
    ("multipaxos.handle_ns_per_op", mp.handle_ns_per_op, "ns");
    ("multipaxos.msgs_per_op", mp.msgs_per_op, "count");
  ]

(* The whole suite, in a fixed order. *)
let run ~scale =
  List.concat [ codec ~scale; ring ~scale; timers ~scale; rsm ~scale; load ~scale; protocols ~scale ]
