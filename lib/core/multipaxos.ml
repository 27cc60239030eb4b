module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command

type config = {
  replicas : int array;
  initial_leader : int;
  election_timeout : Sim_time.t;
  relaxed_reads : bool;
  max_batch : int;
  batch_delay : Sim_time.t;
  window : int;
  lease : Sim_time.t;
  lease_skew : Sim_time.t;
}

let default_config ~replicas =
  if Array.length replicas < 1 then
    invalid_arg "Multipaxos.default_config: need at least one replica";
  {
    replicas;
    initial_leader = replicas.(0);
    election_timeout = Sim_time.us 400;
    relaxed_reads = false;
    max_batch = 1;
    batch_delay = 0;
    window = 0;
    lease = 0;
    lease_skew = 0;
  }

(* Learn tally for one (instance, proposal number): which acceptors
   reported acceptance. *)
type tally = { v : Wire.value; mutable srcs : int list }

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  self : int;
  core : Replica_core.t;
  rng : Rng.t;
  (* Proposer. *)
  mutable iam_leader : bool;
  mutable my_pn : Pn.t;
  mutable pn_round : int;
  mutable electing : Pn.t option; (* pn of the election in flight *)
  mutable election_no : int;
  mutable election_timer : Node_env.timer option;
  mutable promise_count : int;
  promise_best : (int, Pn.t * Wire.value) Hashtbl.t;
  proposed : (int, Wire.value) Hashtbl.t;
  inflight : (int * int, int) Hashtbl.t;
  pending : Wire.value Queue.t;
  mutable next_inst : int;
  my_keys : (int * int, unit) Hashtbl.t;
  (* Batching / pipelining layer (inactive at max_batch = 1, window = 0;
     see Onepaxos for the shared design). *)
  bat_buf : Wire.value Queue.t;
  bat_keys : (int * int, unit) Hashtbl.t;
  mutable bat_inflight : int;
  bat_remaining : (int, int ref) Hashtbl.t;
  slot_batch : (int, int) Hashtbl.t;
  mutable bat_timer : Node_env.timer option;
  mutable bat_overdue : bool;
  (* Acceptor. *)
  mutable promised : Pn.t;
  accepted : (int, Pn.t * Wire.value) Hashtbl.t;
  (* Learner. *)
  tallies : (int * Pn.t, tally) Hashtbl.t;
  mutable n_elections : int;
  mutable election_streak : int; (* consecutive failed elections, for backoff *)
  (* Leader lease (all volatile — a crash forfeits the lease, and the
     recovering replica sits out a full lease window; see [recover]). *)
  mutable grant_holder : Pn.t;
      (* who we last granted to; [Pn.bottom] = a post-recovery blanket
         refusal (its owner -1 matches no proposer) *)
  mutable grant_until : Sim_time.t; (* our clock; promise not to elect others *)
  grants : (int, Sim_time.t) Hashtbl.t;
      (* leader side: grantor -> expiry ON OUR CLOCK, i.e. the echoed
         [sent] + lease - skew. No remote clock is ever read. *)
  mutable n_lease_reads : int;
  mutable read_floor : int;
      (* Highest instance whose write may have been acked by someone
         other than this leader in this term (adopted from a previous
         term, or forwarded by another replica that replies to its own
         client on local execution). Local reads wait for the executed
         prefix to pass it; the leader's own un-acked in-flight writes
         need no such wait — a concurrent read may linearize before
         them. *)
  mutable bat_has_fwd : bool; (* a forwarded value sits in [bat_buf] *)
}

let majority t = (Array.length t.cfg.replicas / 2) + 1
let send t dst msg = t.env.Node_env.send ~dst msg
let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.cfg.replicas
let now t = t.env.Node_env.now ()

let fresh_pn t =
  t.pn_round <- t.pn_round + 1;
  Pn.make ~round:t.pn_round ~owner:t.self

let reply_if_mine t (ex : Replica_core.executed) =
  let key = Wire.value_key ex.v in
  if Hashtbl.mem t.my_keys key then begin
    Hashtbl.remove t.my_keys key;
    send t ex.v.Wire.client (Wire.Reply { req_id = ex.v.Wire.req_id; result = ex.result })
  end

let batching_on t = t.cfg.max_batch > 1 || t.cfg.window > 0
let window_open t = t.cfg.window <= 0 || t.bat_inflight < t.cfg.window

let cancel_batch_timer t =
  match t.bat_timer with
  | Some tm ->
    Node_env.cancel_timer tm;
    t.bat_timer <- None
  | None -> ()

let rec learn_value t ~inst v =
  Hashtbl.remove t.inflight (Wire.value_key v);
  let executed = Replica_core.learn t.core ~inst v in
  List.iter (reply_if_mine t) executed;
  batch_decided t ~inst

and batch_decided t ~inst =
  match Hashtbl.find_opt t.slot_batch inst with
  | None -> ()
  | Some base ->
    Hashtbl.remove t.slot_batch inst;
    (match Hashtbl.find_opt t.bat_remaining base with
     | Some r ->
       decr r;
       if !r <= 0 then begin
         Hashtbl.remove t.bat_remaining base;
         t.bat_inflight <- max 0 (t.bat_inflight - 1);
         try_flush t
       end
     | None -> ())

and try_flush t =
  if t.iam_leader then begin
    while window_open t && Queue.length t.bat_buf >= t.cfg.max_batch do
      flush_batch t t.cfg.max_batch
    done;
    if Queue.is_empty t.bat_buf then begin
      t.bat_overdue <- false;
      cancel_batch_timer t
    end
    else if window_open t then begin
      if t.bat_overdue || t.cfg.batch_delay <= 0 then begin
        t.bat_overdue <- false;
        cancel_batch_timer t;
        flush_batch t (Queue.length t.bat_buf)
      end
      else if t.bat_timer = None then
        t.bat_timer <-
          Some
            (t.env.Node_env.after_cancel ~delay:t.cfg.batch_delay (fun () ->
                 t.bat_timer <- None;
                 t.bat_overdue <- true;
                 try_flush t))
    end
  end

and flush_batch t k =
  let base = t.next_inst in
  t.next_inst <- base + k;
  let vs = Array.make k (Queue.peek t.bat_buf) in
  for i = 0 to k - 1 do
    vs.(i) <- Queue.pop t.bat_buf
  done;
  Array.iteri
    (fun i v ->
      let inst = base + i in
      Hashtbl.remove t.bat_keys (Wire.value_key v);
      Hashtbl.replace t.proposed inst v;
      Hashtbl.replace t.inflight (Wire.value_key v) inst;
      Hashtbl.replace t.slot_batch inst base)
    vs;
  Hashtbl.replace t.bat_remaining base (ref k);
  t.bat_inflight <- t.bat_inflight + 1;
  if t.bat_has_fwd then begin
    (* A forwarded value may be in this batch: its forwarder can ack it
       as soon as it decides, so local reads wait for the whole range. *)
    t.read_floor <- max t.read_floor (base + k - 1);
    if Queue.is_empty t.bat_buf then t.bat_has_fwd <- false
  end;
  broadcast t (Wire.Mp_accept_batch { base; pn = t.my_pn; vs })

and propose_value t v =
  let key = Wire.value_key v in
  Hashtbl.replace t.my_keys key ();
  match Replica_core.cached_result t.core ~client:(fst key) ~req_id:(snd key) with
  | Some result ->
    Hashtbl.remove t.my_keys key;
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    if batching_on t then begin
      if not (Hashtbl.mem t.inflight key || Hashtbl.mem t.bat_keys key)
      then begin
        Hashtbl.replace t.bat_keys key ();
        Queue.push v t.bat_buf;
        try_flush t
      end
    end
    else if not (Hashtbl.mem t.inflight key) then begin
      let inst = t.next_inst in
      t.next_inst <- t.next_inst + 1;
      Hashtbl.replace t.proposed inst v;
      Hashtbl.replace t.inflight key inst;
      broadcast t (Wire.Mp_accept { inst; pn = t.my_pn; v })
    end

(* Losing leadership: return batch-buffered commands to the pending
   queue; they are re-proposed at the next successful election. *)
let demote t =
  if t.iam_leader then begin
    t.iam_leader <- false;
    (* Forfeit the lease immediately: correct (the grants only get
       staler) and it stops the renew loop at its next firing. *)
    Hashtbl.reset t.grants;
    while not (Queue.is_empty t.bat_buf) do
      let v = Queue.pop t.bat_buf in
      Hashtbl.remove t.bat_keys (Wire.value_key v);
      Queue.push v t.pending
    done;
    t.bat_overdue <- false;
    cancel_batch_timer t
  end

let drain_pending t =
  if t.iam_leader then begin
    while not (Queue.is_empty t.pending) do
      propose_value t (Queue.pop t.pending)
    done;
    if batching_on t then try_flush t
  end

let bump_next_inst t =
  let high = Hashtbl.fold (fun inst _ acc -> max inst acc) t.proposed (-1) in
  t.next_inst <- max t.next_inst (max (high + 1) (Replica_core.first_gap t.core))

(* ----- leader lease (Section: linearizable local reads) ------------------

   The leader periodically broadcasts [Le_renew] stamped with its own
   clock; each replica that still recognizes this leadership answers
   [Le_grant], echoing the stamp, and promises not to help elect a
   different owner for [lease] on its own clock from receipt. The leader
   believes it holds the lease while a majority of grants (its own
   included) are younger than [sent + lease - lease_skew] on its own
   clock. Receipt is never earlier than transmission, so with clock
   rates within [lease_skew] of each other the follower's promise
   always outlives the leader's belief — a new leader can't be elected,
   and hence no conflicting write can commit, while any stale leader
   still thinks it may serve reads locally. *)

let lease_on t = t.cfg.lease > 0

(* A majority of grants still young enough, on our own clock. *)
let lease_valid t ~at =
  Hashtbl.fold (fun _ exp n -> if exp > at then n + 1 else n) t.grants 0
  >= majority t

(* Refuse to help depose the grant holder while our promise stands.
   [Pn.bottom]'s owner (-1) matches nobody, so a post-recovery blanket
   refusal blocks everyone for one lease window. *)
let grant_blocks t ~owner ~at =
  lease_on t && at < t.grant_until && owner <> t.grant_holder.Pn.owner

let rec lease_loop t pn =
  if t.iam_leader && Pn.equal t.my_pn pn then begin
    broadcast t (Wire.Le_renew { pn; sent = now t });
    t.env.Node_env.after
      ~delay:(max 1 (t.cfg.lease / 3))
      (fun () -> lease_loop t pn)
  end

let on_renew t ~src ~pn ~sent =
  let at = now t in
  if Pn.(pn >= t.promised) && not (grant_blocks t ~owner:pn.Pn.owner ~at)
  then begin
    t.grant_holder <- pn;
    t.grant_until <- max t.grant_until (at + t.cfg.lease);
    send t src (Wire.Le_grant { pn; sent })
  end

let on_grant t ~src ~pn ~sent =
  if t.iam_leader && Pn.equal t.my_pn pn then
    Hashtbl.replace t.grants src (sent + t.cfg.lease - t.cfg.lease_skew)

(* Serving a read locally is linearizable only if the store already
   reflects everything any leader ever acked: every proposed instance
   executed ([first_gap] caught up to [next_inst]) — a fresh leader
   re-drives adopted instances before this holds — and the lease
   majority-fresh. *)
let lease_read t cmd =
  if
    lease_on t && t.iam_leader
    (* Our own acks happen on execution; [read_floor] covers instances a
       previous term or a forwarding replica could have acked. Buffered
       values have no instance yet, hence the empty-batch condition
       (see [flush_batch]). *)
    && Replica_core.first_gap t.core > t.read_floor
    && Queue.is_empty t.bat_buf
    && lease_valid t ~at:(now t)
  then Replica_core.local_read t.core cmd
  else None

(* Phase 1: claim leadership with a fresh number; retry with backoff
   while no majority answers. *)
let rec start_election t =
  if not (t.iam_leader || t.electing <> None) then begin
    let pn = fresh_pn t in
    t.env.Node_env.note_phase ~phase:"multipaxos:election";
    t.electing <- Some pn;
    t.election_no <- t.election_no + 1;
    t.n_elections <- t.n_elections + 1;
    let this_election = t.election_no in
    t.promise_count <- 0;
    Hashtbl.reset t.promise_best;
    broadcast t (Wire.Mp_prepare { pn; low = Replica_core.first_gap t.core });
    (* Exponential backoff: rivals desynchronize, and on slow networks
       the retry never preempts answers still in flight. *)
    let scale = min 32 (1 lsl min 5 t.election_streak) in
    let base = t.cfg.election_timeout * scale in
    let delay = base + Rng.int t.rng (max 1 (base / 2)) in
    t.election_timer <-
      Some
        (t.env.Node_env.after_cancel ~delay (fun () ->
             t.election_timer <- None;
             if
               t.election_no = this_election
               && t.electing <> None
               && not t.iam_leader
             then begin
               t.electing <- None;
               t.election_streak <- t.election_streak + 1;
               start_election t
             end))
  end

let become_leader t pn =
  t.env.Node_env.note_phase ~phase:"multipaxos:leader";
  t.iam_leader <- true;
  t.electing <- None;
  (match t.election_timer with
   | Some tm ->
     Node_env.cancel_timer tm;
     t.election_timer <- None
   | None -> ());
  t.election_streak <- 0;
  t.my_pn <- pn;
  if lease_on t then begin
    Hashtbl.reset t.grants;
    lease_loop t pn
  end;
  (* Adopt the highest-numbered accepted value per instance reported by
     the promising majority, then re-drive everything undecided. *)
  Hashtbl.iter (fun inst (_, v) -> Hashtbl.replace t.proposed inst v) t.promise_best;
  bump_next_inst t;
  (* Anything adopted may already have been acked under the previous
     term: no local reads until our store reflects all of it. *)
  t.read_floor <- max t.read_floor (t.next_inst - 1);
  let pairs =
    Hashtbl.fold (fun inst v acc -> (inst, v) :: acc) t.proposed []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (inst, v) ->
      if not (Replica_core.is_decided t.core ~inst) then begin
        Hashtbl.replace t.inflight (Wire.value_key v) inst;
        broadcast t (Wire.Mp_accept { inst; pn = t.my_pn; v })
      end)
    pairs;
  drain_pending t

let handle_value t v =
  match
    Replica_core.cached_result t.core ~client:v.Wire.client ~req_id:v.Wire.req_id
  with
  | Some result ->
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    Hashtbl.replace t.my_keys (Wire.value_key v) ();
    if t.iam_leader then propose_value t v
    else begin
      Queue.push v t.pending;
      start_election t
    end

let handle_request t ~src ~req_id ~cmd ~relaxed_read =
  if relaxed_read && t.cfg.relaxed_reads && Command.is_read cmd then
    match Replica_core.local_read t.core cmd with
    | Some result -> send t src (Wire.Reply { req_id; result })
    | None -> ()
  else if Command.is_read cmd then
    (* Lease fast path: linearizable, so no client opt-in needed. On a
       miss (no lease, not leader, store behind) the read pays
       consensus like any other command. *)
    match lease_read t cmd with
    | Some result ->
      t.n_lease_reads <- t.n_lease_reads + 1;
      send t src (Wire.Reply { req_id; result })
    | None -> handle_value t { Wire.client = src; req_id; cmd }
  else handle_value t { Wire.client = src; req_id; cmd }

let on_prepare t ~src ~pn ~low =
  if grant_blocks t ~owner:pn.Pn.owner ~at:(now t) then
    (* Someone else holds our lease promise: stay silent. The rival's
       election backoff retries after the grant has expired. *)
    ()
  else if Pn.(pn > t.promised) then begin
    t.promised <- pn;
    if t.iam_leader && pn.Pn.owner <> t.self then demote t;
    let accepted =
      Hashtbl.fold
        (fun inst slot acc -> if inst >= low then (inst, slot) :: acc else acc)
        t.accepted []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    send t src (Wire.Mp_promise { pn; accepted })
  end
  else send t src (Wire.Mp_reject { pn = t.promised })

let on_promise t ~pn ~accepted =
  match t.electing with
  | Some e when Pn.equal e pn ->
    t.promise_count <- t.promise_count + 1;
    List.iter
      (fun (inst, ((apn, _) as slot)) ->
        match Hashtbl.find_opt t.promise_best inst with
        | Some (bpn, _) when Pn.(bpn >= apn) -> ()
        | Some _ | None -> Hashtbl.replace t.promise_best inst slot)
      accepted;
    if t.promise_count >= majority t then become_leader t pn
  | Some _ | None -> ()

let on_reject t ~pn =
  t.pn_round <- max t.pn_round pn.Pn.round;
  if t.iam_leader && Pn.(pn > t.my_pn) then demote t;
  (* A live rival holds a higher number; if we are mid-election the
     retry timer will try again above it. *)
  ()

let on_accept t ~src ~inst ~pn ~v =
  if Pn.(pn >= t.promised) then begin
    t.promised <- pn;
    (match Hashtbl.find_opt t.accepted inst with
     | Some (apn, _) when Pn.(apn > pn) -> ()
     | Some _ | None -> Hashtbl.replace t.accepted inst (pn, v));
    match Hashtbl.find_opt t.accepted inst with
    | Some (apn, av) ->
      broadcast t (Wire.Mp_learn { inst; pn = apn; v = av })
    | None -> ()
  end
  else send t src (Wire.Mp_reject { pn = t.promised })

(* Batched accepts: one promise check covers the whole range; per slot
   the acceptor stores the value exactly as [on_accept] would, and one
   [Mp_learn_batch] broadcast replaces |vs| per-slot learns. *)
let on_accept_batch t ~src ~base ~pn ~vs =
  if Pn.(pn >= t.promised) then begin
    t.promised <- pn;
    let out =
      Array.mapi
        (fun i v ->
          let inst = base + i in
          (match Hashtbl.find_opt t.accepted inst with
           | Some (apn, _) when Pn.(apn > pn) -> ()
           | Some _ | None -> Hashtbl.replace t.accepted inst (pn, v));
          match Hashtbl.find_opt t.accepted inst with
          | Some (_, av) -> av
          | None -> v)
        vs
    in
    broadcast t (Wire.Mp_learn_batch { base; pn; vs = out })
  end
  else send t src (Wire.Mp_reject { pn = t.promised })

let on_learn t ~src ~inst ~pn ~v =
  if not (Replica_core.is_decided t.core ~inst) then begin
    let key = (inst, pn) in
    let tally =
      match Hashtbl.find_opt t.tallies key with
      | Some tl -> tl
      | None ->
        let tl = { v; srcs = [] } in
        Hashtbl.add t.tallies key tl;
        tl
    in
    if not (List.mem src tally.srcs) then begin
      tally.srcs <- src :: tally.srcs;
      if List.length tally.srcs >= majority t then begin
        Hashtbl.remove t.tallies key;
        learn_value t ~inst tally.v
      end
    end
  end

let handle t ~src msg =
  match msg with
  | Wire.Request { req_id; cmd; relaxed_read } ->
    handle_request t ~src ~req_id ~cmd ~relaxed_read
  | Wire.Forward { v } ->
    handle_value t v;
    (* The forwarder replies to its own client when *it* executes —
       possibly before we do: block local reads until our store
       reflects the forwarded write. *)
    if t.iam_leader then begin
      t.read_floor <- max t.read_floor (t.next_inst - 1);
      if not (Queue.is_empty t.bat_buf) then t.bat_has_fwd <- true
    end
  | Wire.Mp_prepare { pn; low } -> on_prepare t ~src ~pn ~low
  | Wire.Mp_promise { pn; accepted } -> on_promise t ~pn ~accepted
  | Wire.Mp_reject { pn } -> on_reject t ~pn
  | Wire.Mp_accept { inst; pn; v } -> on_accept t ~src ~inst ~pn ~v
  | Wire.Mp_learn { inst; pn; v } -> on_learn t ~src ~inst ~pn ~v
  | Wire.Mp_accept_batch { base; pn; vs } -> on_accept_batch t ~src ~base ~pn ~vs
  | Wire.Mp_learn_batch { base; pn; vs } ->
    Array.iteri (fun i v -> on_learn t ~src ~inst:(base + i) ~pn ~v) vs
  | Wire.Le_renew { pn; sent } -> if lease_on t then on_renew t ~src ~pn ~sent
  | Wire.Le_grant { pn; sent } -> if lease_on t then on_grant t ~src ~pn ~sent
  | Wire.Reply _ | Wire.Op_prepare_request _ | Wire.Op_prepare_response _
  | Wire.Op_abandon _ | Wire.Op_accept_request _ | Wire.Op_learn _
  | Wire.Op_accept_batch _ | Wire.Op_learn_batch _
  | Wire.Pu_prepare _ | Wire.Pu_promise _ | Wire.Pu_reject _ | Wire.Pu_accept _
  | Wire.Pu_accepted _ | Wire.Pu_nack _ | Wire.Pu_learn _ | Wire.Pu_read _
  | Wire.Pu_read_reply _ | Wire.Ls_req _ | Wire.Ls_reply _ | Wire.Tp_prepare _
  | Wire.Tp_ack _ | Wire.Tp_commit _ | Wire.Tp_commit_ack _ | Wire.Tp_rollback _ | Wire.Tp_nack _ | Wire.Mn_accept _ | Wire.Mn_learn _ | Wire.Cp_accept _ | Wire.Cp_accepted _ | Wire.Cp_learn _ | Wire.Cp_state _ ->
    ()

let validate_config config =
  if Array.length config.replicas < 1 then
    invalid_arg "Multipaxos: need at least one replica";
  if not (Array.exists (fun r -> r = config.initial_leader) config.replicas)
  then
    invalid_arg
      (Printf.sprintf "Multipaxos: initial_leader %d is not a replica"
         config.initial_leader);
  if config.max_batch < 1 then
    invalid_arg "Multipaxos: max_batch must be >= 1";
  if config.window < 0 then invalid_arg "Multipaxos: window must be >= 0";
  if config.lease < 0 then invalid_arg "Multipaxos: lease must be >= 0";
  if config.lease_skew < 0 then
    invalid_arg "Multipaxos: lease_skew must be >= 0";
  if config.lease > 0 && config.lease_skew >= config.lease then
    invalid_arg "Multipaxos: lease_skew must be < lease"

let create ~env ~config =
  validate_config config;
  {
    env;
    cfg = config;
    self = env.Node_env.id;
    core = Replica_core.create ~replica:env.Node_env.id;
    rng = Rng.split env.Node_env.rng;
    iam_leader = false;
    my_pn = Pn.bottom;
    pn_round = 0;
    electing = None;
    election_no = 0;
    election_timer = None;
    promise_count = 0;
    promise_best = Hashtbl.create 64;
    proposed = Hashtbl.create 256;
    inflight = Hashtbl.create 256;
    pending = Queue.create ();
    next_inst = 0;
    my_keys = Hashtbl.create 64;
    bat_buf = Queue.create ();
    bat_keys = Hashtbl.create 64;
    bat_inflight = 0;
    bat_remaining = Hashtbl.create 32;
    slot_batch = Hashtbl.create 256;
    bat_timer = None;
    bat_overdue = false;
    promised = Pn.bottom;
    accepted = Hashtbl.create 256;
    tallies = Hashtbl.create 256;
    n_elections = 0;
    election_streak = 0;
    grant_holder = Pn.bottom;
    grant_until = 0;
    grants = Hashtbl.create 8;
    n_lease_reads = 0;
    read_floor = -1;
    bat_has_fwd = false;
  }

let start t = if t.self = t.cfg.initial_leader then start_election t

(* ----- crash-recovery ---------------------------------------------------- *)

(* The collapsed replica's durable registers: the learner's decided log
   and the acceptor's promise / accepted table (a Paxos acceptor that
   forgets an acceptance can let a new leader decide an instance twice),
   plus the proposal-number round (a recovered proposer reusing a pn
   with a different value would corrupt the (inst, pn)-keyed learn
   tallies of live learners). Leadership, elections, pending queues and
   tallies are volatile — re-derived by the protocol after restart. *)
type stable = {
  st_decisions : (int * Wire.value) list;
  st_promised : Pn.t;
  st_accepted : (int * (Pn.t * Wire.value)) list;
  st_pn_round : int;
}

let stable t =
  {
    st_decisions = Replica_core.decisions_from t.core ~from_:0;
    st_promised = t.promised;
    st_accepted = Hashtbl.fold (fun i s acc -> (i, s) :: acc) t.accepted [];
    st_pn_round = t.pn_round;
  }

let recover ~env ~config ~stable:st =
  let t = create ~env ~config in
  List.iter
    (fun (inst, v) -> ignore (Replica_core.learn t.core ~inst v))
    st.st_decisions;
  t.promised <- st.st_promised;
  List.iter (fun (inst, s) -> Hashtbl.replace t.accepted inst s) st.st_accepted;
  t.pn_round <- st.st_pn_round;
  bump_next_inst t;
  (* Lease state is volatile on purpose, but forgetting an outstanding
     grant would let a restarted replica help depose a leader that
     still believes it may read locally. Sit out one full lease window
     against everyone ([Pn.bottom]'s owner matches no proposer) — the
     longest any pre-crash promise could still be alive. *)
  if config.lease > 0 then begin
    t.grant_holder <- Pn.bottom;
    t.grant_until <- env.Node_env.now () + config.lease
  end;
  (* Rejoin passively: a recovered replica answers prepares and accepts
     from its restored registers and catches up through the leader's
     re-proposal of its undecided range (Mp_prepare carries [low] =
     first gap, so the next election replays what we missed); it only
     campaigns itself when a client knocks. *)
  t

let is_leader t = t.iam_leader
let replica_core t = t.core
let elections t = t.n_elections
let pending_count t = Queue.length t.pending
let lease_reads t = t.n_lease_reads
let holds_lease t = t.iam_leader && lease_on t && lease_valid t ~at:(now t)

(* Structural fingerprint for the explorer's visited-state table; same
   conventions as {!Onepaxos.digest}: hashtables in sorted key order,
   timestamps relative to the current clock, timers as presence bits. *)
let digest t =
  let tbl_list tbl =
    Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] |> List.sort compare
  in
  let clock = now t in
  let rel at = at - clock in
  let proposer =
    ( t.iam_leader, t.my_pn, t.pn_round, t.electing, t.promise_count,
      tbl_list t.promise_best, tbl_list t.proposed, tbl_list t.inflight,
      List.of_seq (Queue.to_seq t.pending), t.next_inst, tbl_list t.my_keys )
  in
  let batching =
    ( List.of_seq (Queue.to_seq t.bat_buf), tbl_list t.bat_keys,
      t.bat_inflight,
      Hashtbl.fold (fun b r l -> (b, !r) :: l) t.bat_remaining []
      |> List.sort compare,
      tbl_list t.slot_batch, t.bat_timer <> None, t.bat_overdue,
      t.bat_has_fwd )
  in
  let acceptor = (t.promised, tbl_list t.accepted) in
  let learner =
    Hashtbl.fold
      (fun k tl l -> (k, tl.v, List.sort compare tl.srcs) :: l)
      t.tallies []
    |> List.sort compare
  in
  let lease =
    ( t.grant_holder, rel t.grant_until,
      Hashtbl.fold (fun src at l -> (src, rel at) :: l) t.grants []
      |> List.sort compare,
      t.read_floor )
  in
  Hashtbl.hash_param 1000 1000
    ( Replica_core.digest t.core, proposer, batching, acceptor, learner,
      lease, t.election_streak )
