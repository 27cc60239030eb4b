module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Command = Ci_rsm.Command

type config = {
  replicas : int array;
  initial_leader : int;
  initial_acceptor : int;
  acceptor_timeout : Sim_time.t;
  prepare_timeout : Sim_time.t;
  check_period : Sim_time.t;
  pu_timeout : Sim_time.t;
  relaxed_reads : bool;
  max_batch : int;
  batch_delay : Sim_time.t;
  window : int;
  lease : Sim_time.t;
  lease_skew : Sim_time.t;
  unsafe_stale_adoption : bool;
      (* Test-only: re-introduces the pre-fix stale-adoption split-brain
         (leadership gates removed from adoption, retry and takeover
         cancellation) so the model checker can demonstrate it finds
         this bug class. Never enable outside tests. *)
}

let default_config ~replicas =
  if Array.length replicas < 2 then
    invalid_arg "Onepaxos.default_config: need at least two replicas";
  {
    replicas;
    initial_leader = replicas.(0);
    initial_acceptor = replicas.(1);
    acceptor_timeout = Sim_time.us 800;
    prepare_timeout = Sim_time.us 800;
    check_period = Sim_time.us 200;
    pu_timeout = Sim_time.us 400;
    relaxed_reads = false;
    max_batch = 1;
    batch_delay = 0;
    window = 0;
    lease = 0;
    lease_skew = 0;
    unsafe_stale_adoption = false;
  }

type ls_op = { mutable replies : int; k : unit -> unit }

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  self : int;
  core : Replica_core.t;
  mutable pu : Paxos_utility.t option; (* set in [create], always Some *)
  (* Leader / proposer state. *)
  mutable iam_leader : bool;
  mutable aa : int option;
  mutable cur_leader : int option;
  mutable my_pn : Pn.t;
  mutable pn_round : int;
  mutable expect_fresh : bool;
  mutable ap_covered : bool;
      (* Whether every proposal the current acceptor may have accepted is
         contained in [proposed]: true once we adopted it (its ap was
         registered) or once we installed it fresh ourselves. Only then
         is replacing it safe — otherwise accepted values whose learns
         are still in flight could be overwritten. *)
  mutable becoming : bool;
  mutable changing_acceptor : bool;
  mutable pending_prepare : Pn.t option;
  mutable prepare_deadline : Sim_time.t option;
  proposed : (int, Wire.value) Hashtbl.t;
      (* Undecided instances this node must see re-proposed with these
         values (Lemma 2a): its own proposals, adopted acceptances and
         carried entries. An entry goes when its instance is decided. *)
  mutable proposed_high : int;
      (* Highest instance ever registered in [proposed]: new proposals
         go above it even after its entry is gone. *)
  inflight : (int * int, int) Hashtbl.t; (* value key -> instance *)
  mutable next_inst : int;
  pending : Wire.value Queue.t;
  outstanding : (int, Sim_time.t) Hashtbl.t; (* instance -> accept sent at *)
  my_keys : (int * int, unit) Hashtbl.t;
  (* Batching / pipelining layer (inactive at max_batch = 1, window = 0:
     every path below then reduces to the paper's one-value-per-message
     protocol, byte for byte). *)
  bat_buf : Wire.value Queue.t; (* commands waiting for the next batch *)
  bat_keys : (int * int, unit) Hashtbl.t; (* dedup for [bat_buf] *)
  mutable bat_inflight : int; (* batches proposed, not yet fully decided *)
  bat_remaining : (int, int ref) Hashtbl.t; (* batch base -> undecided slots *)
  slot_batch : (int, int) Hashtbl.t; (* instance -> its batch base *)
  mutable bat_timer : Node_env.timer option;
  mutable bat_overdue : bool; (* delay expired with the window full *)
  (* Acceptor state (Appendix A: hpn, ap, IamFresh). *)
  mutable hpn : Pn.t;
  mutable iam_fresh : bool;
  acc_ap : (int, Pn.t * Wire.value) Hashtbl.t;
      (* Accepted proposals at or above this node's decided prefix.
         Below the prefix the decided log answers for them: an accepted
         value is broadcast as a learn the moment it is accepted, so it
         is the value the log holds. *)
  mutable acc_retired : bool;
      (* The configuration log moved the acceptor role away from this
         node. Its promise state is frozen history: answering prepares
         or minting new acceptances now could decide an instance behind
         the current acceptor's back — the leader that relocated the
         role vouched for this node's accepted set as of the handoff,
         so anything accepted after it is a split-brain. Reset when an
         [Acceptor_change] installs this node again. *)
  (* Learner catch-up. *)
  mutable ls_token : int;
  ls_ops : (int, ls_op) Hashtbl.t;
  (* Leader lease (inactive at lease = 0). *)
  mutable grant_holder : Pn.t;
      (* Last renewal granted: owner is the leaseholder's node id, round
         its configuration-log view ([next_cseq]) at renewal time. *)
  mutable grant_until : Sim_time.t; (* our clock; promise active below this *)
  grants : (int, Sim_time.t) Hashtbl.t; (* leader: src -> expiry, our clock *)
  mutable last_renew : Sim_time.t;
  mutable n_lease_reads : int;
  mutable read_floor : int;
      (* Highest instance whose write may have been acked by someone
         other than this leader in this term (adopted from a previous
         term, or forwarded by a follower that replies to its own client
         on local execution). Local reads wait for the executed prefix
         to pass it; the leader's own un-acked in-flight writes need no
         such wait — a concurrent read may linearize before them. *)
  mutable bat_has_fwd : bool; (* a forwarded value sits in [bat_buf] *)
  (* Counters. *)
  mutable n_leader_changes : int;
  mutable n_acceptor_changes : int;
}

let majority t = (Array.length t.cfg.replicas / 2) + 1
let send t dst msg = t.env.Node_env.send ~dst msg
let now t = t.env.Node_env.now ()

let pu t =
  match t.pu with Some p -> p | None -> assert false

let fresh_pn t =
  t.pn_round <- t.pn_round + 1;
  Pn.make ~round:t.pn_round ~owner:t.self

(* ----- leader lease ------------------------------------------------------ *)

(* Same clock-skew-free scheme as Multi-Paxos (see multipaxos.mli), with
   one 1Paxos-specific twist: leadership here flows through the
   PaxosUtility configuration log, so a grant is the promise not to help
   {e commit} a [Leader_change] naming a different owner — enforced by
   silently vetoing such [Pu_accept]s while the grant is active, and by
   refusing to grant a renewer we may already have helped depose at or
   beyond its own configuration view ([helped_elect_other]). Any quorum
   that could commit a deposition then intersects the leader's fresh
   grant set, so the leader's local reads stay linearizable. *)

let lease_on t = t.cfg.lease > 0

let lease_valid t ~at =
  Hashtbl.fold (fun _ exp n -> if exp > at then n + 1 else n) t.grants 0
  >= majority t

let grant_active t ~at ~owner =
  lease_on t && at < t.grant_until && owner <> t.grant_holder.Pn.owner

(* Drop a [Pu_accept] that would help elect a different owner while our
   grant is active; the proposer's backoff retries after expiry. *)
let veto_pu t msg =
  match msg with
  | Wire.Pu_accept { entry = Wire.Leader_change { leader; _ }; _ } ->
    grant_active t ~at:(now t) ~owner:leader
  | _ -> false

let on_renew t ~src ~pn ~sent =
  let at = now t in
  if
    (not (grant_active t ~at ~owner:pn.Pn.owner))
    && not
         (Paxos_utility.helped_elect_other (pu t) ~from_cseq:pn.Pn.round
            ~leader:pn.Pn.owner)
  then begin
    t.grant_holder <- pn;
    t.grant_until <- max t.grant_until (at + t.cfg.lease);
    send t src (Wire.Le_grant { pn; sent })
  end

let on_grant t ~src ~pn ~sent =
  if t.iam_leader && pn.Pn.owner = t.self then
    Hashtbl.replace t.grants src (sent + t.cfg.lease - t.cfg.lease_skew)

(* Renewals ride the failure-detector tick ([scan]) rather than their own
   timer: piggybacking on traffic that already exists keeps lease = 0
   byte-identical and adds no timer churn. *)
let maybe_renew t =
  if lease_on t && t.iam_leader then begin
    let at = now t in
    if at - t.last_renew >= max 1 (t.cfg.lease / 3) then begin
      t.last_renew <- at;
      let pn =
        Pn.make ~round:(Paxos_utility.next_cseq (pu t)) ~owner:t.self
      in
      Array.iter
        (fun dst -> send t dst (Wire.Le_renew { pn; sent = at }))
        t.cfg.replicas
    end
  end

let lease_read t cmd =
  if
    lease_on t && t.iam_leader
    (* Local state reflects every write any client may have seen acked:
       our own acks happen on execution (automatic), and [read_floor]
       covers instances a previous term or a forwarding follower could
       have acked. The batch buffer must be empty because buffered
       forwarded values have no instance yet (see [flush_batch]). *)
    && Replica_core.first_gap t.core > t.read_floor
    && Queue.is_empty t.bat_buf
    && lease_valid t ~at:(now t)
  then Replica_core.local_read t.core cmd
  else None

(* ----- proposing client values (failure-free path) --------------------- *)

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

(* Every registration in [proposed] goes through here: decided instances
   need no re-proposal, so they are never stored. *)
let register t ~inst v =
  if not (Replica_core.is_decided t.core ~inst) then begin
    t.proposed_high <- max t.proposed_high inst;
    Hashtbl.replace t.proposed inst v
  end

let rec learn_value t ~inst v =
  Hashtbl.remove t.outstanding inst;
  Hashtbl.remove t.inflight (Wire.value_key v);
  Hashtbl.remove t.proposed inst;
  let executed = Replica_core.learn t.core ~inst v in
  List.iter
    (fun (ex : Replica_core.executed) ->
      (* [ex.inst] just joined the decided prefix: the log answers for
         it from now on. *)
      Hashtbl.remove t.acc_ap ex.inst;
      reply_if_mine t ex)
    executed;
  batch_decided t ~inst

(* A slot of one of our batches decided: when its whole batch is in,
   release the pipeline window slot and flush whatever queued up. *)
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

(* Flush policy: full batches go out whenever the window allows; a
   partial batch goes out once the batch delay has expired (or
   immediately with no delay configured), otherwise the delay timer is
   armed to bound the latency cost of waiting for company. *)
and try_flush t =
  if t.iam_leader && t.aa <> None then begin
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
      register t ~inst v;
      Hashtbl.replace t.inflight (Wire.value_key v) inst;
      Hashtbl.replace t.outstanding inst (now t);
      Hashtbl.replace t.slot_batch inst base)
    vs;
  Hashtbl.replace t.bat_remaining base (ref k);
  t.bat_inflight <- t.bat_inflight + 1;
  if t.bat_has_fwd then begin
    (* A forwarded value may be in this batch: its follower can ack it
       as soon as it decides, so local reads wait for the whole range. *)
    t.read_floor <- max t.read_floor (base + k - 1);
    if Queue.is_empty t.bat_buf then t.bat_has_fwd <- false
  end;
  match t.aa with
  | Some a -> send t a (Wire.Op_accept_batch { base; pn = t.my_pn; vs })
  | None -> assert false

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
      register t ~inst v;
      Hashtbl.replace t.inflight key inst;
      Hashtbl.replace t.outstanding inst (now t);
      match t.aa with
      | Some a -> send t a (Wire.Op_accept_request { inst; pn = t.my_pn; v })
      | None -> assert false
    end

let drain_pending t =
  if t.iam_leader && t.aa <> None then begin
    while not (Queue.is_empty t.pending) do
      propose_value t (Queue.pop t.pending)
    done;
    if batching_on t then try_flush t
  end

(* Re-issue accepts for every registered-but-undecided proposal (after
   adopting an acceptor). Instances are re-proposed with their original
   values — Lemma 2a's requirement. *)
let re_propose_uncommitted t =
  let pairs =
    Hashtbl.fold (fun inst v acc -> (inst, v) :: acc) t.proposed []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (inst, v) ->
      if not (Replica_core.is_decided t.core ~inst) then begin
        Hashtbl.replace t.outstanding inst (now t);
        Hashtbl.replace t.inflight (Wire.value_key v) inst;
        match t.aa with
        | Some a -> send t a (Wire.Op_accept_request { inst; pn = t.my_pn; v })
        | None -> ()
      end)
    pairs

let bump_next_inst t =
  t.next_inst <-
    max t.next_inst (max (t.proposed_high + 1) (Replica_core.first_gap t.core))

(* ----- leadership machinery -------------------------------------------- *)

(* Ask every replica for its decided suffix; continue once a majority
   (including ourselves) answered. A fresh leader runs this before
   proposing so it never fills an instance some learner already knows
   decided (hardening beyond the paper's pseudo-code; see DESIGN.md). *)
let learner_sync t k =
  let token = t.ls_token in
  t.ls_token <- t.ls_token + 1;
  Hashtbl.replace t.ls_ops token { replies = 0; k };
  let from_ = Replica_core.first_gap t.core in
  Array.iter
    (fun dst -> send t dst (Wire.Ls_req { token; from_ }))
    t.cfg.replicas

let adopt_acceptor t =
  match t.aa with
  | None -> ()
  | Some a ->
    let pn = fresh_pn t in
    t.pending_prepare <- Some pn;
    t.prepare_deadline <- Some (now t + t.cfg.prepare_timeout);
    t.becoming <- true;
    send t a
      (Wire.Op_prepare_request
         { pn; must_be_fresh = t.expect_fresh; low = Replica_core.first_gap t.core })

let forward_pending t =
  match t.cur_leader with
  | Some l when l <> t.self ->
    while not (Queue.is_empty t.pending) do
      send t l (Wire.Forward { v = Queue.pop t.pending })
    done
  | Some _ | None -> ()

let step_down t =
  if t.iam_leader then t.env.Node_env.note_phase ~phase:"1paxos:step-down";
  t.iam_leader <- false;
  Hashtbl.reset t.grants;
  t.becoming <- false;
  t.pending_prepare <- None;
  t.prepare_deadline <- None;
  (* Commands still buffered for a batch go back to the pending queue
     so they reach the winning leader with everything else. *)
  while not (Queue.is_empty t.bat_buf) do
    let v = Queue.pop t.bat_buf in
    Hashtbl.remove t.bat_keys (Wire.value_key v);
    Queue.push v t.pending
  done;
  t.bat_overdue <- false;
  cancel_batch_timer t;
  forward_pending t

(* Upon AcceptorFailure (Appendix A, lines 1..13): verify global
   leadership, select a backup acceptor on another node, move the
   uncommitted proposals through PaxosUtility, then re-adopt. Requires
   [ap_covered]: a leader that has not adopted the acceptor (and did not
   install it itself) does not know its accepted proposals and must wait
   for it instead — this is exactly the situation in which the paper
   says 1Paxos blocks until the leader or the acceptor recovers. *)
let rec acceptor_failure t =
  if t.ap_covered && not (t.changing_acceptor || Paxos_utility.proposing (pu t))
  then begin
    t.changing_acceptor <- true;
    Paxos_utility.sync (pu t) (fun () ->
        if Paxos_utility.current_leader (pu t) <> Some t.self then begin
          t.changing_acceptor <- false;
          step_down t
        end
        else if Paxos_utility.proposing (pu t) || not t.ap_covered then
          t.changing_acceptor <- false
        else begin
          let next_acceptor =
            let r = t.cfg.replicas in
            let n = Array.length r in
            let cur =
              match t.aa with
              | Some a -> (match Array.find_index (fun id -> id = a) r with
                           | Some i -> i
                           | None -> 0)
              | None -> 0
            in
            let rec probe step =
              let cand = r.((cur + step) mod n) in
              if cand <> t.self && Some cand <> t.aa then cand
              else if step >= n then
                (* Degenerate two-node case: reinstall the same node
                   (it resets to fresh on installation). *)
                (if r.(0) <> t.self then r.(0) else r.(1 mod n))
              else probe (step + 1)
            in
            probe 1
          in
          let carried =
            Hashtbl.fold
              (fun inst v acc ->
                if Replica_core.is_decided t.core ~inst then acc
                else (inst, v) :: acc)
              t.proposed []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          t.iam_leader <- false;
          Paxos_utility.propose (pu t)
            (Wire.Acceptor_change { acceptor = next_acceptor; carried })
            (fun ~ok ->
              t.changing_acceptor <- false;
              if ok then begin
                (* on_entry set [aa] and [expect_fresh]. *)
                adopt_acceptor t
              end
              else re_evaluate t)
        end)
  end

(* The propose() takeover path (Appendix A, lines 18..35): announce
   leadership through PaxosUtility assuming the current acceptor, then
   adopt it. *)
and become_leader t =
  if not (t.iam_leader || t.becoming || t.changing_acceptor) then begin
    t.becoming <- true;
    Paxos_utility.sync (pu t) (fun () ->
        match Paxos_utility.current_leader (pu t) with
        | Some l when l = t.self ->
          (* Already the global leader (e.g. mid acceptor change). *)
          learner_sync t (fun () ->
              bump_next_inst t;
              if t.aa = Some t.self then begin
                t.becoming <- false;
                register_own_acceptor_state t;
                t.ap_covered <- true;
                acceptor_failure t
              end
              else adopt_acceptor t)
        | Some _ | None ->
          if Paxos_utility.proposing (pu t) then t.becoming <- false
          else begin
            match Paxos_utility.current_acceptor (pu t) with
            | None -> t.becoming <- false
            | Some a ->
              Paxos_utility.propose (pu t)
                (Wire.Leader_change { leader = t.self; acceptor = a })
                (fun ~ok ->
                  if ok then
                    learner_sync t (fun () ->
                        bump_next_inst t;
                        if t.aa = Some t.self then begin
                          (* We are both leader and acceptor: register our
                             own accepted proposals and relocate the
                             acceptor role to another node. *)
                          t.becoming <- false;
                          register_own_acceptor_state t;
                          t.ap_covered <- true;
                          acceptor_failure t
                        end
                        else adopt_acceptor t)
                  else begin
                    t.becoming <- false;
                    re_evaluate t
                  end)
          end)
  end

(* After losing a PaxosUtility slot: adopt whatever configuration won
   and either retry or hand our queue to the winner. *)
and re_evaluate t =
  Paxos_utility.sync (pu t) (fun () ->
      match Paxos_utility.current_leader (pu t) with
      | Some l when l = t.self ->
        if not (t.iam_leader || t.becoming) then become_leader t
      | Some _ -> step_down t
      | None -> ())

and register_own_acceptor_state t =
  Hashtbl.iter (fun inst (_, v) -> register t ~inst v) t.acc_ap

(* ----- client entry ----------------------------------------------------- *)

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
      (* A client only contacts a non-leader when it suspects the
         leader: try to take over (Section 5.3). *)
      become_leader t
    end

let handle_request t ~src ~req_id ~cmd ~relaxed_read =
  if relaxed_read && t.cfg.relaxed_reads && Command.is_read cmd then
    match Replica_core.local_read t.core cmd with
    | Some result -> send t src (Wire.Reply { req_id; result })
    | None -> ()
  else if Command.is_read cmd then begin
    match lease_read t cmd with
    | Some result ->
      t.n_lease_reads <- t.n_lease_reads + 1;
      send t src (Wire.Reply { req_id; result })
    | None -> handle_value t { Wire.client = src; req_id; cmd }
  end
  else handle_value t { Wire.client = src; req_id; cmd }

(* ----- acceptor role (Appendix A, lines 45..61) ------------------------- *)

(* The prepare reply answers for every instance at or above [low] this
   acceptor accepted: the [acc_ap] entries there, plus the decided
   values in [low, first_gap) that pruning moved to the log. A decided
   value carries [Pn.bottom]: it is chosen, so its ballot no longer
   matters. Sorted by instance. *)
let accepted_from t ~low =
  let gap = Replica_core.first_gap t.core in
  let pending =
    Hashtbl.fold
      (fun inst slot acc -> if inst >= low then (inst, slot) :: acc else acc)
      t.acc_ap []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let decided = ref pending in
  for inst = gap - 1 downto max 0 low do
    if not (Hashtbl.mem t.acc_ap inst) then
      match Replica_core.decided_value t.core ~inst with
      | Some v -> decided := (inst, (Pn.bottom, v)) :: !decided
      | None -> ()
  done;
  !decided

let on_prepare_request t ~src ~pn ~must_be_fresh ~low =
  if t.acc_retired && not t.cfg.unsafe_stale_adoption then
    (* Tenure over: abandon so the knocker syncs the configuration log
       and finds the acceptor's new home. *)
    send t src (Wire.Op_abandon { hpn = t.hpn })
  else if Pn.(pn > t.hpn) then begin
    if t.iam_fresh <> must_be_fresh then
      (* Freshness mismatch: stay silent; the proposer times out and
         replaces this acceptor, so lost promises can never be relied
         upon. *)
      ()
    else begin
      t.iam_fresh <- false;
      t.hpn <- pn;
      send t src (Wire.Op_prepare_response { pn; accepted = accepted_from t ~low })
    end
  end
  else send t src (Wire.Op_abandon { hpn = t.hpn })

(* The value an acceptor must keep for [inst]: its own acceptance, or
   the decided value once pruning moved that acceptance to the log (a
   decided value is the only one that may ever be learned there). The
   test-only [unsafe_stale_adoption] skips the log: the guard would
   also refuse the stale accept that the seeded split-brain needs. *)
let settled t ~inst =
  match Hashtbl.find_opt t.acc_ap inst with
  | Some (_, v0) -> Some v0
  | None ->
    if t.cfg.unsafe_stale_adoption then None
    else Replica_core.decided_value t.core ~inst

let on_accept_request t ~src ~inst ~pn ~v =
  if
    (t.acc_retired && not t.cfg.unsafe_stale_adoption)
    || not (Pn.equal pn t.hpn)
  then send t src (Wire.Op_abandon { hpn = t.hpn })
  else
    match settled t ~inst with
    | Some v0 ->
      (* Already accepted or decided: re-issue the learn (covers retried
         proposals after a lost-looking learn). *)
      Array.iter (fun dst -> send t dst (Wire.Op_learn { inst; v = v0 })) t.cfg.replicas
    | None ->
      Hashtbl.replace t.acc_ap inst (pn, v);
      Array.iter (fun dst -> send t dst (Wire.Op_learn { inst; v })) t.cfg.replicas

(* Batched accepts: one proposal-number check covers the whole range;
   per slot the acceptor either accepts the leader's value or keeps an
   earlier acceptance (whose learn may have been lost), substituting it
   in the outgoing batch — the per-slot logic of [on_accept_request],
   amortized over one message each way. *)
let on_accept_batch t ~src ~base ~pn ~vs =
  if
    (t.acc_retired && not t.cfg.unsafe_stale_adoption)
    || not (Pn.equal pn t.hpn)
  then send t src (Wire.Op_abandon { hpn = t.hpn })
  else begin
    let out =
      Array.mapi
        (fun i v ->
          let inst = base + i in
          match settled t ~inst with
          | Some v0 -> v0
          | None ->
            Hashtbl.replace t.acc_ap inst (pn, v);
            v)
        vs
    in
    Array.iter
      (fun dst -> send t dst (Wire.Op_learn_batch { base; vs = out }))
      t.cfg.replicas
  end

let on_learn_batch t ~base ~vs =
  Array.iteri (fun i v -> learn_value t ~inst:(base + i) v) vs

(* ----- leader role ------------------------------------------------------ *)

let on_prepare_response t ~src ~pn ~accepted =
  let expected = match t.pending_prepare with Some p -> Pn.equal p pn | None -> false in
  (* Leadership flows from the configuration log alone: a prepare
     response may only promote the node the last Leader_change named.
     Without this gate a stale takeover attempt (its knocking kept alive
     by [scan]) can adopt a freshly installed acceptor and produce two
     concurrent leaders — each with its own acceptor — proposing
     different values at the same instance. *)
  if
    (not t.iam_leader)
    && (t.cfg.unsafe_stale_adoption || t.cur_leader = Some t.self)
    && Some src = t.aa && expected
  then begin
    t.env.Node_env.note_phase ~phase:"1paxos:adopted-acceptor";
    t.iam_leader <- true;
    t.becoming <- false;
    t.pending_prepare <- None;
    t.prepare_deadline <- None;
    t.expect_fresh <- false;
    t.ap_covered <- true;
    t.my_pn <- pn;
    (* registerProposals: the acceptor's accepted values dominate ours
       for their instances (Lemma 2b). *)
    List.iter
      (fun (inst, (_, v)) ->
        (* Decided or not, the acceptor holds a value there: propose
           above it. *)
        t.proposed_high <- max t.proposed_high inst;
        register t ~inst v)
      accepted;
    bump_next_inst t;
    (* Anything adopted may already have been acked by the previous
       term: no local reads until our store reflects all of it. *)
    t.read_floor <- max t.read_floor (t.next_inst - 1);
    re_propose_uncommitted t;
    drain_pending t
  end

let on_abandon t ~src ~hpn =
  if Some src = t.aa && (t.iam_leader || t.becoming) then begin
    t.pn_round <- max t.pn_round hpn.Pn.round;
    t.iam_leader <- false;
    t.becoming <- false;
    t.pending_prepare <- None;
    t.prepare_deadline <- None;
    (* Either a rival leader adopted our acceptor, our number is simply
       too low, or the acceptor lost its state: let the configuration
       log arbitrate. *)
    Paxos_utility.sync (pu t) (fun () ->
        match Paxos_utility.current_leader (pu t) with
        | Some l when l = t.self ->
          if t.ap_covered then
            (* We already know everything it accepted (we adopted it
               before): replace it — this is how the last leader fixes a
               silently reset acceptor. *)
            acceptor_failure t
          else
            (* Not adopted yet: retry with a number above [hpn]. *)
            adopt_acceptor t
        | Some _ -> step_down t
        | None -> ())
  end

(* ----- failure detector -------------------------------------------------- *)

let scan t =
  maybe_renew t;
  (if t.iam_leader then begin
     let oldest =
       Hashtbl.fold (fun _ at acc -> min at acc) t.outstanding max_int
     in
     if oldest <> max_int && now t - oldest > t.cfg.acceptor_timeout then
       acceptor_failure t
   end);
  match t.prepare_deadline with
  | Some d when now t > d ->
    t.pending_prepare <- None;
    t.prepare_deadline <- None;
    t.becoming <- false;
    if (not t.cfg.unsafe_stale_adoption) && t.cur_leader <> Some t.self then
      (* Leadership moved on while we were knocking: abandon the
         attempt and hand our queue to the winner. Retrying here would
         keep a rival adoption loop alive forever. *)
      forward_pending t
    else if t.ap_covered then
      (* The acceptor we installed (or previously adopted) is not
         answering: replace it. *)
      acceptor_failure t
    else
      (* Inherited acceptor unresponsive and its accepted proposals
         unknown: 1Paxos must wait for it (the paper's
         leader-and-acceptor-both-slow stall). Keep knocking. *)
      adopt_acceptor t
  | Some _ | None -> ()

let rec fd_loop t =
  t.env.Node_env.after ~delay:t.cfg.check_period (fun () ->
      scan t;
      fd_loop t)

(* ----- learner catch-up -------------------------------------------------- *)

let on_ls_req t ~src ~token ~from_ =
  send t src (Wire.Ls_reply { token; decisions = Replica_core.decisions_from t.core ~from_ })

let on_ls_reply t ~token ~decisions =
  List.iter (fun (inst, v) -> learn_value t ~inst v) decisions;
  match Hashtbl.find_opt t.ls_ops token with
  | Some op ->
    op.replies <- op.replies + 1;
    if op.replies >= majority t then begin
      Hashtbl.remove t.ls_ops token;
      op.k ()
    end
  | None -> ()

(* ----- wiring ------------------------------------------------------------ *)

let handle t ~src msg =
  if veto_pu t msg then ()
  else if not (Paxos_utility.handle (pu t) ~src msg) then
    match msg with
    | Wire.Request { req_id; cmd; relaxed_read } ->
      handle_request t ~src ~req_id ~cmd ~relaxed_read
    | Wire.Forward { v } ->
      if t.iam_leader then begin
        Hashtbl.replace t.my_keys (Wire.value_key v) ();
        propose_value t v;
        (* The forwarding follower replies to its own client when *it*
           executes — possibly before we do: block local reads until
           our store reflects the forwarded write. *)
        t.read_floor <- max t.read_floor (t.next_inst - 1);
        if not (Queue.is_empty t.bat_buf) then t.bat_has_fwd <- true
      end
      else handle_value t v
    | Wire.Op_prepare_request { pn; must_be_fresh; low } ->
      on_prepare_request t ~src ~pn ~must_be_fresh ~low
    | Wire.Op_prepare_response { pn; accepted } ->
      on_prepare_response t ~src ~pn ~accepted
    | Wire.Op_abandon { hpn } -> on_abandon t ~src ~hpn
    | Wire.Op_accept_request { inst; pn; v } -> on_accept_request t ~src ~inst ~pn ~v
    | Wire.Op_learn { inst; v } -> learn_value t ~inst v
    | Wire.Op_accept_batch { base; pn; vs } -> on_accept_batch t ~src ~base ~pn ~vs
    | Wire.Op_learn_batch { base; vs } -> on_learn_batch t ~base ~vs
    | Wire.Ls_req { token; from_ } -> on_ls_req t ~src ~token ~from_
    | Wire.Ls_reply { token; decisions } -> on_ls_reply t ~token ~decisions
    | Wire.Le_renew { pn; sent } -> if lease_on t then on_renew t ~src ~pn ~sent
    | Wire.Le_grant { pn; sent } -> if lease_on t then on_grant t ~src ~pn ~sent
    | Wire.Reply _ | Wire.Mp_prepare _ | Wire.Mp_promise _ | Wire.Mp_reject _
    | Wire.Mp_accept _ | Wire.Mp_learn _ | Wire.Tp_prepare _ | Wire.Tp_ack _
    | Wire.Tp_commit _ | Wire.Tp_commit_ack _ | Wire.Tp_rollback _ | Wire.Tp_nack _
    | Wire.Pu_prepare _ | Wire.Pu_promise _ | Wire.Pu_reject _ | Wire.Pu_accept _
    | Wire.Pu_accepted _ | Wire.Pu_nack _ | Wire.Pu_learn _ | Wire.Pu_read _
    | Wire.Pu_read_reply _ | Wire.Mn_accept _ | Wire.Mn_learn _ | Wire.Cp_accept _ | Wire.Cp_accepted _ | Wire.Cp_learn _ | Wire.Cp_state _
    | Wire.Mp_accept_batch _ | Wire.Mp_learn_batch _ ->
      ()

let on_config_entry t ~cseq:_ entry =
  match entry with
  | Wire.Leader_change { leader; acceptor } ->
    t.env.Node_env.note_phase
      ~phase:(Printf.sprintf "1paxos:leader-change:%d" leader);
    t.cur_leader <- Some leader;
    if t.aa = Some t.self && acceptor <> t.self then t.acc_retired <- true;
    t.aa <- Some acceptor;
    t.ap_covered <- false;
    t.n_leader_changes <- t.n_leader_changes + 1;
    (* Also cancel a takeover still in flight ([becoming]): its prepare
       must not linger and promote us after this entry named someone
       else. *)
    if
      leader <> t.self
      && (t.iam_leader || ((not t.cfg.unsafe_stale_adoption) && t.becoming))
    then step_down t
  | Wire.Acceptor_change { acceptor; carried } ->
    t.env.Node_env.note_phase
      ~phase:(Printf.sprintf "1paxos:acceptor-change:%d" acceptor);
    (* The entry is the proof this node's acceptor tenure ended: the
       proposer vouched for our accepted set via [carried], so any
       acceptance we mint from here on would split the brain (the
       explorer's 36-choice counterexample in DESIGN.md §14). *)
    if t.aa = Some t.self && acceptor <> t.self then t.acc_retired <- true;
    t.aa <- Some acceptor;
    t.n_acceptor_changes <- t.n_acceptor_changes + 1;
    (* Every node registers the carried proposals so whichever node
       leads next re-proposes the same values (Lemma 2a). *)
    List.iter (fun (inst, v) -> register t ~inst v) carried;
    if acceptor = t.self then begin
      (* Installed as a fresh backup acceptor: any state left over from
         an earlier tenure belongs to an abandoned epoch. *)
      t.hpn <- Pn.bottom;
      Hashtbl.reset t.acc_ap;
      t.iam_fresh <- true;
      t.acc_retired <- false
    end;
    if t.cur_leader = Some t.self then begin
      (* Our own installation of a fresh backup: nobody can have adopted
         it yet, so its accepted set is empty — covered. *)
      t.expect_fresh <- true;
      t.ap_covered <- true
    end
    else t.ap_covered <- false;
    if t.iam_leader then t.iam_leader <- false
  | Wire.Epoch_change _ ->
    (* Cheap Paxos configuration entries never appear in a 1Paxos
       deployment's PaxosUtility log. *)
    ()

let validate_config config =
  let member id = Array.exists (fun r -> r = id) config.replicas in
  if Array.length config.replicas < 2 then
    invalid_arg "Onepaxos: need at least two replicas";
  if not (member config.initial_leader) then
    invalid_arg
      (Printf.sprintf "Onepaxos: initial_leader %d is not a replica"
         config.initial_leader);
  if not (member config.initial_acceptor) then
    invalid_arg
      (Printf.sprintf "Onepaxos: initial_acceptor %d is not a replica"
         config.initial_acceptor);
  if config.max_batch < 1 then
    invalid_arg "Onepaxos: max_batch must be >= 1";
  if config.window < 0 then invalid_arg "Onepaxos: window must be >= 0";
  if config.lease < 0 then invalid_arg "Onepaxos: lease must be >= 0";
  if config.lease_skew < 0 then
    invalid_arg "Onepaxos: lease_skew must be >= 0";
  if config.lease > 0 && config.lease_skew >= config.lease then
    invalid_arg "Onepaxos: lease_skew must be < lease"

let create ~env ~config =
  validate_config config;
  let t =
    {
      env;
      cfg = config;
      self = env.Node_env.id;
      core = Replica_core.create ~replica:env.Node_env.id;
      pu = None;
      iam_leader = false;
      aa = None;
      cur_leader = None;
      my_pn = Pn.bottom;
      pn_round = 0;
      expect_fresh = false;
      ap_covered = false;
      becoming = false;
      changing_acceptor = false;
      pending_prepare = None;
      prepare_deadline = None;
      proposed = Hashtbl.create 256;
      proposed_high = -1;
      inflight = Hashtbl.create 256;
      next_inst = 0;
      pending = Queue.create ();
      outstanding = Hashtbl.create 64;
      my_keys = Hashtbl.create 64;
      bat_buf = Queue.create ();
      bat_keys = Hashtbl.create 64;
      bat_inflight = 0;
      bat_remaining = Hashtbl.create 32;
      slot_batch = Hashtbl.create 256;
      bat_timer = None;
      bat_overdue = false;
      hpn = Pn.bottom;
      iam_fresh = true;
      acc_ap = Hashtbl.create 256;
      acc_retired = false;
      ls_token = 0;
      ls_ops = Hashtbl.create 8;
      grant_holder = Pn.bottom;
      grant_until = 0;
      grants = Hashtbl.create 8;
      last_renew = -config.lease;
      n_lease_reads = 0;
      read_floor = -1;
      bat_has_fwd = false;
      n_leader_changes = 0;
      n_acceptor_changes = 0;
    }
  in
  let seed =
    [
      Wire.Leader_change
        { leader = config.initial_leader; acceptor = config.initial_acceptor };
      Wire.Acceptor_change { acceptor = config.initial_acceptor; carried = [] };
    ]
  in
  let pu =
    Paxos_utility.create ~env ~peers:config.replicas ~timeout:config.pu_timeout
      ~seed ~on_entry:(fun ~cseq entry -> on_config_entry t ~cseq entry)
  in
  t.pu <- Some pu;
  (* Seeds count as history, not as runtime role changes. *)
  t.n_leader_changes <- 0;
  t.n_acceptor_changes <- 0;
  t

let start t =
  if t.self = t.cfg.initial_leader then adopt_acceptor t;
  fd_loop t

(* ----- crash-recovery ---------------------------------------------------- *)

(* What a real 1Paxos deployment fsyncs before acting on it:
   - the learner's decided log (re-executed against a fresh store);
   - the acceptor registers hpn / ap / IamFresh — an acceptor that
     forgot an acceptance while its leader also crashed could let a new
     leader decide the same instance twice, so acceptances hit disk
     before the learns go out (the freshness handshake only protects
     against acceptors that lost state *silently*, i.e. outside this
     contract);
   - the proposal-number round, so a recovered proposer can never reuse
     a pn (two values under one (inst, pn) would corrupt learn tallies);
   - the PaxosUtility durable registers (see {!Paxos_utility.stable}).
   Leadership itself is NOT durable: a recovered node comes back as a
   follower and re-earns any role through the configuration log. *)
type stable = {
  st_decisions : (int * Wire.value) list;
  st_pn_round : int;
  st_hpn : Pn.t;
  st_iam_fresh : bool;
  st_acc_ap : (int * (Pn.t * Wire.value)) list;
  st_pu : Paxos_utility.stable;
}

let stable t =
  {
    st_decisions = Replica_core.decisions_from t.core ~from_:0;
    st_pn_round = t.pn_round;
    st_hpn = t.hpn;
    st_iam_fresh = t.iam_fresh;
    st_acc_ap = Hashtbl.fold (fun i s acc -> (i, s) :: acc) t.acc_ap [];
    st_pu = Paxos_utility.stable (pu t);
  }

let recover ~env ~config ~stable:st =
  validate_config config;
  let t =
    {
      env;
      cfg = config;
      self = env.Node_env.id;
      core = Replica_core.create ~replica:env.Node_env.id;
      pu = None;
      iam_leader = false;
      aa = None;
      cur_leader = None;
      my_pn = Pn.bottom;
      pn_round = 0;
      expect_fresh = false;
      ap_covered = false;
      becoming = false;
      changing_acceptor = false;
      pending_prepare = None;
      prepare_deadline = None;
      proposed = Hashtbl.create 256;
      proposed_high = -1;
      inflight = Hashtbl.create 256;
      next_inst = 0;
      pending = Queue.create ();
      outstanding = Hashtbl.create 64;
      my_keys = Hashtbl.create 64;
      bat_buf = Queue.create ();
      bat_keys = Hashtbl.create 64;
      bat_inflight = 0;
      bat_remaining = Hashtbl.create 32;
      slot_batch = Hashtbl.create 256;
      bat_timer = None;
      bat_overdue = false;
      hpn = Pn.bottom;
      iam_fresh = true;
      acc_ap = Hashtbl.create 256;
      acc_retired = false;
      ls_token = 0;
      ls_ops = Hashtbl.create 8;
      grant_holder = Pn.bottom;
      grant_until = 0;
      grants = Hashtbl.create 8;
      last_renew = -config.lease;
      n_lease_reads = 0;
      read_floor = -1;
      bat_has_fwd = false;
      n_leader_changes = 0;
      n_acceptor_changes = 0;
    }
  in
  (* Re-execute the durable decided log against the fresh store. *)
  List.iter
    (fun (inst, v) -> ignore (Replica_core.learn t.core ~inst v))
    st.st_decisions;
  (* Replaying the configuration log rebuilds cur_leader / aa exactly as
     the pre-crash node derived them ([on_config_entry] runs for every
     recovered entry, including the seeds). *)
  let pu =
    Paxos_utility.recover ~env ~peers:config.replicas
      ~timeout:config.pu_timeout ~stable:st.st_pu
      ~on_entry:(fun ~cseq entry -> on_config_entry t ~cseq entry)
  in
  t.pu <- Some pu;
  (* The two seeded entries count as history, exactly as in [create]. *)
  t.n_leader_changes <- max 0 (t.n_leader_changes - 1);
  t.n_acceptor_changes <- max 0 (t.n_acceptor_changes - 1);
  (* An Acceptor_change naming us replayed above wiped the registers
     "fresh" — restore the durable post-entry reality on top. *)
  t.pn_round <- st.st_pn_round;
  t.hpn <- st.st_hpn;
  t.iam_fresh <- st.st_iam_fresh;
  Hashtbl.reset t.acc_ap;
  List.iter (fun (inst, s) -> Hashtbl.replace t.acc_ap inst s) st.st_acc_ap;
  (* Replay never re-earns roles: whatever the log says, we come back as
     a follower and leadership flows through the takeover machinery. *)
  t.iam_leader <- false;
  t.ap_covered <- false;
  (* Grants are volatile: we may have promised a lease just before the
     crash. Sit out one full window — refuse every renewal and veto
     every deposition ([Pn.bottom]'s owner matches nobody) until any
     pre-crash promise has provably expired. *)
  if config.lease > 0 then begin
    t.grant_holder <- Pn.bottom;
    t.grant_until <- env.Node_env.now () + config.lease
  end;
  bump_next_inst t;
  (* Rejoin: refresh the configuration view from a majority, then pull
     decisions we missed while dead; the failure detector restarts so a
     recovered ex-leader can still replace a dead acceptor if the
     configuration log still names it leader. *)
  Paxos_utility.sync pu (fun () ->
      learner_sync t (fun () -> bump_next_inst t));
  fd_loop t;
  t

let is_leader t = t.iam_leader
let believed_leader t = t.cur_leader
let active_acceptor t = t.aa
let replica_core t = t.core
let leader_changes t = t.n_leader_changes
let acceptor_changes t = t.n_acceptor_changes
let pending_count t = Queue.length t.pending
let lease_reads t = t.n_lease_reads
let holds_lease t = t.iam_leader && lease_on t && lease_valid t ~at:(now t)

type retained = { proposals : int; acceptances : int }

let retained t =
  { proposals = Hashtbl.length t.proposed; acceptances = Hashtbl.length t.acc_ap }

let inject_acceptor_reset t =
  t.hpn <- Pn.bottom;
  Hashtbl.reset t.acc_ap;
  t.iam_fresh <- true

(* Structural fingerprint for the explorer's visited-state table. Covers
   every protocol-relevant field as pure data: hashtables are folded to
   sorted association lists so iteration order cannot leak into the
   hash, and absolute timestamps are made relative to the current clock
   (two states reachable at different absolute times but otherwise
   identical should collide). The env, timers and counters are
   excluded: timers are hashed by the explorer's own timer queues and
   counters are observability, not behaviour. *)
let digest t =
  let sorted_tbl tbl fold = fold tbl |> List.sort compare in
  let tbl_list tbl = sorted_tbl tbl (fun h -> Hashtbl.fold (fun k v l -> (k, v) :: l) h []) in
  let clock = now t in
  let rel at = at - clock in
  let rel_opt = function None -> None | Some at -> Some (rel at) in
  let roles =
    ( t.iam_leader, t.aa, t.cur_leader, t.my_pn, t.pn_round,
      (t.expect_fresh, t.ap_covered, t.becoming, t.changing_acceptor),
      t.pending_prepare, rel_opt t.prepare_deadline )
  in
  let proposer =
    ( tbl_list t.proposed, tbl_list t.inflight, t.next_inst,
      List.of_seq (Queue.to_seq t.pending),
      sorted_tbl t.outstanding (fun h ->
          Hashtbl.fold (fun i at l -> (i, rel at) :: l) h []),
      tbl_list t.my_keys )
  in
  let batching =
    ( List.of_seq (Queue.to_seq t.bat_buf), tbl_list t.bat_keys,
      t.bat_inflight,
      sorted_tbl t.bat_remaining (fun h ->
          Hashtbl.fold (fun b r l -> (b, !r) :: l) h []),
      tbl_list t.slot_batch, t.bat_timer <> None, t.bat_overdue,
      t.bat_has_fwd )
  in
  let acceptor = (t.hpn, t.iam_fresh, tbl_list t.acc_ap) in
  let learner = (t.ls_token, Hashtbl.length t.ls_ops) in
  let lease =
    ( t.grant_holder, rel t.grant_until,
      sorted_tbl t.grants (fun h ->
          Hashtbl.fold (fun src at l -> (src, rel at) :: l) h []),
      rel t.last_renew, t.read_floor )
  in
  Hashtbl.hash_param 1000 1000
    ( Replica_core.digest t.core, Paxos_utility.digest (pu t),
      roles, proposer, batching, acceptor, learner, lease )
