module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Command = Ci_rsm.Command

type config = {
  replicas : int array;
  initial_actives : int list;
  acceptor_timeout : Sim_time.t;
  check_period : Sim_time.t;
  reconfig_timeout : Sim_time.t;
}

let default_config ~replicas =
  let n = Array.length replicas in
  if n < 1 then invalid_arg "Cheap_paxos.default_config: need replicas";
  let f = (n - 1) / 2 in
  {
    replicas;
    initial_actives = Array.to_list (Array.sub replicas 0 (f + 1));
    acceptor_timeout = Sim_time.us 800;
    check_period = Sim_time.us 200;
    reconfig_timeout = Sim_time.us 800;
  }

type round = { v : Wire.value; mutable acks : int list }

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  self : int;
  core : Replica_core.t;
  mutable pu : Paxos_utility.t option; (* set in [create], always Some *)
  (* Current epoch: the configuration-log slot of the last applied
     Epoch_change, its active set (head = leader), and whether this
     node, as the epoch's leader, has received the state handoff that
     lets it propose. *)
  mutable cur_epoch : int;
  mutable cur_actives : int list;
  mutable ready : bool;
  (* Chain of custody for the acceptor store: [covering] means this
     node's [acc_store] provably holds every value any epoch up to
     [cur_epoch] can have chosen, so the node may vouch for history —
     hand its store to a new leader, or propose as one.  Bootstrap
     actives are covering (there is no history yet); a leader that
     becomes ready from a covering basis is covering; exclusion from
     the active set resets the store and clears the flag. *)
  mutable covering : bool;
  mutable changing : bool; (* an Epoch_change proposal is in flight *)
  (* Leader. *)
  rounds : (int, round) Hashtbl.t;
  pending : Wire.value Queue.t;
  my_keys : (int * int, unit) Hashtbl.t;
  inflight : (int * int, int) Hashtbl.t;
  mutable next_inst : int;
  outstanding : (int, Sim_time.t) Hashtbl.t;
  (* Active acceptor memory (covers everything chosen in this epoch and
     everything handed over from previous ones). *)
  acc_store : (int, Wire.value) Hashtbl.t;
  mutable n_reconfigs : int;
}

let send t dst msg = t.env.Node_env.send ~dst msg
let now t = t.env.Node_env.now ()
let pu t = match t.pu with Some p -> p | None -> assert false
let leader_of actives = match actives with l :: _ -> l | [] -> -1
let is_leader t = leader_of t.cur_actives = t.self
let is_active t = List.mem t.self t.cur_actives

let reply_if_mine t (ex : Replica_core.executed) =
  let key = Wire.value_key ex.v in
  if Hashtbl.mem t.my_keys key then begin
    Hashtbl.remove t.my_keys key;
    send t ex.v.Wire.client (Wire.Reply { req_id = ex.v.Wire.req_id; result = ex.result })
  end

let learn_value t ~inst v =
  Hashtbl.remove t.outstanding inst;
  Hashtbl.remove t.inflight (Wire.value_key v);
  let executed = Replica_core.learn t.core ~inst v in
  List.iter (reply_if_mine t) executed

(* Leader: a round is chosen once every current active accepted it. *)
let maybe_choose t ~inst round =
  if
    t.ready
    && List.for_all (fun a -> List.mem a round.acks) t.cur_actives
    && not (Replica_core.is_decided t.core ~inst)
  then begin
    Hashtbl.remove t.rounds inst;
    learn_value t ~inst round.v;
    Array.iter
      (fun dst ->
        if dst <> t.self then
          send t dst (Wire.Cp_learn { epoch = t.cur_epoch; inst; v = round.v }))
      t.cfg.replicas
  end

let start_round t ~inst v =
  let round = { v; acks = [ t.self ] } in
  Hashtbl.replace t.rounds inst round;
  Hashtbl.replace t.acc_store inst v;
  Hashtbl.replace t.outstanding inst (now t);
  List.iter
    (fun a ->
      if a <> t.self then send t a (Wire.Cp_accept { epoch = t.cur_epoch; inst; v }))
    t.cur_actives;
  maybe_choose t ~inst round

let propose_value t v =
  let key = Wire.value_key v in
  Hashtbl.replace t.my_keys key ();
  match Replica_core.cached_result t.core ~client:(fst key) ~req_id:(snd key) with
  | Some result ->
    Hashtbl.remove t.my_keys key;
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    if not t.ready then Queue.push v t.pending
    else if not (Hashtbl.mem t.inflight key) then begin
      let inst = t.next_inst in
      t.next_inst <- t.next_inst + 1;
      Hashtbl.replace t.inflight key inst;
      start_round t ~inst v
    end

let drain_pending t =
  if is_leader t && t.ready then
    while not (Queue.is_empty t.pending) do
      propose_value t (Queue.pop t.pending)
    done

(* ----- epoch machinery ---------------------------------------------------- *)

let bump_next_inst t =
  let high = Hashtbl.fold (fun inst _ acc -> max inst acc) t.acc_store (-1) in
  t.next_inst <- max t.next_inst (max (high + 1) (Replica_core.first_gap t.core))

(* The new epoch's leader may propose once its state basis covers every
   commit the previous epoch could complete. *)
let become_ready t =
  t.ready <- true;
  t.covering <- true;
  bump_next_inst t;
  Hashtbl.reset t.rounds;
  Hashtbl.reset t.outstanding;
  let undecided =
    Hashtbl.fold
      (fun inst v acc ->
        if Replica_core.is_decided t.core ~inst then acc else (inst, v) :: acc)
      t.acc_store []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (inst, v) ->
      Hashtbl.replace t.inflight (Wire.value_key v) inst;
      start_round t ~inst v)
    undecided;
  drain_pending t

(* Applying an Epoch_change closes the previous epoch on this node: old
   actives hand their acceptor memory to the new leader and stop
   acknowledging; any commit that raced the change needed their ack
   first, so the handoff covers it.

   Only a [covering] node may vouch, though.  An active of an epoch
   whose leader never became ready has no guarantee its store reaches
   back through history: accepting its (possibly empty) handoff would
   let the new leader re-propose fresh values at instances an earlier
   epoch already chose, and conflicting Cp_learns would split the
   replicas.  A new leader therefore becomes ready only from its own
   covering store or from a covering old active's handoff — and blocks
   (the documented Cheap Paxos cost) when every covering node is down. *)
let on_epoch_change t ~cseq actives =
  let was_active = is_active t && t.cur_actives <> [] in
  let bootstrap = t.cur_actives = [] in
  if not bootstrap then
    t.env.Node_env.note_phase
      ~phase:(Printf.sprintf "cheap-paxos:epoch-change:%d" cseq);
  t.cur_epoch <- cseq;
  t.cur_actives <- actives;
  t.n_reconfigs <- t.n_reconfigs + 1;
  t.ready <- false;
  t.changing <- false;
  Hashtbl.reset t.rounds;
  Hashtbl.reset t.outstanding;
  if bootstrap && List.mem t.self actives then t.covering <- true;
  let leader = leader_of actives in
  if leader = t.self then begin
    if bootstrap || t.covering then become_ready t
    (* else: wait for a Cp_state handoff from a covering old active. *)
  end
  else begin
    if was_active && t.covering then
      send t leader
        (Wire.Cp_state
           {
             epoch = cseq;
             accepted = Hashtbl.fold (fun i v acc -> (i, v) :: acc) t.acc_store [];
           });
    if not (List.mem t.self actives) then begin
      Hashtbl.reset t.acc_store;
      t.covering <- false
    end;
    (* Deposed leaders hand their queue over. *)
    while not (Queue.is_empty t.pending) do
      send t leader (Wire.Forward { v = Queue.pop t.pending })
    done
  end

(* Propose a new active set through the configuration consensus. Epoch
   succession is linearized by the log: losing the slot just means
   someone else's change applied first. *)
let propose_epoch t ~new_actives =
  if not (t.changing || Paxos_utility.proposing (pu t)) then begin
    t.changing <- true;
    Paxos_utility.propose (pu t) (Wire.Epoch_change { actives = new_actives })
      (fun ~ok ->
        t.changing <- false;
        (* Either way, on_entry applied whichever change won the slot. *)
        ignore ok)
  end

let takeover t =
  if (not (is_leader t)) && not t.changing then
    Paxos_utility.sync (pu t) (fun () ->
        if not (is_leader t) then propose_epoch t ~new_actives:[ t.self ])

let handle_value t v =
  match
    Replica_core.cached_result t.core ~client:v.Wire.client ~req_id:v.Wire.req_id
  with
  | Some result ->
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    Hashtbl.replace t.my_keys (Wire.value_key v) ();
    if is_leader t then propose_value t v
    else begin
      Queue.push v t.pending;
      (* A client only reaches a non-leader when it suspects the
         leader. *)
      takeover t
    end

(* ----- failure detector ----------------------------------------------------- *)

let scan t =
  if is_leader t && t.ready && not t.changing then begin
    let oldest = Hashtbl.fold (fun _ at acc -> min at acc) t.outstanding max_int in
    if oldest <> max_int && now t - oldest > t.cfg.acceptor_timeout then begin
      let laggards =
        Hashtbl.fold
          (fun _ round acc ->
            List.filter (fun a -> not (List.mem a round.acks)) t.cur_actives @ acc)
          t.rounds []
        |> List.sort_uniq compare
      in
      let new_actives =
        List.filter (fun a -> not (List.mem a laggards)) t.cur_actives
      in
      if new_actives <> t.cur_actives && new_actives <> [] then
        propose_epoch t ~new_actives
    end
  end

let rec fd_loop t =
  t.env.Node_env.after ~delay:t.cfg.check_period (fun () ->
      scan t;
      fd_loop t)

(* ----- message handling ------------------------------------------------------ *)

let handle t ~src msg =
  if not (Paxos_utility.handle (pu t) ~src msg) then
    match msg with
    | Wire.Request { req_id; cmd; relaxed_read = _ } ->
      handle_value t { Wire.client = src; req_id; cmd }
    | Wire.Forward { v } -> handle_value t v
    | Wire.Cp_accept { epoch; inst; v } ->
      (* The epoch check is the closure: once a newer Epoch_change has
         been applied here, older epochs get no further acks. *)
      if epoch = t.cur_epoch && is_active t then begin
        Hashtbl.replace t.acc_store inst v;
        send t src (Wire.Cp_accepted { epoch; inst; v })
      end
    | Wire.Cp_accepted { epoch; inst; v = _ } ->
      if epoch = t.cur_epoch then (
        match Hashtbl.find_opt t.rounds inst with
        | Some round ->
          if not (List.mem src round.acks) then round.acks <- src :: round.acks;
          maybe_choose t ~inst round
        | None -> ())
    | Wire.Cp_learn { epoch = _; inst; v } -> learn_value t ~inst v
    | Wire.Cp_state { epoch; accepted } ->
      if epoch = t.cur_epoch && is_leader t then begin
        List.iter (fun (inst, v) -> Hashtbl.replace t.acc_store inst v) accepted;
        if not t.ready then become_ready t
      end
    | Wire.Reply _ | Wire.Op_prepare_request _ | Wire.Op_prepare_response _
    | Wire.Op_abandon _ | Wire.Op_accept_request _ | Wire.Op_learn _
    | Wire.Ls_req _ | Wire.Ls_reply _ | Wire.Mp_prepare _
    | Wire.Mp_promise _ | Wire.Mp_reject _ | Wire.Mp_accept _ | Wire.Mp_learn _ | Wire.Op_accept_batch _ | Wire.Op_learn_batch _ | Wire.Mp_accept_batch _ | Wire.Mp_learn_batch _
    | Wire.Mn_accept _ | Wire.Mn_learn _ | Wire.Tp_prepare _ | Wire.Tp_ack _
    | Wire.Tp_commit _ | Wire.Tp_commit_ack _ | Wire.Tp_rollback _ | Wire.Tp_nack _
    | Wire.Pu_prepare _ | Wire.Pu_promise _ | Wire.Pu_reject _ | Wire.Pu_accept _
    | Wire.Pu_accepted _ | Wire.Pu_nack _ | Wire.Pu_learn _ | Wire.Pu_read _
    | Wire.Pu_read_reply _ | Wire.Le_renew _ | Wire.Le_grant _ ->
      ()

let on_config_entry t ~cseq entry =
  match entry with
  | Wire.Epoch_change { actives } -> on_epoch_change t ~cseq actives
  | Wire.Leader_change _ | Wire.Acceptor_change _ ->
    (* 1Paxos entries never appear in a Cheap Paxos deployment. *)
    ()

let create ~env ~config =
  if config.initial_actives = [] then
    invalid_arg "Cheap_paxos.create: empty active set";
  List.iter
    (fun a ->
      if not (Array.exists (fun id -> id = a) config.replicas) then
        invalid_arg "Cheap_paxos.create: active not in replica set")
    config.initial_actives;
  let t =
    {
      env;
      cfg = config;
      self = env.Node_env.id;
      core = Replica_core.create ~replica:env.Node_env.id;
      pu = None;
      cur_epoch = 0;
      cur_actives = [];
      ready = false;
      covering = false;
      changing = false;
      rounds = Hashtbl.create 256;
      pending = Queue.create ();
      my_keys = Hashtbl.create 64;
      inflight = Hashtbl.create 256;
      next_inst = 0;
      outstanding = Hashtbl.create 64;
      acc_store = Hashtbl.create 1024;
      n_reconfigs = 0;
    }
  in
  let pu =
    Paxos_utility.create ~env ~peers:config.replicas
      ~timeout:config.reconfig_timeout
      ~seed:[ Wire.Epoch_change { actives = config.initial_actives } ]
      ~on_entry:(fun ~cseq entry -> on_config_entry t ~cseq entry)
  in
  t.pu <- Some pu;
  (* The seeded initial epoch is history, not a runtime change. *)
  t.n_reconfigs <- 0;
  t

let start t = fd_loop t
let replica_core t = t.core
let epoch t = t.cur_epoch
let actives t = t.cur_actives
let reconfigs t = t.n_reconfigs

(* Structural fingerprint for the explorer's visited-state table; same
   conventions as {!Onepaxos.digest}: hashtables in sorted key order,
   timestamps relative to the current clock. *)
let digest t =
  let tbl_list tbl =
    Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] |> List.sort compare
  in
  let clock = now t in
  let rounds =
    Hashtbl.fold
      (fun i r l -> (i, r.v, List.sort compare r.acks) :: l)
      t.rounds []
    |> List.sort compare
  in
  let outstanding =
    Hashtbl.fold (fun i at l -> (i, at - clock) :: l) t.outstanding []
    |> List.sort compare
  in
  Hashtbl.hash_param 1000 1000
    ( Replica_core.digest t.core, Paxos_utility.digest (pu t),
      (t.cur_epoch, List.sort compare t.cur_actives, t.ready, t.covering,
       t.changing),
      rounds,
      List.of_seq (Queue.to_seq t.pending),
      tbl_list t.my_keys, tbl_list t.inflight, t.next_inst, outstanding,
      tbl_list t.acc_store )
