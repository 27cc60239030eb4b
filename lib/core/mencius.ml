module Node_env = Ci_engine.Node_env
module Command = Ci_rsm.Command

type config = { replicas : int array; skip_lag : int; relaxed_reads : bool }

let default_config ~replicas =
  if Array.length replicas < 1 then
    invalid_arg "Mencius.default_config: need at least one replica";
  { replicas; skip_lag = 0; relaxed_reads = false }

(* The deterministic placeholder a skipped slot decides: every replica
   derives the same value from the instance number alone. *)
let skip_value inst = { Wire.client = -1; req_id = inst; cmd = Command.Nop }

let is_skip_value (v : Wire.value) =
  v.Wire.client = -1 && Command.equal v.Wire.cmd Command.Nop

type tally = { v : Wire.value option; mutable srcs : int list }

type t = {
  env : Wire.t Node_env.t;
  cfg : config;
  self : int;
  index : int; (* my ownership class *)
  n : int;
  core : Replica_core.t;
  (* Owner side. *)
  mutable own_cursor : int; (* smallest owned instance not yet used or ceded *)
  mutable frontier : int; (* one past the highest instance seen proposed *)
  my_keys : (int * int, unit) Hashtbl.t;
  inflight : (int * int, int) Hashtbl.t;
  mutable n_skips : int;
  mutable n_used : int;
  (* Acceptor side. *)
  accepted : (int, Wire.value option) Hashtbl.t;
  (* Learner side. *)
  tallies : (int, tally) Hashtbl.t;
}

let majority t = (t.n / 2) + 1
let send t dst msg = t.env.Node_env.send ~dst msg
let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.cfg.replicas

let reply_if_mine t (ex : Replica_core.executed) =
  let key = Wire.value_key ex.v in
  if Hashtbl.mem t.my_keys key then begin
    Hashtbl.remove t.my_keys key;
    send t ex.v.Wire.client (Wire.Reply { req_id = ex.v.Wire.req_id; result = ex.result })
  end

let decide t ~inst v_opt =
  let v = match v_opt with Some v -> v | None -> skip_value inst in
  Hashtbl.remove t.inflight (Wire.value_key v);
  let executed = Replica_core.learn t.core ~inst v in
  List.iter (reply_if_mine t) executed

(* Cede every unused owned slot sitting more than [skip_lag] behind the
   frontier, so the log can execute past us. *)
let rec maybe_skip t =
  if t.own_cursor + t.cfg.skip_lag < t.frontier then begin
    let inst = t.own_cursor in
    t.own_cursor <- t.own_cursor + t.n;
    t.n_skips <- t.n_skips + 1;
    broadcast t (Wire.Mn_accept { inst; v = None });
    maybe_skip t
  end

let observe_frontier t inst =
  if inst >= t.frontier then begin
    t.frontier <- inst + 1;
    maybe_skip t
  end

let propose_value t v =
  let key = Wire.value_key v in
  Hashtbl.replace t.my_keys key ();
  match Replica_core.cached_result t.core ~client:(fst key) ~req_id:(snd key) with
  | Some result ->
    Hashtbl.remove t.my_keys key;
    send t v.Wire.client (Wire.Reply { req_id = v.Wire.req_id; result })
  | None ->
    if not (Hashtbl.mem t.inflight key) then begin
      let inst = t.own_cursor in
      t.own_cursor <- t.own_cursor + t.n;
      t.n_used <- t.n_used + 1;
      Hashtbl.replace t.inflight key inst;
      broadcast t (Wire.Mn_accept { inst; v = Some v });
      observe_frontier t inst
    end

let handle_request t ~src ~req_id ~cmd ~relaxed_read =
  if relaxed_read && t.cfg.relaxed_reads && Command.is_read cmd then
    match Replica_core.local_read t.core cmd with
    | Some result -> send t src (Wire.Reply { req_id; result })
    | None -> ()
  else propose_value t { Wire.client = src; req_id; cmd }

let on_accept t ~inst v_opt =
  observe_frontier t inst;
  (match Hashtbl.find_opt t.accepted inst with
   | Some _ -> () (* owners never re-propose differently; idempotent *)
   | None -> Hashtbl.add t.accepted inst v_opt);
  match Hashtbl.find_opt t.accepted inst with
  | Some v -> broadcast t (Wire.Mn_learn { inst; v })
  | None -> ()

let on_learn t ~src ~inst v_opt =
  observe_frontier t inst;
  if not (Replica_core.is_decided t.core ~inst) then begin
    let tl =
      match Hashtbl.find_opt t.tallies inst with
      | Some tl -> tl
      | None ->
        let tl = { v = v_opt; srcs = [] } in
        Hashtbl.add t.tallies inst tl;
        tl
    in
    if not (List.mem src tl.srcs) then begin
      tl.srcs <- src :: tl.srcs;
      if List.length tl.srcs >= majority t then begin
        Hashtbl.remove t.tallies inst;
        decide t ~inst tl.v
      end
    end
  end

let handle t ~src msg =
  match msg with
  | Wire.Request { req_id; cmd; relaxed_read } ->
    handle_request t ~src ~req_id ~cmd ~relaxed_read
  | Wire.Forward { v } -> propose_value t v
  | Wire.Mn_accept { inst; v } -> on_accept t ~inst v
  | Wire.Mn_learn { inst; v } -> on_learn t ~src ~inst v
  | Wire.Reply _ | Wire.Op_prepare_request _ | Wire.Op_prepare_response _
  | Wire.Op_abandon _ | Wire.Op_accept_request _ | Wire.Op_learn _
  | Wire.Pu_prepare _ | Wire.Pu_promise _ | Wire.Pu_reject _ | Wire.Pu_accept _
  | Wire.Pu_accepted _ | Wire.Pu_nack _ | Wire.Pu_learn _ | Wire.Pu_read _
  | Wire.Pu_read_reply _ | Wire.Ls_req _ | Wire.Ls_reply _
  | Wire.Mp_prepare _ | Wire.Mp_promise _ | Wire.Mp_reject _ | Wire.Mp_accept _
  | Wire.Mp_learn _ | Wire.Op_accept_batch _ | Wire.Op_learn_batch _ | Wire.Mp_accept_batch _ | Wire.Mp_learn_batch _ | Wire.Cp_accept _ | Wire.Cp_accepted _ | Wire.Cp_learn _
  | Wire.Cp_state _ | Wire.Tp_prepare _ | Wire.Tp_ack _ | Wire.Tp_commit _
  | Wire.Tp_commit_ack _ | Wire.Tp_rollback _ | Wire.Tp_nack _ | Wire.Le_renew _
  | Wire.Le_grant _ ->
    ()

let create ~env ~config =
  let self = env.Node_env.id in
  let index =
    match Array.find_index (fun id -> id = self) config.replicas with
    | Some i -> i
    | None -> invalid_arg "Mencius.create: node not in the replica set"
  in
  {
    env;
    cfg = config;
    self;
    index;
    n = Array.length config.replicas;
    core = Replica_core.create ~replica:self;
    own_cursor = index;
    frontier = 0;
    my_keys = Hashtbl.create 64;
    inflight = Hashtbl.create 256;
    n_skips = 0;
    n_used = 0;
    accepted = Hashtbl.create 1024;
    tallies = Hashtbl.create 1024;
  }

let replica_core t = t.core
let skips_proposed t = t.n_skips
let owned_used t = t.n_used

(* Structural fingerprint for the explorer's visited-state table;
   hashtables in sorted key order (see {!Onepaxos.digest}). *)
let digest t =
  let tbl_list tbl =
    Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] |> List.sort compare
  in
  let tallies =
    Hashtbl.fold
      (fun i tl l -> (i, tl.v, List.sort compare tl.srcs) :: l)
      t.tallies []
    |> List.sort compare
  in
  Hashtbl.hash_param 1000 1000
    ( Replica_core.digest t.core, t.own_cursor, t.frontier,
      tbl_list t.my_keys, tbl_list t.inflight, tbl_list t.accepted, tallies )
