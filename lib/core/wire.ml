module Command = Ci_rsm.Command

type value = { client : int; req_id : int; cmd : Command.t }

let value_equal a b =
  a.client = b.client && a.req_id = b.req_id && Command.equal a.cmd b.cmd

let value_key v = (v.client, v.req_id)

let pp_value fmt v =
  Format.fprintf fmt "c%d#%d:%a" v.client v.req_id Command.pp v.cmd

type config_entry =
  | Leader_change of { leader : int; acceptor : int }
  | Acceptor_change of { acceptor : int; carried : (int * value) list }
  | Epoch_change of { actives : int list }

let config_entry_equal a b =
  match a, b with
  | Leader_change x, Leader_change y ->
    x.leader = y.leader && x.acceptor = y.acceptor
  | Acceptor_change x, Acceptor_change y ->
    x.acceptor = y.acceptor
    && List.length x.carried = List.length y.carried
    && List.for_all2
         (fun (i, v) (j, w) -> i = j && value_equal v w)
         x.carried y.carried
  | Epoch_change x, Epoch_change y -> x.actives = y.actives
  | (Leader_change _ | Acceptor_change _ | Epoch_change _), _ -> false

let pp_config_entry fmt = function
  | Leader_change { leader; acceptor } ->
    Format.fprintf fmt "leader:=%d(acc %d)" leader acceptor
  | Acceptor_change { acceptor; carried } ->
    Format.fprintf fmt "acceptor:=%d(+%d carried)" acceptor (List.length carried)
  | Epoch_change { actives } ->
    Format.fprintf fmt "actives:=[%s]"
      (String.concat ";" (List.map string_of_int actives))

type t =
  | Request of { req_id : int; cmd : Command.t; relaxed_read : bool }
  | Reply of { req_id : int; result : Command.result }
  | Forward of { v : value }
  | Op_prepare_request of { pn : Pn.t; must_be_fresh : bool; low : int }
  | Op_prepare_response of { pn : Pn.t; accepted : (int * (Pn.t * value)) list }
  | Op_abandon of { hpn : Pn.t }
  | Op_accept_request of { inst : int; pn : Pn.t; v : value }
  | Op_learn of { inst : int; v : value }
  | Op_accept_batch of { base : int; pn : Pn.t; vs : value array }
  | Op_learn_batch of { base : int; vs : value array }
  | Pu_prepare of { cseq : int; pn : Pn.t }
  | Pu_promise of {
      cseq : int;
      pn : Pn.t;
      accepted : (Pn.t * config_entry) option;
      chosen_suffix : (int * config_entry) list;
    }
  | Pu_reject of { cseq : int; pn : Pn.t; chosen_suffix : (int * config_entry) list }
  | Pu_accept of { cseq : int; pn : Pn.t; entry : config_entry }
  | Pu_accepted of { cseq : int; pn : Pn.t }
  | Pu_nack of { cseq : int; pn : Pn.t }
  | Pu_learn of { cseq : int; entry : config_entry }
  | Pu_read of { token : int; from_ : int }
  | Pu_read_reply of { token : int; chosen_suffix : (int * config_entry) list }
  | Ls_req of { token : int; from_ : int }
  | Ls_reply of { token : int; decisions : (int * value) list }
  | Mp_prepare of { pn : Pn.t; low : int }
  | Mp_promise of { pn : Pn.t; accepted : (int * (Pn.t * value)) list }
  | Mp_reject of { pn : Pn.t }
  | Mp_accept of { inst : int; pn : Pn.t; v : value }
  | Mp_learn of { inst : int; pn : Pn.t; v : value }
  | Mp_accept_batch of { base : int; pn : Pn.t; vs : value array }
  | Mp_learn_batch of { base : int; pn : Pn.t; vs : value array }
  | Mn_accept of { inst : int; v : value option }
  | Mn_learn of { inst : int; v : value option }
  | Cp_accept of { epoch : int; inst : int; v : value }
  | Cp_accepted of { epoch : int; inst : int; v : value }
  | Cp_learn of { epoch : int; inst : int; v : value }
  | Cp_state of { epoch : int; accepted : (int * value) list }
  | Tp_prepare of { inst : int; v : value }
  | Tp_ack of { inst : int }
  | Tp_commit of { inst : int; v : value }
  | Tp_commit_ack of { inst : int }
  | Tp_rollback of { inst : int }
  | Tp_nack of { inst : int }
  | Le_renew of { pn : Pn.t; sent : int }
      (** Leader -> replicas: extend my read lease. [sent] is the
          leader's own clock at transmission; the grant echoes it so the
          leader never compares clocks across nodes. *)
  | Le_grant of { pn : Pn.t; sent : int }
      (** Replica -> leader: granted. The grantee promises not to help
          elect another leader until [lease] after its own receipt. *)

let pp fmt = function
  | Request { req_id; cmd; relaxed_read } ->
    Format.fprintf fmt "request#%d %a%s" req_id Command.pp cmd
      (if relaxed_read then " (relaxed)" else "")
  | Reply { req_id; result } ->
    Format.fprintf fmt "reply#%d %a" req_id Command.pp_result result
  | Forward { v } -> Format.fprintf fmt "forward %a" pp_value v
  | Op_prepare_request { pn; must_be_fresh; low } ->
    Format.fprintf fmt "op.prepare pn=%a fresh=%b low=%d" Pn.pp pn must_be_fresh
      low
  | Op_prepare_response { pn; accepted } ->
    Format.fprintf fmt "op.prepare-resp pn=%a |ap|=%d" Pn.pp pn
      (List.length accepted)
  | Op_abandon { hpn } -> Format.fprintf fmt "op.abandon hpn=%a" Pn.pp hpn
  | Op_accept_request { inst; pn; v } ->
    Format.fprintf fmt "op.accept i=%d pn=%a %a" inst Pn.pp pn pp_value v
  | Op_learn { inst; v } ->
    Format.fprintf fmt "op.learn i=%d %a" inst pp_value v
  | Op_accept_batch { base; pn; vs } ->
    Format.fprintf fmt "op.accept-batch i=%d..%d pn=%a" base
      (base + Array.length vs - 1)
      Pn.pp pn
  | Op_learn_batch { base; vs } ->
    Format.fprintf fmt "op.learn-batch i=%d..%d" base
      (base + Array.length vs - 1)
  | Pu_prepare { cseq; pn } ->
    Format.fprintf fmt "pu.prepare c=%d pn=%a" cseq Pn.pp pn
  | Pu_promise { cseq; pn; accepted; chosen_suffix } ->
    Format.fprintf fmt "pu.promise c=%d pn=%a acc=%b suffix=%d" cseq Pn.pp pn
      (accepted <> None)
      (List.length chosen_suffix)
  | Pu_reject { cseq; pn; chosen_suffix } ->
    Format.fprintf fmt "pu.reject c=%d pn=%a suffix=%d" cseq Pn.pp pn
      (List.length chosen_suffix)
  | Pu_accept { cseq; pn; entry } ->
    Format.fprintf fmt "pu.accept c=%d pn=%a %a" cseq Pn.pp pn pp_config_entry
      entry
  | Pu_accepted { cseq; pn } ->
    Format.fprintf fmt "pu.accepted c=%d pn=%a" cseq Pn.pp pn
  | Pu_nack { cseq; pn } -> Format.fprintf fmt "pu.nack c=%d pn=%a" cseq Pn.pp pn
  | Pu_learn { cseq; entry } ->
    Format.fprintf fmt "pu.learn c=%d %a" cseq pp_config_entry entry
  | Pu_read { token; from_ } -> Format.fprintf fmt "pu.read t=%d from=%d" token from_
  | Pu_read_reply { token; chosen_suffix } ->
    Format.fprintf fmt "pu.read-reply t=%d suffix=%d" token
      (List.length chosen_suffix)
  | Ls_req { token; from_ } -> Format.fprintf fmt "ls.req t=%d from=%d" token from_
  | Ls_reply { token; decisions } ->
    Format.fprintf fmt "ls.reply t=%d |d|=%d" token (List.length decisions)
  | Mp_prepare { pn; low } -> Format.fprintf fmt "mp.prepare pn=%a low=%d" Pn.pp pn low
  | Mp_promise { pn; accepted } ->
    Format.fprintf fmt "mp.promise pn=%a |ap|=%d" Pn.pp pn (List.length accepted)
  | Mp_reject { pn } -> Format.fprintf fmt "mp.reject pn=%a" Pn.pp pn
  | Mp_accept { inst; pn; v } ->
    Format.fprintf fmt "mp.accept i=%d pn=%a %a" inst Pn.pp pn pp_value v
  | Mp_learn { inst; pn; v } ->
    Format.fprintf fmt "mp.learn i=%d pn=%a %a" inst Pn.pp pn pp_value v
  | Mp_accept_batch { base; pn; vs } ->
    Format.fprintf fmt "mp.accept-batch i=%d..%d pn=%a" base
      (base + Array.length vs - 1)
      Pn.pp pn
  | Mp_learn_batch { base; pn; vs } ->
    Format.fprintf fmt "mp.learn-batch i=%d..%d pn=%a" base
      (base + Array.length vs - 1)
      Pn.pp pn
  | Mn_accept { inst; v = Some v } ->
    Format.fprintf fmt "mn.accept i=%d %a" inst pp_value v
  | Mn_accept { inst; v = None } -> Format.fprintf fmt "mn.accept i=%d skip" inst
  | Mn_learn { inst; v = Some v } ->
    Format.fprintf fmt "mn.learn i=%d %a" inst pp_value v
  | Mn_learn { inst; v = None } -> Format.fprintf fmt "mn.learn i=%d skip" inst
  | Cp_accept { epoch; inst; v } ->
    Format.fprintf fmt "cp.accept e=%d i=%d %a" epoch inst pp_value v
  | Cp_accepted { epoch; inst; v } ->
    Format.fprintf fmt "cp.accepted e=%d i=%d %a" epoch inst pp_value v
  | Cp_learn { epoch; inst; v } ->
    Format.fprintf fmt "cp.learn e=%d i=%d %a" epoch inst pp_value v
  | Cp_state { epoch; accepted } ->
    Format.fprintf fmt "cp.state e=%d |acc|=%d" epoch (List.length accepted)
  | Tp_prepare { inst; v } ->
    Format.fprintf fmt "2pc.prepare i=%d %a" inst pp_value v
  | Tp_ack { inst } -> Format.fprintf fmt "2pc.ack i=%d" inst
  | Tp_commit { inst; v } -> Format.fprintf fmt "2pc.commit i=%d %a" inst pp_value v
  | Tp_commit_ack { inst } -> Format.fprintf fmt "2pc.commit-ack i=%d" inst
  | Tp_rollback { inst } -> Format.fprintf fmt "2pc.rollback i=%d" inst
  | Tp_nack { inst } -> Format.fprintf fmt "2pc.nack i=%d" inst
  | Le_renew { pn; sent } ->
    Format.fprintf fmt "le.renew pn=%a sent=%d" Pn.pp pn sent
  | Le_grant { pn; sent } ->
    Format.fprintf fmt "le.grant pn=%a sent=%d" Pn.pp pn sent

let kind = function
  | Request _ -> "Request"
  | Reply _ -> "Reply"
  | Forward _ -> "Forward"
  | Op_prepare_request _ -> "Op_prepare_request"
  | Op_prepare_response _ -> "Op_prepare_response"
  | Op_abandon _ -> "Op_abandon"
  | Op_accept_request _ -> "Op_accept_request"
  | Op_learn _ -> "Op_learn"
  | Op_accept_batch _ -> "Op_accept_batch"
  | Op_learn_batch _ -> "Op_learn_batch"
  | Pu_prepare _ -> "Pu_prepare"
  | Pu_promise _ -> "Pu_promise"
  | Pu_reject _ -> "Pu_reject"
  | Pu_accept _ -> "Pu_accept"
  | Pu_accepted _ -> "Pu_accepted"
  | Pu_nack _ -> "Pu_nack"
  | Pu_learn _ -> "Pu_learn"
  | Pu_read _ -> "Pu_read"
  | Pu_read_reply _ -> "Pu_read_reply"
  | Ls_req _ -> "Ls_req"
  | Ls_reply _ -> "Ls_reply"
  | Mp_prepare _ -> "Mp_prepare"
  | Mp_promise _ -> "Mp_promise"
  | Mp_reject _ -> "Mp_reject"
  | Mp_accept _ -> "Mp_accept"
  | Mp_learn _ -> "Mp_learn"
  | Mp_accept_batch _ -> "Mp_accept_batch"
  | Mp_learn_batch _ -> "Mp_learn_batch"
  | Mn_accept _ -> "Mn_accept"
  | Mn_learn _ -> "Mn_learn"
  | Cp_accept _ -> "Cp_accept"
  | Cp_accepted _ -> "Cp_accepted"
  | Cp_learn _ -> "Cp_learn"
  | Cp_state _ -> "Cp_state"
  | Tp_prepare _ -> "Tp_prepare"
  | Tp_ack _ -> "Tp_ack"
  | Tp_commit _ -> "Tp_commit"
  | Tp_commit_ack _ -> "Tp_commit_ack"
  | Tp_rollback _ -> "Tp_rollback"
  | Tp_nack _ -> "Tp_nack"
  | Le_renew _ -> "Le_renew"
  | Le_grant _ -> "Le_grant"
