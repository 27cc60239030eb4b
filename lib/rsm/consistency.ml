type 'v replica_view = {
  replica : int;
  log : 'v Op_log.t;
  fingerprint : int;
  executed_prefix : int;
}

type violation =
  | Disagreement of { inst : int; a : int; b : int }
  | Unproposed of { replica : int; inst : int }
  | Fingerprint_mismatch of { a : int; b : int; prefix : int }
  | Lost_ack of { client : int; req_id : int }

type report = {
  violations : violation list;
  checked_instances : int;
  checked_replicas : int;
}

let ok r = r.violations = []

(* [learned] marks, per acking client, the req_ids some log holds. *)
let lost_acks ~acked ~key_of views add =
  let learned = Hashtbl.create 16 in
  List.iter
    (fun (client, _) ->
      if not (Hashtbl.mem learned client) then Hashtbl.add learned client (Dense.create ()))
    acked;
  List.iter
    (fun view ->
      Op_log.iter view.log (fun _ v ->
          let client, r = key_of v in
          match Hashtbl.find_opt learned client with
          | Some seen when r >= 0 -> Dense.set seen r ()
          | Some _ | None -> ()))
    views;
  List.iter
    (fun (client, reqs) ->
      let seen = Hashtbl.find learned client in
      Vec.iter
        (fun req_id -> if not (Dense.mem seen req_id) then add (Lost_ack { client; req_id }))
        reqs)
    acked

let check ~equal ~proposed ~acked ~key_of views =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let arr = Array.of_list views in
  (* Agreement: the first view (in list order) that decided an instance
     is its reference; every later view is compared against it. *)
  let checked = ref 0 in
  Array.iteri
    (fun k view ->
      Op_log.iter view.log (fun inst v ->
          let rec reference j =
            if j >= k then None
            else
              match Op_log.get arr.(j).log ~inst with
              | Some v0 -> Some (arr.(j).replica, v0)
              | None -> reference (j + 1)
          in
          match reference 0 with
          | None -> incr checked
          | Some (owner, v0) ->
            if not (equal v0 v) then
              add (Disagreement { inst; a = owner; b = view.replica })))
    arr;
  (* Non-triviality. *)
  Array.iter
    (fun view ->
      Op_log.iter view.log (fun inst v ->
          if not (proposed v) then add (Unproposed { replica = view.replica; inst })))
    arr;
  (* State convergence among replicas with equal executed prefixes. *)
  let by_prefix = Hashtbl.create 16 in
  Array.iter
    (fun view ->
      match Hashtbl.find_opt by_prefix view.executed_prefix with
      | None -> Hashtbl.add by_prefix view.executed_prefix view
      | Some other ->
        if other.fingerprint <> view.fingerprint then
          add
            (Fingerprint_mismatch
               { a = other.replica; b = view.replica; prefix = view.executed_prefix }))
    arr;
  (* Session integrity: every acked request was learned somewhere. *)
  if acked <> [] then lost_acks ~acked ~key_of views add;
  {
    violations = List.rev !violations;
    checked_instances = !checked;
    checked_replicas = Array.length arr;
  }

let pp_violation fmt = function
  | Disagreement { inst; a; b } ->
    Format.fprintf fmt "disagreement at instance %d between replicas %d and %d"
      inst a b
  | Unproposed { replica; inst } ->
    Format.fprintf fmt "replica %d learned an unproposed value at instance %d"
      replica inst
  | Fingerprint_mismatch { a; b; prefix } ->
    Format.fprintf fmt
      "replicas %d and %d diverge in state after executing %d instances" a b
      prefix
  | Lost_ack { client; req_id } ->
    Format.fprintf fmt "client %d request %d was acknowledged but never learned"
      client req_id

let pp fmt r =
  if ok r then
    Format.fprintf fmt "consistent (%d instances across %d replicas)"
      r.checked_instances r.checked_replicas
  else begin
    Format.fprintf fmt "%d violation(s):@." (List.length r.violations);
    List.iter (fun v -> Format.fprintf fmt "  - %a@." pp_violation v) r.violations
  end
