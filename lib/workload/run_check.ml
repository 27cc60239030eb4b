module Wire = Ci_consensus.Wire
module Shard = Ci_consensus.Shard
module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Atomicity = Ci_rsm.Atomicity
module Op_log = Ci_rsm.Op_log
module Vec = Ci_rsm.Vec

type source = { node : int; issued : Command.t Vec.t; acked : int Vec.t }

let of_driver d =
  {
    node = Ci_load.Open_client.node_id d;
    issued = Ci_load.Open_client.issued d;
    acked = Ci_load.Open_client.acked_writes d;
  }

let of_participant ~node p =
  { node; issued = Ci_consensus.Twopc.Participant.issued p; acked = Vec.create () }

let issued_cmd by_node ~client ~req_id =
  match Hashtbl.find_opt by_node client with
  | Some issued when req_id >= 0 && req_id < Vec.length issued ->
    Some (Vec.get issued req_id)
  | Some _ | None -> None

let proposed sources =
  let by_node = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_node s.node s.issued) sources;
  fun (v : Wire.value) ->
    Ci_consensus.Mencius.is_skip_value v
    ||
    match issued_cmd by_node ~client:v.Wire.client ~req_id:v.Wire.req_id with
    | Some cmd -> Command.equal cmd v.Wire.cmd
    | None -> false

let check_group ~proposed ~acked views =
  Consistency.check ~equal:Wire.value_equal ~proposed ~acked
    ~key_of:Wire.value_key views

let check ~sources ~views ~groups ~group_of_replica ~txns =
  let proposed = proposed sources in
  if groups = 1 then
    ( check_group ~proposed
        ~acked:(List.map (fun s -> (s.node, s.acked)) sources)
        (Array.to_list views),
      None )
  else begin
    (* Split each source's acked writes: cross-shard ones to the
       atomicity checker, single-shard ones to their owning group. *)
    let cross_acked = ref [] in
    let acked_of = Array.init groups (fun _ -> ref []) in
    List.iter
      (fun s ->
        let per_group = Array.init groups (fun _ -> Vec.create ()) in
        Vec.iter
          (fun req_id ->
            let cmd = Vec.get s.issued req_id in
            match Shard.groups_of ~groups cmd with
            | _ :: _ :: _ -> cross_acked := (s.node, req_id) :: !cross_acked
            | [ _ ] | [] ->
              Vec.push per_group.(Shard.group_of_cmd ~groups cmd) req_id)
          s.acked;
        Array.iteri
          (fun g reqs -> acked_of.(g) := (s.node, reqs) :: !(acked_of.(g)))
          per_group)
      sources;
    let group_views g =
      List.filteri (fun i _ -> group_of_replica i = g) (Array.to_list views)
    in
    let reports =
      List.init groups (fun g ->
          check_group ~proposed ~acked:(List.rev !(acked_of.(g))) (group_views g))
    in
    let consistency =
      {
        Consistency.violations =
          List.concat_map (fun (r : Consistency.report) -> r.violations) reports;
        checked_instances =
          List.fold_left
            (fun a (r : Consistency.report) -> a + r.checked_instances)
            0 reports;
        checked_replicas =
          List.fold_left
            (fun a (r : Consistency.report) -> a + r.checked_replicas)
            0 reports;
      }
    in
    (* The atomicity check reads each group's decided 2PC commands off
       the union of its replicas' logs (agreement inside the group was
       just checked, so the union is one consistent sequence). *)
    let decided =
      List.init groups (fun g ->
          let cmds = ref [] in
          List.iter
            (fun (rv : Wire.value Consistency.replica_view) ->
              Op_log.iter rv.log (fun _ (v : Wire.value) ->
                  match v.cmd with
                  | Command.Prep _ | Command.Fin _ -> cmds := v.cmd :: !cmds
                  | Command.Put _ | Command.Get _ | Command.Cas _ | Command.Nop
                  | Command.Mput _ | Command.Range _ -> ()))
            (group_views g);
          (g, List.rev !cmds))
    in
    ( consistency,
      Some (Atomicity.check ~decided ~txns ~acked:(List.rev !cross_acked)) )
  end
