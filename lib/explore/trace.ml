type protocol = Ci_consensus.Protocol.name =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos

type config = {
  protocol : protocol;
  n_replicas : int;
  n_clients : int;
  n_commands : int;
  seed : int;
  drop_budget : int;
  crash_budget : int;
  fire_budget : int;
  unsafe_stale_adoption : bool;
}

let default_config ~protocol =
  {
    protocol;
    n_replicas = 3;
    n_clients = 1;
    n_commands = 2;
    seed = 1;
    drop_budget = 0;
    crash_budget = 0;
    fire_budget = 4;
    unsafe_stale_adoption = false;
  }

let validate_config c =
  if c.n_replicas < 2 || c.n_replicas > 7 then
    Error "replicas must be in 2..7"
  else if c.n_clients < 1 || c.n_clients > 4 then Error "clients must be in 1..4"
  else if c.n_commands < 1 || c.n_commands > 8 then
    Error "commands must be in 1..8"
  else if c.drop_budget < 0 || c.crash_budget < 0 || c.fire_budget < 0 then
    Error "budgets must be non-negative"
  else Ok ()

type choice =
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int }
  | Fire of { node : int }
  | Crash of { node : int }

let choice_to_line = function
  | Deliver { src; dst } -> Printf.sprintf "deliver %d %d" src dst
  | Drop { src; dst } -> Printf.sprintf "drop %d %d" src dst
  | Fire { node } -> Printf.sprintf "fire %d" node
  | Crash { node } -> Printf.sprintf "crash %d" node

let choice_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "deliver"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some src, Some dst -> Some (Deliver { src; dst })
    | _ -> None)
  | [ "drop"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some src, Some dst -> Some (Drop { src; dst })
    | _ -> None)
  | [ "fire"; a ] -> (
    match int_of_string_opt a with Some node -> Some (Fire { node }) | None -> None)
  | [ "crash"; a ] -> (
    match int_of_string_opt a with Some node -> Some (Crash { node }) | None -> None)
  | _ -> None

let pp_choice fmt c = Format.pp_print_string fmt (choice_to_line c)

let config_to_line c =
  Printf.sprintf
    "config proto=%s replicas=%d clients=%d commands=%d seed=%d drops=%d \
     crashes=%d fires=%d stale_adoption=%b"
    (Ci_consensus.Protocol.to_string c.protocol)
    c.n_replicas c.n_clients c.n_commands c.seed c.drop_budget c.crash_budget
    c.fire_budget c.unsafe_stale_adoption

let config_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | "config" :: fields -> (
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun f ->
        match String.index_opt f '=' with
        | Some i ->
          Hashtbl.replace tbl
            (String.sub f 0 i)
            (String.sub f (i + 1) (String.length f - i - 1))
        | None -> ())
      fields;
    let int_field k = Option.bind (Hashtbl.find_opt tbl k) int_of_string_opt in
    let bool_field k = Option.bind (Hashtbl.find_opt tbl k) bool_of_string_opt in
    match
      ( Option.bind (Hashtbl.find_opt tbl "proto") Ci_consensus.Protocol.of_string,
        int_field "replicas", int_field "clients", int_field "commands",
        int_field "seed", int_field "drops", int_field "crashes",
        int_field "fires", bool_field "stale_adoption" )
    with
    | ( Some protocol, Some n_replicas, Some n_clients, Some n_commands,
        Some seed, Some drop_budget, Some crash_budget, Some fire_budget,
        Some unsafe_stale_adoption ) ->
      Some
        { protocol; n_replicas; n_clients; n_commands; seed; drop_budget;
          crash_budget; fire_budget; unsafe_stale_adoption }
    | _ -> None)
  | _ -> None

let magic = "# consensus-explore trace v1"

let to_string ~config choices =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b (config_to_line config);
  Buffer.add_char b '\n';
  List.iter
    (fun c ->
      Buffer.add_string b (choice_to_line c);
      Buffer.add_char b '\n')
    choices;
  Buffer.contents b

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | m :: cfg :: rest when m = magic -> (
    match config_of_line cfg with
    | None -> Error "unparseable config line"
    | Some config ->
      let rec go acc = function
        | [] -> Ok (config, List.rev acc)
        | l :: tl when String.length l > 0 && l.[0] = '#' -> go acc tl
        | l :: tl -> (
          match choice_of_line l with
          | Some c -> go (c :: acc) tl
          | None -> Error (Printf.sprintf "unparseable choice line %S" l))
      in
      go [] rest)
  | _ -> Error "missing trace header"

(* FNV-1a, 64-bit. Folded over the serialized choice lines so the hash
   is a pure function of the schedule, not of in-memory representation. *)
let hash choices =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed_char c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime
  in
  List.iter
    (fun c ->
      String.iter feed_char (choice_to_line c);
      feed_char '\n')
    choices;
  !h

let hash_hex choices = Printf.sprintf "%016Lx" (hash choices)
