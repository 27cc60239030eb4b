(* Per client, results indexed by [req_id]: a client numbers its
   requests densely from 0, so {!Dense} holds them with one word per
   request and no key allocation. A [req_id] far beyond a client's dense
   range goes to a small per-client overflow table instead of stretching
   the array. *)
type client = {
  dense : Command.result Dense.t;
  overflow : (int, Command.result) Hashtbl.t;
}

type t = { clients : (int, client) Hashtbl.t; mutable size : int }

let create () = { clients = Hashtbl.create 16; size = 0 }

(* How far past a client's dense range a [req_id] may land and still
   grow it. *)
let max_jump = 4096

let find t ~client ~req_id =
  match Hashtbl.find_opt t.clients client with
  | None -> None
  | Some c ->
    if Dense.mem c.dense req_id then Some (Dense.get c.dense req_id)
    else if Hashtbl.length c.overflow = 0 then None
    else Hashtbl.find_opt c.overflow req_id

let executed t ~client ~req_id = find t ~client ~req_id <> None

let record t ~client ~req_id r =
  assert (not (executed t ~client ~req_id));
  let c =
    match Hashtbl.find_opt t.clients client with
    | Some c -> c
    | None ->
      let c = { dense = Dense.create (); overflow = Hashtbl.create 1 } in
      Hashtbl.add t.clients client c;
      c
  in
  if req_id < 0 || req_id >= Dense.capacity c.dense + max_jump then
    Hashtbl.add c.overflow req_id r
  else Dense.set c.dense req_id r;
  t.size <- t.size + 1

let size t = t.size
