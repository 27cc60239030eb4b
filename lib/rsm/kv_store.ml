(* The map is a flat open-addressing table of ints: key and data
   interleaved in one array, linear probing from a multiplicative hash,
   at most three quarters full (2.7 to 5.3 words per key, against about
   five for a [Hashtbl]'s bucket and cell). [free] marks an empty slot, so the key [free]
   itself lives beside the table. No command removes a key, so probing
   needs no tombstones. Nothing in it is a pointer: the GC never scans
   it, and an update allocates nothing. *)
let free = min_int

type t = {
  mutable slots : int array; (* 2 * capacity: key, data *)
  mutable bits : int; (* capacity = 2^bits *)
  mutable live : int; (* keys in [slots] *)
  mutable free_key : int option; (* the data of key [free] *)
  locks : (int, int) Hashtbl.t; (* key -> owning txn *)
  staged : (int, int) Hashtbl.t; (* key -> staged data, while locked *)
}

let create () =
  {
    slots = Array.make 32 free;
    bits = 4;
    live = 0;
    free_key = None;
    locks = Hashtbl.create 8;
    staged = Hashtbl.create 8;
  }

(* Fibonacci hashing: the top [bits] bits of the 63-bit product. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr (63 - t.bits)

(* The slot index holding [k], or the free slot where it would go. *)
let rec probe slots mask k i =
  let sk = Array.unsafe_get slots (2 * i) in
  if sk = k || sk = free then i else probe slots mask k ((i + 1) land mask)

let find_slot t k = probe t.slots ((1 lsl t.bits) - 1) k (home t k)

let get t key =
  if key = free then t.free_key
  else
    let i = find_slot t key in
    if t.slots.(2 * i) = key then Some t.slots.((2 * i) + 1) else None

let fold f t acc =
  let acc = ref (match t.free_key with Some v -> f free v acc | None -> acc) in
  for i = 0 to (1 lsl t.bits) - 1 do
    let k = t.slots.(2 * i) in
    if k <> free then acc := f k t.slots.((2 * i) + 1) !acc
  done;
  !acc

let rec put t key data =
  if key = free then t.free_key <- Some data
  else begin
    let i = find_slot t key in
    if t.slots.(2 * i) = key then t.slots.((2 * i) + 1) <- data
    else if 4 * (t.live + 1) > 3 lsl t.bits then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) free;
      t.bits <- t.bits + 1;
      t.live <- 0;
      for j = 0 to (Array.length old / 2) - 1 do
        if old.(2 * j) <> free then put t old.(2 * j) old.((2 * j) + 1)
      done;
      put t key data
    end
    else begin
      t.slots.(2 * i) <- key;
      t.slots.((2 * i) + 1) <- data;
      t.live <- t.live + 1
    end
  end

let range t ~lo ~hi =
  (* O(live keys), independent of the span width, so a scan over a
     sparse billion-key span costs what the store holds, not the span. *)
  fold (fun k v acc -> if k >= lo && k < hi then (k, v) :: acc else acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let apply t (c : Command.t) : Command.result =
  match c with
  | Put { key; data } ->
    put t key data;
    Done
  | Get { key } -> Found (get t key)
  | Cas { key; expect; data } ->
    (match get t key with
     | Some v when v = expect ->
       put t key data;
       Swapped true
     | Some _ | None -> Swapped false)
  | Nop -> Done
  | Mput { k1; d1; k2; d2 } ->
    put t k1 d1;
    put t k2 d2;
    Done
  | Prep { txn; key; data } ->
    (* The 2PC lock lives in the replicated state, not in any node's
       volatile memory: every replica of the shard reaches the same
       lock table by executing the same log. Re-preparing under the
       same transaction is an idempotent retry. *)
    (match Hashtbl.find_opt t.locks key with
     | Some owner when owner <> txn -> Swapped false
     | Some _ | None ->
       Hashtbl.replace t.locks key txn;
       Hashtbl.replace t.staged key data;
       Swapped true)
  | Fin { txn; key; commit } ->
    (match Hashtbl.find_opt t.locks key with
     | Some owner when owner = txn ->
       (if commit then
          match Hashtbl.find_opt t.staged key with
          | Some data -> put t key data
          | None -> ());
       Hashtbl.remove t.locks key;
       Hashtbl.remove t.staged key;
       Done
     | Some _ | None -> Done (* duplicate or foreign finish: no-op *))
  | Range { lo; hi } -> Vals (range t ~lo ~hi)

let size t = t.live + if t.free_key = None then 0 else 1

let locked_keys t = Hashtbl.length t.locks

let lock_owner t key = Hashtbl.find_opt t.locks key

(* Locks and staged writes are part of the replicated state, so they
   must be part of the fingerprint: two replicas that diverge only in
   their lock tables have executed different logs. Distinct salts keep
   a lock from cancelling against a store entry. *)
let fingerprint t =
  let mix salt k v acc = acc lxor Hashtbl.hash (k, v, salt) in
  fold (mix 0x9e3779b9) t 0
  |> Hashtbl.fold (mix 0x517cc1b7) t.locks
  |> Hashtbl.fold (mix 0x27220a95) t.staged

let snapshot t =
  fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
