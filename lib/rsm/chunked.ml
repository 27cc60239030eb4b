(* Chunk [c] of [dir] covers indices [c * size, (c + 1) * size); a
   chunk nothing was stored in is the shared empty array. Only chunk 0
   is ever shorter than [size]: it doubles from [first] as indices
   arrive, so a small history costs a small array. A chunk is filled
   with the first value stored in it, so no dummy ['a] is needed. *)
let bits = 12
let size = 1 lsl bits
let mask = size - 1
let first = 16

type 'a t = { mutable dir : 'a array array; mutable prefix : int }

let create () = { dir = [||]; prefix = 0 }

let covers t i =
  i >= 0
  &&
  let c = i lsr bits in
  c < Array.length t.dir && i land mask < Array.length (Array.unsafe_get t.dir c)

let get t i = t.dir.(i lsr bits).(i land mask)
let capacity t = t.prefix

(* The contiguous covered prefix, recounted after each chunk
   allocation: those are at most one per [size] indices stored. *)
let recount t =
  let n = Array.length t.dir in
  let len0 = if n = 0 then 0 else Array.length t.dir.(0) in
  if len0 < size then t.prefix <- len0
  else begin
    let c = ref 1 in
    while !c < n && Array.length t.dir.(!c) > 0 do
      incr c
    done;
    t.prefix <- !c * size
  end

let rec doubled len j = if len > j then len else doubled (2 * len) j

let extend t i x =
  let c = i lsr bits in
  let n = Array.length t.dir in
  if c >= n then begin
    let dir = Array.make (max (c + 1) (2 * n)) [||] in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  let old = t.dir.(c) in
  let chunk =
    if c > 0 then Array.make size x
    else begin
      let chunk = Array.make (min size (doubled (max first (2 * Array.length old)) i)) x in
      Array.blit old 0 chunk 0 (Array.length old);
      chunk
    end
  in
  t.dir.(c) <- chunk;
  recount t

let set t i x =
  if i < 0 then invalid_arg "Chunked.set: negative index";
  if not (covers t i) then extend t i x;
  Array.unsafe_set (Array.unsafe_get t.dir (i lsr bits)) (i land mask) x
