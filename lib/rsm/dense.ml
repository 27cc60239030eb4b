(* [vals] stays empty until the first [set], whose value fills the fresh
   array, so no dummy ['v] is ever needed. *)
type 'v t = { mutable vals : 'v array; mutable present : Bytes.t }

let create () = { vals = [||]; present = Bytes.empty }
let capacity t = Array.length t.vals

let mem t i =
  i >= 0
  && i < Array.length t.vals
  && Char.code (Bytes.unsafe_get t.present (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i = t.vals.(i)

let grow t i v =
  let cap = max (i + 1) (max 64 (2 * Array.length t.vals)) in
  let vals = Array.make cap v in
  Array.blit t.vals 0 vals 0 (Array.length t.vals);
  let present = Bytes.make ((cap + 7) lsr 3) '\000' in
  Bytes.blit t.present 0 present 0 (Bytes.length t.present);
  t.vals <- vals;
  t.present <- present

let set t i v =
  if i < 0 then invalid_arg "Dense.set: negative index";
  if i >= Array.length t.vals then grow t i v;
  t.vals.(i) <- v;
  let b = i lsr 3 in
  Bytes.unsafe_set t.present b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.present b) lor (1 lsl (i land 7))))
