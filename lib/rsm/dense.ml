(* Presence is a bitmap of 32 indices per int, itself chunked. *)
type 'v t = { vals : 'v Chunked.t; present : int Chunked.t }

let create () = { vals = Chunked.create (); present = Chunked.create () }

let capacity t =
  min (Chunked.capacity t.vals) (32 * Chunked.capacity t.present)

let mem t i =
  i >= 0
  &&
  let w = i lsr 5 in
  Chunked.covers t.present w && Chunked.get t.present w land (1 lsl (i land 31)) <> 0

let get t i = Chunked.get t.vals i

let set t i v =
  if i < 0 then invalid_arg "Dense.set: negative index";
  Chunked.set t.vals i v;
  let w = i lsr 5 in
  (* A fresh chunk is filled with the value stored first: zero here. *)
  if not (Chunked.covers t.present w) then Chunked.set t.present w 0;
  Chunked.set t.present w (Chunked.get t.present w lor (1 lsl (i land 31)))
