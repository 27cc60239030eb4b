type 'a t = { data : 'a Chunked.t; mutable len : int }

let create () = { data = Chunked.create (); len = 0 }
let length t = t.len

let push t x =
  Chunked.set t.data t.len x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  Chunked.get t.data i

let iter f t =
  for i = 0 to t.len - 1 do
    f (Chunked.get t.data i)
  done

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_list t = List.init t.len (Chunked.get t.data)
