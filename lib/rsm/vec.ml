(* [data] stays empty until the first push: the pushed element fills the
   fresh array, so no dummy value of type ['a] is ever needed. *)
type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (max 16 (2 * t.len)) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_list t = List.init t.len (fun i -> t.data.(i))
