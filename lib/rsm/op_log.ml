type 'v t = {
  equal : 'v -> 'v -> bool;
  vals : 'v Dense.t;
  mutable gap : int; (* smallest undecided instance *)
  mutable highest : int; (* -1 while empty *)
  mutable count : int;
  mutable bad : (int * 'v * 'v) list;
}

let create ?(equal = ( = )) () =
  { equal; vals = Dense.create (); gap = 0; highest = -1; count = 0; bad = [] }

let is_decided t ~inst = Dense.mem t.vals inst

let decide t ~inst v =
  if inst < 0 then invalid_arg "Op_log.decide: negative instance";
  if Dense.mem t.vals inst then begin
    let prev = Dense.get t.vals inst in
    if t.equal prev v then `Duplicate
    else begin
      t.bad <- (inst, prev, v) :: t.bad;
      `Conflict prev
    end
  end
  else begin
    Dense.set t.vals inst v;
    t.count <- t.count + 1;
    if inst > t.highest then t.highest <- inst;
    if inst = t.gap then
      while Dense.mem t.vals t.gap do
        t.gap <- t.gap + 1
      done;
    `New
  end

let get t ~inst = if Dense.mem t.vals inst then Some (Dense.get t.vals inst) else None
let first_gap t = t.gap
let highest_decided t = if t.highest < 0 then None else Some t.highest
let decided_count t = t.count
let conflicts t = List.rev t.bad

let iter t f =
  for i = 0 to t.highest do
    if Dense.mem t.vals i then f i (Dense.get t.vals i)
  done

let to_list ?(from_ = 0) t =
  let acc = ref [] in
  for i = t.highest downto max 0 from_ do
    if Dense.mem t.vals i then acc := (i, Dense.get t.vals i) :: !acc
  done;
  !acc

let iter_prefix t ~from_ f =
  let i = ref from_ in
  while Dense.mem t.vals !i do
    f !i (Dense.get t.vals !i);
    incr i
  done;
  !i
