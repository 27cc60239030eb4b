module Wire = Ci_consensus.Wire
module Codec = Ci_consensus.Codec

(* A peer link on the socket backend. [wbuf] holds at most one
   partially-written frame (bytes [wpos, wend)); while it is non-empty
   further sends park in the outbox, preserving frame order. [rbuf]
   accumulates the inbound stream; complete length-prefixed frames are
   decoded out of it, a partial tail is compacted to the front. *)
type peer = {
  fd : Unix.file_descr;
  mutable wbuf : Bytes.t;
  mutable wpos : int;
  mutable wend : int;
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rend : int;
  mutable closed : bool;
}

(* [live] holds the open peers' fds, the one [select] set of [drain];
   it is rebuilt when [stale] says a peer has closed since. *)
type sockets = {
  peers : peer option array;
  mutable live : Unix.file_descr list;
  mutable stale : bool;
}

type kind =
  | Rings of {
      inqs : Spsc_bytes.t option array; (* indexed by src *)
      outqs : Spsc_bytes.t option array; (* indexed by dst *)
    }
  | Socket of sockets

type t = {
  id : int;
  n : int;
  kind : kind;
  outbox : Wire.t Queue.t array;
  cap : int;
  mutable n_blocked : int;
  mutable n_outbox_dropped : int;
  mutable outbox_peak : int;
  mutable n_sent : int;
  full_kinds : (string, int ref) Hashtbl.t;
}

(* ---------- construction ---------- *)

let rings_mesh ~n ~slots ~slot_size =
  Array.init n (fun dst ->
      Array.init n (fun src ->
          if src = dst then None
          else Some (Spsc_bytes.create ~slots ~slot_size)))

let make ~id ~n ~outbox_cap kind =
  {
    id;
    n;
    kind;
    outbox = Array.init n (fun _ -> Queue.create ());
    cap = outbox_cap;
    n_blocked = 0;
    n_outbox_dropped = 0;
    outbox_peak = 0;
    n_sent = 0;
    full_kinds = Hashtbl.create 8;
  }

let rings_endpoint mesh ~id ~outbox_cap =
  let n = Array.length mesh in
  let inqs = mesh.(id) in
  let outqs = Array.init n (fun dst -> mesh.(dst).(id)) in
  make ~id ~n ~outbox_cap (Rings { inqs; outqs })

let frame_header = 4
let read_chunk = 65536
let max_frame = 1 lsl 26 (* 64 MB: no legitimate message comes close *)

let socket_endpoint ~id ~fds ~outbox_cap =
  let peers =
    Array.map
      (fun fd ->
        match fd with
        | None -> None
        | Some fd ->
          Unix.set_nonblock fd;
          Some
            {
              fd;
              wbuf = Bytes.create 4096;
              wpos = 0;
              wend = 0;
              rbuf = Bytes.create read_chunk;
              rpos = 0;
              rend = 0;
              closed = false;
            })
      fds
  in
  make ~id ~n:(Array.length fds) ~outbox_cap
    (Socket { peers; live = []; stale = true })

(* ---------- socket plumbing ---------- *)

let sock_broken = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN | Unix.EBADF -> true
  | _ -> false

(* Push [wbuf]'s pending bytes at the kernel; stop on a full buffer. *)
let rec write_pending p =
  if p.wpos < p.wend && not p.closed then
    match Unix.write p.fd p.wbuf p.wpos (p.wend - p.wpos) with
    | 0 -> ()
    | k ->
      p.wpos <- p.wpos + k;
      write_pending p
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> write_pending p
    | exception Unix.Unix_error (e, _, _) when sock_broken e ->
      (* Peer is gone: shed the rest like a dead NIC. *)
      p.closed <- true;
      p.wpos <- 0;
      p.wend <- 0

(* Accepts [msg] iff the previous frame is fully out: frames the
   message into [wbuf] and starts writing. Local buffering counts as
   accepted — the kernel buffer is the back-pressure boundary. *)
let sock_try_send p msg =
  if p.closed then true
  else begin
    if p.wpos < p.wend then write_pending p;
    if p.wpos < p.wend then false
    else begin
      let size = Codec.encoded_size msg in
      if Bytes.length p.wbuf < frame_header + size then
        p.wbuf <- Bytes.create (frame_header + size);
      Bytes.set p.wbuf 0 (Char.unsafe_chr (size land 0xff));
      Bytes.set p.wbuf 1 (Char.unsafe_chr ((size lsr 8) land 0xff));
      Bytes.set p.wbuf 2 (Char.unsafe_chr ((size lsr 16) land 0xff));
      Bytes.set p.wbuf 3 (Char.unsafe_chr ((size lsr 24) land 0xff));
      ignore (Codec.encode msg p.wbuf ~pos:frame_header);
      p.wpos <- 0;
      p.wend <- frame_header + size;
      write_pending p;
      true
    end
  end

let sock_read p =
  if not p.closed then begin
    (* Compact, then make sure a whole chunk fits. *)
    if p.rpos > 0 then begin
      Bytes.blit p.rbuf p.rpos p.rbuf 0 (p.rend - p.rpos);
      p.rend <- p.rend - p.rpos;
      p.rpos <- 0
    end;
    if Bytes.length p.rbuf - p.rend < read_chunk then begin
      let bigger = Bytes.create (2 * (Bytes.length p.rbuf + read_chunk)) in
      Bytes.blit p.rbuf 0 bigger 0 p.rend;
      p.rbuf <- bigger
    end;
    match Unix.read p.fd p.rbuf p.rend (Bytes.length p.rbuf - p.rend) with
    | 0 -> p.closed <- true
    | k -> p.rend <- p.rend + k
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) when sock_broken e -> p.closed <- true
  end

let frame_len p =
  let b i = Char.code (Bytes.get p.rbuf (p.rpos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let rec sock_deliver p f ~src acc =
  if p.rend - p.rpos < frame_header then acc
  else begin
    let len = frame_len p in
    if len < 1 || len > max_frame then
      raise (Codec.Error "socket frame: corrupt length");
    if p.rend - p.rpos - frame_header < len then acc
    else begin
      let msg = Codec.decode p.rbuf ~pos:(p.rpos + frame_header) ~len in
      p.rpos <- p.rpos + frame_header + len;
      f ~src msg;
      sock_deliver p f ~src (acc + 1)
    end
  end

(* ---------- the endpoint operations ---------- *)

(* The blocked path is the exception, so the per-kind attribution may
   allocate; the fast paths on the rings backend must not. *)
let note_full t msg =
  t.n_blocked <- t.n_blocked + 1;
  let k = Wire.kind msg in
  match Hashtbl.find_opt t.full_kinds k with
  | Some r -> incr r
  | None -> Hashtbl.add t.full_kinds k (ref 1)

let park t ~dst msg =
  note_full t msg;
  let ob = t.outbox.(dst) in
  let len = Queue.length ob in
  if len >= t.cap then t.n_outbox_dropped <- t.n_outbox_dropped + 1
  else begin
    Queue.push msg ob;
    if len + 1 > t.outbox_peak then t.outbox_peak <- len + 1
  end

let send t ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Transport.send: unknown node";
  match t.kind with
  | Rings { outqs; _ } -> (
    match outqs.(dst) with
    | None -> invalid_arg "Transport.send: no link to destination"
    | Some q ->
      if Queue.is_empty t.outbox.(dst) && Spsc_bytes.try_push q msg then ()
      else park t ~dst msg)
  | Socket s -> (
    match s.peers.(dst) with
    | None -> invalid_arg "Transport.send: no link to destination"
    | Some p ->
      if Queue.is_empty t.outbox.(dst) && sock_try_send p msg then
        t.n_sent <- t.n_sent + 1
      else park t ~dst msg)

let rec flush_ring q ob acc =
  if Queue.is_empty ob then acc
  else if Spsc_bytes.try_push q (Queue.peek ob) then begin
    ignore (Queue.pop ob);
    flush_ring q ob (acc + 1)
  end
  else acc

let rec flush_rings t outqs dst acc =
  if dst >= t.n then acc
  else
    let acc =
      match outqs.(dst) with
      | None -> acc
      | Some q -> flush_ring q t.outbox.(dst) acc
    in
    flush_rings t outqs (dst + 1) acc

let rec flush_sock t p ob acc =
  if Queue.is_empty ob then acc
  else if sock_try_send p (Queue.peek ob) then begin
    ignore (Queue.pop ob);
    t.n_sent <- t.n_sent + 1;
    flush_sock t p ob (acc + 1)
  end
  else acc

let rec flush_socks t peers dst acc =
  if dst >= t.n then acc
  else
    let acc =
      match peers.(dst) with
      | None -> acc
      | Some p ->
        write_pending p;
        flush_sock t p t.outbox.(dst) acc
    in
    flush_socks t peers (dst + 1) acc

let flush t =
  match t.kind with
  | Rings { outqs; _ } -> flush_rings t outqs 0 0
  | Socket s -> flush_socks t s.peers 0 0

let rec drain_ring q f ~src budget acc =
  if budget <= 0 then acc
  else
    match Spsc_bytes.try_pop q with
    | None -> acc
    | Some msg ->
      f ~src msg;
      drain_ring q f ~src (budget - 1) (acc + 1)

let rec drain_rings t inqs f src acc =
  if src >= t.n then acc
  else
    let acc =
      match inqs.(src) with
      | None -> acc
      | Some q ->
        (* At most one ring's worth per source per turn, so one chatty
           peer cannot starve the rest. *)
        drain_ring q f ~src (Spsc_bytes.slots q) acc
    in
    drain_rings t inqs f (src + 1) acc

(* Reads only the peers in [ready]. Every complete frame is delivered
   right after its read, so a peer that is not readable has nothing
   left to deliver. A peer found closed marks the [live] set stale. *)
let rec drain_socks t s ready f src acc =
  if src >= t.n then acc
  else
    let acc =
      match s.peers.(src) with
      | Some p when List.memq p.fd ready ->
        sock_read p;
        if p.closed then s.stale <- true;
        sock_deliver p f ~src acc
      | _ -> acc
    in
    drain_socks t s ready f (src + 1) acc

(* One zero-timeout [select] over the open peers, so that an idle peer
   costs neither a syscall of its own nor an EAGAIN exception. *)
let drain_sockets t s f =
  if s.stale then begin
    s.live <-
      Array.fold_right
        (fun p acc ->
          match p with Some p when not p.closed -> p.fd :: acc | _ -> acc)
        s.peers [];
    s.stale <- false
  end;
  match Unix.select s.live [] [] 0. with
  | [], _, _ -> 0
  | ready, _, _ -> drain_socks t s ready f 0 0
  | exception Unix.Unix_error (EINTR, _, _) -> 0

let drain t f =
  match t.kind with
  | Rings { inqs; _ } -> drain_rings t inqs f 0 0
  | Socket s -> drain_sockets t s f

let clear_outboxes t = Array.iter Queue.clear t.outbox

(* ---------- statistics ---------- *)

let blocked t = t.n_blocked
let outbox_dropped t = t.n_outbox_dropped
let outbox_peak t = t.outbox_peak
let sent t = t.n_sent

let full_by_kind t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.full_kinds []
  |> List.sort compare

let fold_mesh f mesh acc =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc q -> match q with None -> acc | Some q -> f acc q)
        acc row)
    acc mesh

let mesh_queue_count mesh = fold_mesh (fun acc _ -> acc + 1) mesh 0
let mesh_msgs mesh = fold_mesh (fun acc q -> acc + Spsc_bytes.pushes q) mesh 0

let mesh_occupancy_peak mesh =
  fold_mesh (fun acc q -> max acc (Spsc_bytes.occupancy_peak q)) mesh 0

let mesh_jumbo mesh =
  fold_mesh (fun acc q -> acc + Spsc_bytes.jumbo_pushes q) mesh 0
