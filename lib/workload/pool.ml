(* The process's one owner of worker domains: a dependency-free pool
   whose workers outlive the calls that use them.

   A worker is a domain that runs one job at a time. Between jobs it
   parks in [Unix.select] on its own wake pipe: a caller hands it a job
   by storing the job and writing one byte, so the hand-off needs no
   polling and cannot be lost (the byte waits in the pipe if the worker
   is not parked yet). Idle workers sit on a LIFO stack, so the most
   recently used — warmest — ones are reused first and the coldest
   retire. A worker parked for [grace_s] without a job leaves the stack
   and its domain exits.

   The pool holds idle workers and nothing of any run: a job is a
   closure that owns its state, so run isolation (DESIGN.md §8) is
   untouched. This stack is the one deliberate piece of module-level
   mutable state in [lib/]. *)

(* Back-to-back deployments and figure sections are milliseconds apart,
   so they find their workers warm. Idle domains are not free: every
   minor GC stops the world across all of them, and four parked ones
   slowed later simulator work in the same process by 10-15% (two of
   three runs on a 2-core host). A quarter second bounds that tax after
   the last parallel phase. *)
let grace_s = 0.25

type gang = {
  remaining : int Atomic.t;  (** thunks not yet finished *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  done_lock : Mutex.t;
  done_cond : Condition.t;
}

type worker = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  job : ((unit -> unit) * gang) option Atomic.t;
  serial : int;  (** spawn order *)
  mutable parked : bool;  (** on the idle stack; guarded by [lock] *)
}

let lock = Mutex.create ()
let idle : worker list ref = ref []
let alive = ref 0
let spawns = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let workers () = locked (fun () -> !alive)
let spawned () = locked (fun () -> !spawns)

(* One thunk of [g] is over. The worker is back on the stack before the
   countdown, so a gang started right after [await] returns finds it.
   The countdown is an atomic read-modify-write and the waiter re-reads
   it under [done_lock]: both order the thunk's writes before whatever
   the caller does after [await]. *)
let finish g outcome =
  Option.iter
    (fun f -> ignore (Atomic.compare_and_set g.failure None (Some f)))
    outcome;
  if Atomic.fetch_and_add g.remaining (-1) = 1 then begin
    Mutex.lock g.done_lock;
    Condition.broadcast g.done_cond;
    Mutex.unlock g.done_lock
  end

let run_job w (thunk, g) =
  let outcome =
    match thunk () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  locked (fun () ->
      w.parked <- true;
      idle := w :: !idle);
  finish g outcome

(* Park until a job arrives, or retire after [grace_s] unclaimed. A
   claimed worker that timed out anyway goes back to waiting: its byte
   is on the way. *)
let rec next_job w =
  match Unix.select [ w.wake_r ] [] [] grace_s with
  | [], _, _ ->
    let retire =
      locked (fun () ->
          if w.parked then begin
            idle := List.filter (fun x -> x != w) !idle;
            decr alive
          end;
          w.parked)
    in
    if retire then None else next_job w
  | _ ->
    ignore (Unix.read w.wake_r (Bytes.create 1) 0 1);
    (* Taking the job out leaves the slot empty, so a parked worker
       holds no run's closure. *)
    Atomic.exchange w.job None
  | exception Unix.Unix_error (EINTR, _, _) -> next_job w

let rec worker_loop w j =
  run_job w j;
  match next_job w with
  | Some j -> worker_loop w j
  | None ->
    Unix.close w.wake_r;
    Unix.close w.wake_w

let rec wake w =
  match Unix.write_substring w.wake_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> wake w

(* The first job goes through [w.job] too, so the domain's own closure
   holds nothing of the run. *)
let spawn j =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let serial =
    locked (fun () ->
        incr alive;
        incr spawns;
        !spawns)
  in
  let w = { wake_r; wake_w; job = Atomic.make (Some j); serial; parked = false } in
  match
    Domain.spawn (fun () -> worker_loop w (Option.get (Atomic.exchange w.job None)))
  with
  | _ -> ()
  | exception e ->
    locked (fun () -> decr alive);
    Unix.close wake_r;
    Unix.close wake_w;
    raise e

(* Thunk [i] goes to the [i]-th oldest worker claimed, so back-to-back
   gangs of one shape put each thunk on the worker that ran it last
   time, and a live node finds the per-thread memory (such as its
   malloc arena) sized by its previous run. Handed out in parking order
   instead, perfbench's [live-saturate] peaked at a median 89 MB
   against 84 MB (six alternating pairs on a 2-core host). *)
let gang thunks =
  let n = Array.length thunks in
  let g =
    {
      remaining = Atomic.make n;
      failure = Atomic.make None;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
    }
  in
  let claimed =
    locked (fun () ->
        let rec take k acc =
          match !idle with
          | w :: rest when k > 0 ->
            idle := rest;
            w.parked <- false;
            take (k - 1) (w :: acc)
          | _ -> acc
        in
        List.sort (fun a b -> compare a.serial b.serial) (take n [])
        |> Array.of_list)
  in
  Array.iteri
    (fun i thunk ->
      if i < Array.length claimed then begin
        let w = claimed.(i) in
        Atomic.set w.job (Some (thunk, g));
        wake w
      end
      else
        (* Never wait for a busy worker: spawn the shortfall. A thunk
           that cannot get a domain counts as finished with the spawn's
           exception, which [await] re-raises. *)
        try spawn (thunk, g)
        with e -> finish g (Some (e, Printexc.get_raw_backtrace ())))
    thunks;
  g

let await g =
  if Atomic.get g.remaining > 0 then begin
    Mutex.lock g.done_lock;
    while Atomic.get g.remaining > 0 do
      Condition.wait g.done_cond g.done_lock
    done;
    Mutex.unlock g.done_lock
  end;
  match Atomic.get g.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run_gang thunks ~caller ~abort =
  let g = gang thunks in
  match caller () with
  | () -> await g
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    abort ();
    (try await g with _ -> ());
    Printexc.raise_with_backtrace e bt

let default_jobs () =
  match Sys.getenv_opt "CI_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* [parallel_map]: [jobs - 1] pool workers plus the caller pull index
   chunks from one atomic cursor — a chunked work queue with no locks.
   Each job writes only its own result slot; the simulations are safe
   to run concurrently because a run owns every piece of mutable state
   it touches, so the pool adds no synchronization around [f]. *)
let parallel_map ?(chunk = 1) ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.parallel_map: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Pool.parallel_map: chunk must be >= 1";
  let n = Array.length xs in
  if jobs = 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo >= n || Atomic.get failure <> None then continue := false
        else begin
          let hi = min n (lo + chunk) in
          try
            for i = lo to hi - 1 do
              results.(i) <- Some (f xs.(i))
            done
          with e ->
            (* First failure wins; the rest of the fleet drains its
               current chunk and stops claiming new work. *)
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
        end
      done
    in
    run_gang (Array.make (min jobs n - 1) worker) ~caller:worker ~abort:ignore;
    (match Atomic.get failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map
      (function
        | Some y -> y
        | None -> assert false (* no failure implies every slot was filled *))
      results
  end
