(** Monotonic wall-clock time for the live runtime.

    The runtime's analogue of {!Ci_engine.Sim.now}: integer nanoseconds
    from [CLOCK_MONOTONIC], unaffected by wall-clock adjustments.
    {!Ci_runtime.Live} subtracts a per-run origin so node-environment
    timestamps start near zero, like the simulator's. *)

val now_ns : unit -> int
(** [now_ns ()] is the current monotonic time in nanoseconds. *)

val set_timer_slack_ns : int -> int
(** [set_timer_slack_ns ns] sets the calling thread's timer slack — how
    far past its deadline the kernel may let a sleep such as
    [Unix.sleepf] run, to coalesce wake-ups — to [ns] when [ns > 0], and
    returns the previous value, so [ignore (set_timer_slack_ns old)]
    restores it. Linux's default is 50 µs per thread. Where the kernel
    has no such setting it changes nothing and returns [0]. *)
