(** The process's worker domains, and the two ways to use them.

    Every experiment in this repository is a batch of independent,
    deterministic [Runner.run] invocations; {!parallel_map} fans such a
    batch out across OCaml 5 domains. A live deployment runs one event
    loop per node at once; {!gang} starts them. Both take their domains
    from one pool, the only place in [lib/] that spawns a domain.

    Workers outlive the calls that use them: an idle worker parks on its
    own wake pipe and takes the next job handed to it, so back-to-back
    calls pay a wake-up instead of a domain spawn and join. A worker
    left idle for {!grace_s} retires and its domain exits, so a process
    whose parallel phase is over runs alone again. There is no task
    queue and no futures: a caller never waits for a busy worker, it
    spawns the shortfall instead.

    The pool holds idle workers and no run state. [parallel_map]
    results are keyed by input index, so for a deterministic [f] the
    output is identical — byte for byte — at any [jobs] value. *)

val default_jobs : unit -> int
(** [default_jobs ()] is the [CI_JOBS] environment variable if set to a
    positive integer, otherwise [Domain.recommended_domain_count ()].
    This is the default the [--jobs] flags of [consensus_sim] and
    [bench/main.exe] resolve to. *)

val parallel_map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f xs] is [Array.map f xs] computed by [jobs]
    workers: the calling domain and [jobs - 1] pool workers (never more
    workers than elements). Input order is preserved: slot [i] of the
    result is [f xs.(i)] regardless of which domain computed it.

    Workers claim indices in chunks of [chunk] (default 1 — right for
    coarse jobs like whole simulation runs) from a shared atomic
    cursor, so uneven job costs load-balance themselves.

    If any [f xs.(i)] raises, the first exception (by completion time)
    is re-raised in the caller with its backtrace once every worker has
    stopped; remaining workers finish their current chunk and claim no
    further work. [f] must be safe to run concurrently with itself on
    distinct elements — true for [Runner.run] because a run owns all
    its mutable state (DESIGN.md §8).

    [jobs = 1] (or a batch of at most one element) degenerates to plain
    [Array.map] on the calling domain with no worker involved.

    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)

type gang
(** Thunks started together by {!gang}, awaited together by {!await}. *)

val gang : (unit -> unit) array -> gang
(** [gang thunks] starts every thunk at once, each on its own pool
    worker — distinct from each other and from the caller — and returns
    without waiting. Idle workers are reused, most recently parked
    first; the shortfall is spawned. The thunks may wait for each other:
    they run concurrently however few workers were idle. *)

val await : gang -> unit
(** [await g] returns once every thunk of [g] has finished. Everything
    the thunks wrote is then visible to the caller, as after
    [Domain.join]. If any thunk raised, the first exception (by
    completion time) is re-raised with its backtrace, after all of them
    finished; the workers stay usable. *)

val grace_s : float
(** Seconds an idle worker stays parked before it retires. *)

val workers : unit -> int
(** Worker domains alive now, idle or busy. *)

val spawned : unit -> int
(** Worker domains this process has spawned so far. *)
