(** The closed loop's measurement sink: every completed request of a
    run, in completion order, kept as three chunked int columns (no
    record or list cell per request). *)

type sample = { intended_at : int; sent_at : int; replied_at : int }
(** One completed request: scheduled arrival, first transmission and
    reply instants. A closed-loop client has [intended_at = sent_at];
    an open-loop driver stamps [intended_at] with the instant the
    request {e should} have entered the system, even when the driver
    fell behind its own schedule. *)

type t
(** A mutable collector, shared by all drivers of a run or one per
    driver. *)

val create : bucket:int -> t
(** [create ~bucket] is an empty collector; commits are also counted
    into a time series with the given bucket width (ns). *)

val record : t -> intended_at:int -> sent_at:int -> replied_at:int -> unit
(** [record t ~intended_at ~sent_at ~replied_at] logs one completed
    request. *)

val merge : into:t -> t -> unit
(** [merge ~into src] records every sample of [src] into [into], in
    completion order. *)

val samples : t -> sample list
(** [samples t] is every completed request, in completion order. *)

val timeline : t -> Ci_stats.Timeseries.t
(** [timeline t] is the commit-time series. *)

val completed : t -> int
(** [completed t] is the number of recorded requests. *)

val latencies_in : t -> from_:int -> until_:int -> int array
(** [latencies_in t ~from_ ~until_] is the latencies (ns) of requests
    completed within the window, measured from the {e intended} arrival
    — the coordinated-omission-aware number a load generator must
    report. In completion order; the window's array is allocated at its
    exact size. *)

val service_latencies_in : t -> from_:int -> until_:int -> int array
(** [service_latencies_in t ~from_ ~until_] is the send-to-reply
    latencies (ns) of requests completed within the window — the old,
    omission-biased measure, kept for comparison against it. In
    completion order. *)

val completed_in : t -> from_:int -> until_:int -> int
(** [completed_in t ~from_ ~until_] counts requests completed within the
    window. *)

val completions_in : t -> from_:int -> until_:int -> int array
(** [completions_in t ~from_ ~until_] is the completion instants (ns)
    of requests completed within the window, sorted ascending — the
    input {!Ci_obs.Failover.analyze} expects. *)
