(** Ordered, possibly gappy, decided-command log.

    Consensus decides a value per instance number, but instances may be
    decided out of order (e.g. during a leader change). The log records
    decisions as they arrive and exposes the executable prefix: the
    maximal contiguous run of decided instances starting at 0.

    Storage is {!Dense}: one word and one bit per instance up to the
    highest decided one, and no allocation per decision. Instance
    numbers should therefore be dense, as consensus instances are. *)

type 'v t
(** A log of decided values of type ['v]. *)

val create : ?equal:('v -> 'v -> bool) -> unit -> 'v t
(** [create ~equal ()] is an empty log. [equal] (default [( = )])
    detects conflicting re-decisions. *)

val decide : 'v t -> inst:int -> 'v -> [ `New | `Duplicate | `Conflict of 'v ]
(** [decide t ~inst v] records that instance [inst] decided [v].
    [`Duplicate] means the same value was already recorded;
    [`Conflict prev] means a {e different} value was recorded before —
    a consensus safety violation, recorded and reported but not
    overwritten. Requires [inst >= 0]. *)

val get : 'v t -> inst:int -> 'v option
(** [get t ~inst] is the decided value, if any. *)

val is_decided : 'v t -> inst:int -> bool
(** [is_decided t ~inst] is whether the instance has a decision. *)

val first_gap : 'v t -> int
(** [first_gap t] is the smallest undecided instance number. *)

val highest_decided : 'v t -> int option
(** [highest_decided t] is the largest decided instance number. *)

val decided_count : 'v t -> int
(** [decided_count t] is the number of decided instances. *)

val conflicts : 'v t -> (int * 'v * 'v) list
(** [conflicts t] lists observed re-decisions with different values as
    [(inst, first, offender)]. *)

val to_list : ?from_:int -> 'v t -> (int * 'v) list
(** [to_list ?from_ t] is every decision at or above [from_] (default
    0), sorted by instance. *)

val iter : 'v t -> (int -> 'v -> unit) -> unit
(** [iter t f] calls [f inst v] on every decision in increasing
    instance order, in place. *)

val iter_prefix : 'v t -> from_:int -> (int -> 'v -> unit) -> int
(** [iter_prefix t ~from_ f] calls [f] on decided instances [from_,
    from_+1, ...] until the first gap and returns the next unexecuted
    instance (i.e. the gap position). *)
