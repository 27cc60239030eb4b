(** Sparse-tolerant array indexed by small non-negative ints.

    A {!Chunked} value array plus a chunked presence bitmap: one word
    and one bit per index in each chunk that holds a value, and no
    allocation per entry. The storage behind {!Op_log} (indexed by
    instance) and {!Session_table} (indexed by [req_id]), whose keys
    are dense. *)

type 'v t

val create : unit -> 'v t
(** [create ()] is empty. *)

val mem : 'v t -> int -> bool
(** [mem t i] is whether index [i] holds a value (false for [i < 0]). *)

val get : 'v t -> int -> 'v
(** [get t i] is the value at [i]. Requires [mem t i]. *)

val set : 'v t -> int -> 'v -> unit
(** [set t i v] stores [v] at [i], growing the storage to cover [i].
    Requires [i >= 0]. *)

val capacity : 'v t -> int
(** [capacity t] is the number of indices the storage covers now; [set]
    below it allocates nothing. *)
