(** Growable array.

    Append-only storage for per-run histories that are indexed densely
    from 0 — a client's issued commands by [req_id], its acknowledged
    [req_id]s — so a run keeps one array slot per entry instead of a
    list cell or hashtable bucket. An [int t] is a flat int vector.
    Its {!Chunked} storage grows a chunk at a time: no copy and no
    doubling slack. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val length : 'a t -> int
(** [length t] is the number of pushed elements. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at index [length t]. *)

val get : 'a t -> int -> 'a
(** [get t i] is the element at [i]. Raises [Invalid_argument] unless
    [0 <= i < length t]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to the elements in index order. *)

val of_list : 'a list -> 'a t
(** [of_list l] is a vector holding [l] in order. *)

val to_list : 'a t -> 'a list
(** [to_list t] is the elements in index order. *)
