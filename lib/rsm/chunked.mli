(** An array of fixed-size chunks behind a small directory.

    The storage behind {!Vec} and {!Dense}: an index [i] lives at slot
    [i mod size] of chunk [i / size]. Growing past the last chunk adds
    one chunk, so a long history is never copied and never carries a
    doubling's unused half; only the first chunk starts small and
    doubles up to [size], so a short history stays cheap. Chunks
    between far-apart indices are never allocated. *)

type 'a t

val size : int
(** Indices per chunk (4096). *)

val create : unit -> 'a t
(** [create ()] covers no index. *)

val covers : 'a t -> int -> bool
(** [covers t i] is whether slot [i] exists (false for [i < 0]). *)

val get : 'a t -> int -> 'a
(** [get t i] is slot [i].
    @raise Invalid_argument unless [covers t i]. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] stores [x] in slot [i], first allocating the chunk
    (and directory room) that holds it. Fresh slots hold [x] too.
    @raise Invalid_argument if [i < 0]. *)

val capacity : 'a t -> int
(** [capacity t] is the length of the covered prefix: [set] below it
    allocates nothing. *)
