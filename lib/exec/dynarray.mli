(** A growable int buffer for checker hot paths.

    Preallocated backing storage with amortized O(1) {!push} and O(1)
    indexed access; {!clear} resets the length without releasing the
    storage, so one buffer can be reused across executions with no
    per-run allocation. Int-specialized to keep elements unboxed. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty buffer. [capacity] (default 8) preallocates storage. *)

val length : t -> int

val clear : t -> unit
(** Length back to 0; storage is retained. *)

val get : t -> int -> int
(** Raises [Invalid_argument] out of [0 .. length - 1]. *)

val set : t -> int -> int -> unit

val push : t -> int -> unit
(** Append, growing the backing array geometrically when full. *)

val sort_uniq : t -> unit
(** Sort the contents ascending and drop duplicates, in place —
    equivalent to [List.sort_uniq Int.compare] on its elements. *)
