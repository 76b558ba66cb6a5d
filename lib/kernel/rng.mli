(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component of the simulator draws from an explicit
    [Rng.t] so that a run is a pure function of its seed: identical seeds
    give identical traces, which the regression tests pin. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Distinct seeds give independent
    streams for all practical purposes. *)

val reseed : t -> int -> unit
(** [reseed t seed] restarts [t] so that it draws exactly what
    [create seed] would, without allocating a generator. *)

val split : t -> t
(** [split t] derives a child generator and advances [t]; children drawn
    at different points are independent streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> 'a list -> 'a list

val subset : t -> ?proper:bool -> ?nonempty:bool -> 'a list -> 'a list
(** Uniform subset of the given list, optionally constrained to be proper
    and/or non-empty. *)
