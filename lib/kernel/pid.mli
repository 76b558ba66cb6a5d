(** Process identifiers.

    The system has [n + 1] processes [p1 ... p(n+1)] (paper §3.1). A pid is
    a 0-based index; [p1] is pid [0]. We keep the representation transparent
    so pids can index arrays of per-process state directly. *)

type t = int

val max_procs : int
(** The largest system a {!Set.t} can hold: [Sys.int_size], the bits of
    an OCaml int, i.e. 63 processes (pids [0 .. 62]) on 64-bit hosts. *)

val of_index : int -> t
(** [of_index i] is the pid of the [i+1]-th process; fails on negatives. *)

val to_int : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [p3]. *)

val to_string : t -> string

val all : n_plus_1:int -> t list
(** [all ~n_plus_1] is [[p1; ...; p(n+1)]] as pids [0 .. n]. Raises
    [Invalid_argument] unless [1 <= n_plus_1 <= max_procs]. *)

(** Sets of processes, one machine word each: pid [p] is bit [p]. Every
    operation but the iterators is a few word instructions and
    allocates nothing, so the scheduler can hand a policy the enabled
    set on every step. The semantics are exactly those of [Set.Make (Int)] on
    pids [0 .. max_procs - 1]: iteration, [fold], [elements], [to_seq]
    and [to_string] are ascending, [compare] is the lexicographic order
    on the ascending members, and [choose] is [min_elt]. Adding a pid
    outside that range raises [Invalid_argument]. *)
module Set : sig
  include Set.S with type elt = t

  val of_indices : int list -> t
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  val from : elt -> t -> t
  (** [from p s] is the members of [s] at or above [p]. *)

  val nth : t -> int -> elt
  (** [nth s i] is the [i]-th smallest member of [s], from 0: what
      [List.nth (elements s) i] is, without the list. Raises
      [Invalid_argument] when [s] has at most [i] members. *)

  val full : n_plus_1:int -> t
  (** The whole system Π. *)

  val complement : n_plus_1:int -> t -> t
  (** [complement ~n_plus_1 s] is Π − s. *)

  val subsets : n_plus_1:int -> t list
  (** All non-empty subsets of Π (for small systems; exponential), in
      mask order: the [m]-th set holds pid [p] iff bit [p] of [m] is
      set. *)
end

module Map : Map.S with type key = t
