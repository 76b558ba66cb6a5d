(** The round window of the round-based protocols: Fig 1 ({!Upsilon_sa}),
    Fig 2 ({!Upsilon_f_sa}), the Ωₖ baseline ({!Omega_k_sa}), the
    booster ({!Booster_consensus}) and the detector-free skeleton
    ({!Async_attempt}).

    These protocols address their shared objects per round, as the paper
    does: [D\[r\]], [Stable\[r\]], the round's main converge, and per
    sub-round the gladiators' [(|U|−1)]-converge[\[r\]\[k\]] and Fig 2's
    [A\[r\]\[k\]]. A window owns those objects and the protocol's
    decision log. Objects are addressed by the integer position
    [(round, sub)], [sub = 0] being the round's main converge, and are
    built on first use; building one takes no step.

    Each process has a position that only moves forward ({!enter}). The
    {e floor} is the least position of an undecided process. A sub-round
    object retires once the floor is past its position, a round-level
    object once the floor's round is past its round: no undecided
    process can reach it again. Deciding releases a process. A crashed
    process never moves again, so it pins the floor where it stopped. *)

open Kernel
open Memory

type t

val create : name:string -> n_plus_1:int -> t
(** A window for processes [0 .. n_plus_1 - 1], all at [(1, 0)]. Object
    names start with [name]. *)

val enter : t -> me:Pid.t -> round:int -> sub:int -> unit
(** Move [me] to [(round, sub)], retiring what the move leaves
    unreachable. Allocates nothing unless the floor moves. Raises
    [Invalid_argument] if the position goes back. *)

val decide : t -> me:Pid.t -> round:int -> int -> unit
(** Log [me]'s decision, release its position and record the decision
    in the trace (one step). *)

val decisions : t -> (Pid.t * int) list
(** [(pid, decided value)], in decision order. *)

val decision_rounds : t -> (Pid.t * int) list
(** [(pid, round it decided in)], in decision order. *)

val rounds_entered : t -> int
(** The highest round any process entered. *)

(** {1 Objects}

    Every lookup below raises [Invalid_argument] when its object has
    retired; it never builds a fresh one in its place. *)

val final : t -> int option Register.t
(** The decision register [D], named [name.D]; never retires. *)

val d : t -> int -> int option Register.t
(** [D\[r\]], named [name.D\[r\]]. *)

val stable : t -> int -> bool Register.t
(** [Stable\[r\]], named [name.Stable\[r\]]. *)

val converge : t -> round:int -> sub:int -> k:int -> int Converge.instance
(** The [k]-converge instance at [(round, sub)]: [name.cv.kK/main.rR]
    for [sub = 0], [name.cv.kK/glad.rR.kS] otherwise. [k] is part of
    the identity, as in [(|U|−1)]-converge[\[r\]\[k\]]: processes whose
    Υ outputs differ reach different objects at the same position.
    [k = 0] is {!Converge.zero}. *)

(** Objects of one more kind, at one of the two levels. *)

type level = Round | Sub

type ('k, 'a) family

val family : t -> level -> (int -> int -> 'k -> 'a) -> ('k, 'a) family
(** [family t level make]: the object for [(round, sub, key)] is
    [make round sub key], built on first use. A [Round] family passes
    [sub = 0] and ignores the [sub] of lookups. Keys are compared with
    [(=)]. *)

val get : ('k, 'a) family -> round:int -> sub:int -> 'k -> 'a
