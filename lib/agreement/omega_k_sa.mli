(** Baseline: Ωₖ-based k-set agreement (Neiger [18], paper §2).

    The comparison point for Corollary 3: Ωₖ also solves k-set agreement
    with registers, but carries strictly more failure information than Υ
    (Theorem 1). Round structure mirrors Fig 1: k-converge at the top;
    on failure, the current Ωₖ output [L] acts as a leader committee —
    members publish their value in [D\[r\]], everyone else adopts;
    instability of the local Ωₖ output raises [Stable\[r\]]. Once Ωₖ
    stabilizes, at most [k] (committee) values survive a round, and the
    next k-converge commits.

    [k = 1], with Ω's leader as a one-member committee, is the classic
    leader-based consensus. *)

open Kernel

type t

val create :
  name:string -> n_plus_1:int -> k:int -> omega_k:Pid.Set.t Sim.source -> t

val proposer : t -> me:Pid.t -> input:int -> unit -> unit
val decisions : t -> (Pid.t * int) list
val decision_rounds : t -> (Pid.t * int) list
val rounds_entered : t -> int
