(** Consensus in a message-passing system: Ω + commit–adopt over
    ABD-emulated registers.

    The end-to-end demonstration that the paper's register-based
    toolchain lowers onto asynchronous message passing: commit–adopt is
    run over {!Memory.Abd} registers (each read/write a quorum
    round-trip), guarded by the leader oracle Ω exactly as in the
    register-native {!Omega_k_sa} at [k = 1]. Tolerates a minority of
    crashes (the ABD bound), decides a single proposed value.

    Round structure: commit–adopt on registers [a1/r/i], [a2/r/i]; a
    commit is written to [dec] and decided; otherwise the current
    leader publishes its value in [lead/r] and everyone adopts it, with
    the usual instability escape. Once Ω stabilizes, one round funnels
    every value to the leader's and the next commit–adopt commits. *)

open Kernel

type t

val create : name:string -> n_plus_1:int -> omega:Pid.t Sim.source -> t

val fibers : t -> me:Pid.t -> input:int -> (unit -> unit) list
(** The ABD server fiber plus the proposer fiber for process [me]. *)

val decisions : t -> (Pid.t * int) list
val decision_rounds : t -> (Pid.t * int) list

val check_memory : t -> (unit, string) result
(** Linearizability of the underlying ABD op log. *)
