(** The pairwise detector reductions of §4 and §5.3.

    Zero-step reductions are pointwise output transformations (no shared
    memory needed); the Υ¹→Ω reduction is a genuine algorithm using
    timestamps in registers, provided as {!Omega_from_upsilon1}. *)

open Kernel
open Detectors

val upsilon_of_omega_k :
  n_plus_1:int -> Pid.Set.t Detector.t -> Pid.Set.t Detector.t
(** Ωₖ → Υ (§4): output the complement of the committee. The stable
    committee contains a correct process, so its complement can never be
    the correct set. With k = f this is also the Ωᶠ → Υᶠ reduction of
    §5.3 (complement size n+1−f). *)

val upsilon_of_omega : n_plus_1:int -> Pid.t Detector.t -> Pid.Set.t Detector.t
(** Ω → Υ: complement of the singleton leader. *)

val omega_of_upsilon_2proc : Pid.Set.t Detector.t -> Pid.t Detector.t
(** Υ → Ω in a 2-process system (§4): output the complement of Υ if it
    is a singleton, own id otherwise. Together with {!upsilon_of_omega}
    this witnesses Ω ≡ Υ at n = 1. *)

val anti_omega_of_omega :
  n_plus_1:int -> Pid.t Detector.t -> Pid.t Detector.t
(** Ω → anti-Ω: cycle deterministically over Π − {leader}; the eventual
    leader is correct and eventually never output. *)

val omega_of_ev_perfect :
  n_plus_1:int -> Pid.Set.t Detector.t -> Pid.t Detector.t
(** ◇P → Ω: elect the smallest unsuspected id (classical eventual leader
    election), {!Detectors.Ev_perfect.leader}. Once suspicions equal the
    faulty set, the leader is the smallest correct process at every
    correct process. Composed with
    {!upsilon_of_omega} this chains ◇P → Ω → Υ — every classical oracle
    reaches Υ, as Theorem 10 promises in general. *)

val ev_perfect_of_perfect : Pid.Set.t Detector.t -> Pid.Set.t Detector.t
(** P → ◇P: the identity — perfect suspicions satisfy the eventual
    contract from time 0. Exists to make the lattice inclusions explicit
    in tests. *)

(** Υ¹ → Ω in E₁ (§5.3): every process publishes ever-growing
    timestamps; if Υ¹ outputs a proper subset of Π (size n), elect the
    excluded process; if it outputs Π (exactly one process is faulty),
    elect the smallest id among the n processes with the highest
    timestamps. *)
module Omega_from_upsilon1 : sig
  type t

  val create :
    name:string -> n_plus_1:int -> upsilon1:Pid.Set.t Sim.source -> t

  val fibers : t -> me:Pid.t -> (unit -> unit) list
  val current_leader : t -> Pid.t -> Pid.t option
  val change_log : t -> (Pid.t * int * Pid.t) list

  val check :
    t ->
    pattern:Failure_pattern.t ->
    last_time:int ->
    tail:int ->
    (unit, string) result
  (** Eventually the same correct leader at all correct processes. *)
end
