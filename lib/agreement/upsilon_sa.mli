(** Fig. 1: the Υ-based n-set-agreement protocol (paper §5.2, Theorem 2).

    Solves n-set agreement among n+1 processes tolerating n crashes,
    using only registers and the oracle Υ. The protocol proceeds in
    rounds:

    + Try to agree with n-converge; a committed value is written to the
      decision register [D] and decided.
    + On failure, query Υ to split processes into {e gladiators} (inside
      the output set [U]) and {e citizens} (outside). Citizens publish
      their value in [D\[r\]] and advance; gladiators run successive
      (|U|−1)-converge sub-rounds trying to eliminate one value.
    + A round is abandoned (advancing to the next) when: a process
      observes Υ's output change and raises [Stable\[r\]]; or a gladiator
      commits and publishes in [D\[r\]]; or [D\[r\]]/[D] is already
      non-⊥.

    Once Υ stabilizes on a set [U ≠ correct(F)], either a correct citizen
    exists (publishing its value) or some gladiator is faulty (letting
    (|U|−1)-converge commit) — at least one input value dies, and the
    next round's n-converge commits. *)

open Kernel

type t

type escapes = {
  watch_stable : bool;  (** react to [Stable\[r\]] (line 17a) *)
  watch_round_d : bool;  (** adopt from [D\[r\]] (line 17c) *)
  watch_final : bool;  (** decide from [D] (line 17c) *)
}
(** Which of the line-17 escape conditions the gladiator loop honours.
    All on by default; the A2 ablation switches them off one at a time to
    show each is load-bearing for Termination (safety never needs them). *)

val all_escapes : escapes

val create :
  ?escapes:escapes ->
  name:string ->
  n_plus_1:int ->
  upsilon:Pid.Set.t Sim.source ->
  unit ->
  t
(** Fresh shared state for one run: a {!Rounds} window of registers and
    converge instances. *)

val proposer : t -> me:Pid.t -> input:int -> unit -> unit
(** The fiber body for process [me] proposing [input]: records the
    proposal, runs Fig 1, records and returns on decision. *)

val decisions : t -> (Pid.t * int) list
(** [(pid, decided value)] for every process that decided so far. *)

val decision_rounds : t -> (Pid.t * int) list
(** [(pid, round at which it decided)] — harness statistics. *)

val rounds_entered : t -> int
(** Highest round number any process entered (contention metric). *)
