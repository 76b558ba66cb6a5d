(** The eventually perfect failure detector ◇P: arbitrary suspicions for
    a finite prefix, then exactly the crashed-so-far set. Once all faulty
    processes have crashed its output is the constant [faulty(F)], so ◇P
    is a {e stable} detector in the paper's §6.2 sense — a natural
    "realistic" input to the Fig-3 extraction (E5). *)

open Kernel

val make :
  ?name:string ->
  rng:Rng.t ->
  pattern:Failure_pattern.t ->
  ?stab_time:int ->
  unit ->
  Pid.Set.t Detector.t

val stable_from : pattern:Failure_pattern.t -> stab_time:int -> int
(** First time the output is guaranteed constant: after both the chaos
    window and the last crash. *)

val check :
  ?only:(Pid.t -> bool) ->
  Pid.Set.t Detector.t ->
  pattern:Failure_pattern.t ->
  stab_by:int ->
  horizon:int ->
  (unit, string) result
(** From [stab_by] on, the output must equal the crashed-so-far set at
    every process passing [only] (default all). The filter exists for
    implemented detectors ({!Hb_ev_perfect}): the model only constrains
    what {e correct} processes observe — a crashed heartbeat monitor's
    history freezes at its crash. *)

val leader : n_plus_1:int -> Pid.Set.t Detector.t -> Pid.t Detector.t
(** ◇P → Ω, named [name ^ ">omega"]: each process elects the smallest
    id it does not suspect, itself if it suspects everyone. Once
    suspicions equal the faulty set, every correct process elects the
    smallest correct one. {!Reduction.Pairwise.omega_of_ev_perfect} and
    the heartbeat detector's live {!Heartbeat.leader_source} both apply
    this rule. *)
