(** The pre-source-set DPOR explorer, kept verbatim as a reference
    oracle: Flanagan–Godefroid persistent-set backtracking (whole
    E-sets inserted per race) with sleep sets, exactly the search
    [Dpor] performed before the optimal-DPOR rewrite.

    It exists for two consumers only:

    - the QCheck differential battery, which asserts the optimized
      explorer finds the same violations with
      [executions_opt <= executions_sleep];
    - the bench part-3 comparison legs recording sleep-set vs optimal
      execution counts per config.

    It updates no metrics and has no root-branch sharding; use [Dpor]
    for everything else. *)

open Kernel

type stats = {
  executions : int;  (** complete runs performed *)
  sleep_blocked : int;  (** runs abandoned with every enabled pid asleep *)
  races : int;  (** immediate races observed across runs *)
  backtrack_points : int;  (** alternatives inserted by race analysis *)
}

type 'a outcome = {
  stats : stats;
  counterexample : (Pid.t list * 'a) option;
      (** window schedule + checker report of the first violation *)
}

val unbounded : int

val independent : Pid.t -> Sim.kind -> Pid.t -> Sim.kind -> bool
(** Same label-based independence relation as [Dpor.independent]; the
    differential battery is only meaningful while the two agree. *)

val explore :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  ?budget:int ->
  ?should_stop:(unit -> bool) ->
  make:(unit -> (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** Exhaustive sleep-set exploration of one world, semantics identical
    to the pre-rewrite [Dpor.explore] (same budget/should_stop
    truncation, same first-violation short-circuit). *)
