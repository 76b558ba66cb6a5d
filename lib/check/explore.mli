(** The unreduced schedule enumerator: every choice of "who steps
    next" for the first [depth] steps of a run. It is the reference
    oracle the DPOR equivalence tests compare {!Dpor.explore} against,
    and the honest baseline for "how many executions did reduction
    save" measurements. *)

open Kernel

type 'a outcome = {
  executions : int;  (** how many schedules were explored *)
  counterexample : (Pid.t list * 'a) option;
      (** the prefix schedule and the check's report for the first
          violating execution, if any *)
}

val naive_prefix :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** Re-executes a fresh world from [make ()] for each prefix,
    ~[n_plus_1^depth] runs, checks the property on every completed
    execution and stops at the first counterexample. Reference oracle
    only — use {!Dpor.explore}. *)

val count_schedules : n_plus_1:int -> depth:int -> int
(** [n_plus_1 ^ depth], the upper bound on executions {!naive_prefix}
    may perform (before quiescence pruning), saturating at [max_int]
    instead of overflowing. *)
