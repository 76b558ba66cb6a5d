(** Bounded exhaustive schedule exploration.

    Historical entry point, kept as a thin wrapper now that the real
    work lives in {!Dpor}: {!exhaustive_prefix} explores every schedule
    class of the first [depth] steps with partial-order reduction,
    {!naive_prefix} is the original unreduced enumerator — the one
    reference oracle the DPOR equivalence tests compare against, and
    the honest baseline for "how many executions did reduction save"
    measurements. Both check the property against every explored
    execution and stop at the first counterexample. *)

open Kernel

type 'a outcome = {
  executions : int;  (** how many schedules were explored *)
  counterexample : (Pid.t list * 'a) option;
      (** the prefix schedule and the check's report for the first
          violating execution, if any *)
}

val unbounded : int
(** [max_int], the [?budget] value meaning "no execution limit" —
    identical to {!Dpor.unbounded}, and identical to what
    {!count_schedules} saturates to. The two agree by construction:
    feeding a saturated schedule count back in as a budget imposes no
    bound, exactly as an un-representable true count should. *)

val sat_add : int -> int -> int
(** {!Dpor.sat_add}: non-negative addition saturating at
    {!unbounded}. *)

val exhaustive_prefix :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  ?budget:int ->
  ?should_stop:(unit -> bool) ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** DPOR-backed ({!Dpor.explore}): explores one representative per
    Mazurkiewicz class of depth-bounded prefixes instead of every
    prefix. [make ()] must build a {e fresh}, deterministic world: the
    fiber factory plus a checker run on the completed trace ([Ok] =
    property held, [Error] = violation report). [budget] (default
    {!unbounded}) caps the number of executions; a truncated run
    reports [executions = budget] and no counterexample. [should_stop]
    (default never) is the cooperative-cancellation probe of
    {!Dpor.explore}, polled at the budget check before each
    execution. *)

val naive_prefix :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** The pre-reduction enumerator: every choice of "who steps next" for
    the first [depth] steps, ~[n_plus_1^depth] re-executions. Reference
    oracle only — use {!exhaustive_prefix}. *)

val count_schedules : n_plus_1:int -> depth:int -> int
(** [n_plus_1 ^ depth], the upper bound on executions {!naive_prefix}
    may perform (before quiescence pruning), saturating at [max_int]
    instead of overflowing. *)
