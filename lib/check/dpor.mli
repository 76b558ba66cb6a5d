(** Dynamic partial-order reduction over schedule prefixes.

    Like {!Explore.naive_prefix} this enumerates the choices of "who
    steps next" for the first [depth] steps of a run, completing every
    prefix deterministically with round-robin up to a horizon and
    checking the property on each completed execution. Unlike the naive
    enumerator it prunes: two prefixes that differ only in the order of
    {e independent} steps lead to equivalent executions (same
    Mazurkiewicz trace), so only one representative per equivalence
    class needs to run. The algorithm is stateless DPOR in the
    source-set style (Abdulla–Aronis–Jonsson–Sagonas, POPL 2014), with
    three reduction mechanisms layered on the Flanagan–Godefroid
    vector-clock race analysis:

    - {b source sets}: for each racing pair the analysis computes the
      reversing sequence [v = notdep(i) . j]; when a weak initial of
      [v] is already scheduled at the race's node (backtrack, explored,
      or sleep) nothing is inserted, otherwise exactly one process —
      the head of [v] — is, instead of the whole E-set the
      persistent-set rule would add;
    - {b wakeup sequences}: the inserted process carries [v] as a
      prescription; when it is later picked, the next run schedules
      [v]'s steps verbatim with sleep sets bypassed, so the reversal
      replays its recorded witness instead of rediscovering it (the
      single-branch form of the wakeup trees of optimal DPOR);
    - {b schedule fingerprinting}: every executed window prefix is
      keyed up to Mazurkiewicz equivalence (Foata levels + step codes,
      combined commutatively into an interned hash); a retargeted
      candidate prefix whose key was already executed is skipped
      outright and counted in [stats.deduped]. Only prescription-free
      candidates are eligible, and only {e executed} prefixes enter the
      table, so every skip points at work actually performed.

    Sleep sets are retained as the redundancy filter: a process
    sleeping at a node is never picked there, and a free extension
    whose enabled set is all-sleeping marks the run [sleep_blocked]. A
    race confined entirely to the round-robin tail cannot be reversed
    directly; following bounded partial-order reduction
    (Coons–Musuvathi–McKinley), the later process is conservatively
    offered at the deepest window node, which lets subsequent analyses
    pull the race into the window step by step. The offer is bounded:
    only tail races whose earlier step falls within one scheduler
    rotation of the window boundary trigger it — deeper races are
    reached incrementally as accepted offers rotate the tail. The
    bound, like the offer itself, is a heuristic of the bounded-window
    regime, not a completeness theorem: a violation reachable only by
    reordering steps deep in the deterministic tail can escape this
    explorer. The naive enumerator ({!Explore.naive_prefix}) is the one
    reference oracle: the differential battery in [test_dpor_diff]
    carries a generated witness of that blind spot, and in the regime
    where completeness {e is} a theorem — full-window, crash-free
    exploration — it asserts verdict agreement with the naive
    enumerator and an exact count: [executions - sleep_blocked] equals
    the number of Mazurkiewicz classes among all full schedules.

    Independence is computed from step labels ({!Kernel.Sim.kind}):

    - steps of the same process never commute (program order);
    - reads commute with reads; a read and a write, or two writes,
      commute iff they name different objects;
    - [Nop]/[Output]/[Input] steps touch no shared object and commute
      with everything cross-process;
    - [Query] steps commute with nothing: a detector sample is a
      function of the global time, so reordering {e any} pair of steps
      across a query can change the sampled value.

    Soundness caveats, both deliberate conservatisms of the label-based
    relation: (1) an atomic closure can read the global clock
    ([ctx.now]), and swapping two independent steps shifts both their
    times by one — properties sensitive to the exact {e times} of
    independent steps (rather than to the order of conflicting
    accesses) are outside the reduction's guarantee. The memory-layer
    history recorders timestamp operations by their shared-object
    access steps precisely so that derived precedence is stable under
    such swaps; ABD op boundaries (client-local marker and probe steps)
    retain a residual sensitivity, which is why every executed run —
    including sleep-set-blocked ones — is still checked against the
    property as a safety net. (2) cross-process [Output] ordering is
    considered irrelevant, so checked properties must not depend on the
    relative trace order of outputs by different processes (values and
    per-process order are fine). *)

open Kernel

type stats = {
  executions : int;  (** completed runs, including sleep-blocked ones *)
  sleep_blocked : int;
      (** runs whose prefix extension hit an all-sleeping enabled set:
          provably redundant, still executed to completion (and
          checked) but not race-analyzed *)
  deduped : int;
      (** candidate prefixes skipped without running because an
          executed prefix with the same Mazurkiewicz-trace fingerprint
          already covers their class *)
  races : int;  (** racing step pairs found across all prefixes *)
  backtrack_points : int;  (** alternatives inserted by race analysis *)
}

type 'a outcome = {
  stats : stats;
  counterexample : (Pid.t list * 'a) option;
      (** the first [depth] scheduled pids of the first violating
          execution, and the checker's report. Replaying the prefix via
          {!Policy.script} (falling back to round-robin) over a fresh
          identical world reproduces the violation. *)
}

val unbounded : int
(** [max_int] — the [?budget] value meaning "no execution limit". This
    is also what {!Explore.count_schedules} saturates to, so a
    saturated schedule count used as a budget is, correctly, no bound
    at all. *)

val sat_add : int -> int -> int
(** Addition saturating at {!unbounded}, for folding per-branch
    {!stats} without wrapping past [max_int]. Arguments must be
    non-negative. *)

val independent : Pid.t -> Sim.kind -> Pid.t -> Sim.kind -> bool
(** The label-based independence relation the race analysis and the
    fingerprints are both built on: same-process steps and
    detector queries commute with nothing, reads commute with reads,
    and every shared-object conflict is keyed by object name; [Send]
    and [Recv] conflict exactly like [Write]. Exposed so the
    differential battery can group the naive enumerator's schedules
    into Mazurkiewicz classes with the same relation. *)

val merge_stats : stats -> stats -> stats
(** Field-wise saturating sum, for aggregating sharded branch
    explorations into one report. *)

val explore :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  ?budget:int ->
  ?should_stop:(unit -> bool) ->
  ?on_phase:(string -> int -> unit) ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** [make ()] must build a fresh, deterministic world: a fiber factory
    plus a checker run on the completed trace ([Ok] = property held).
    It is called once per explored schedule; two calls must yield
    behaviourally identical worlds (this is what makes replay and
    backtracking meaningful). Exploration stops at the first
    counterexample, or after [budget] executions (default
    {!unbounded}): a truncated exploration reports
    [stats.executions = budget] and no counterexample — it is {e not} a
    verification of the remaining schedules.

    [should_stop] (default [fun () -> false]) is polled at the same
    point as the budget, i.e. once before each execution: returning
    [true] truncates the exploration exactly as an exhausted budget
    would (no counterexample, stats reflect the work done). This is the
    cooperative-cancellation hook request deadlines are wired into; the
    callback must be cheap and, when the caller shards branches over
    {!Exec.Pool} domains, safe to call from any worker domain.

    [on_phase] (default absent) is the span-profiling hook, wired the
    same way as [should_stop]: when present, the exploration measures
    wall time spent in its two phases and calls
    [on_phase "dpor.executions" us] then
    [on_phase "dpor.race_analysis" us] exactly once each, just before
    returning — aggregated microseconds, not per-execution events, so
    the reported span {e structure} does not depend on how many
    schedules the search visited. No clock is read when the hook is
    absent. The callback runs on whichever domain runs the exploration.

    Also updates the [check.dpor.*] metrics: [executions],
    [sleep_blocked], [deduped], [races], [backtrack_points] counters
    and the [check.dpor.execution_steps] histogram, cumulative across
    calls (use {!Obs.Metrics.reset} between measurements). *)

(** {1 Branch sharding}

    The first scheduling position splits the exploration tree into one
    independent subtree per initially-enabled process. Each subtree can
    be explored by {!explore_branch} in isolation — on another domain,
    with its own sleep sets — and the per-branch {!stats} folded with
    {!merge_stats}. Branch [i] is explored with branches [0 .. i-1]
    preset as explored at the root, giving it the same sleep sets a
    serial left-to-right pass would, so the union over all branches
    covers every Mazurkiewicz class at least once without the branches
    coordinating. *)

val root_branches :
  pattern:Failure_pattern.t ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  (Pid.t * Sim.kind) list
(** The enabled processes (with their pending step labels) at the first
    scheduling position of a fresh world, in pid order — the shardable
    root branches. Empty when the world has no step to take (e.g. every
    process crashes at time 0); callers should then fall back to a
    single {!explore} unit so the lone execution is still checked. *)

val explore_branch :
  pattern:Failure_pattern.t ->
  depth:int ->
  horizon:int ->
  ?budget:int ->
  ?should_stop:(unit -> bool) ->
  ?on_phase:(string -> int -> unit) ->
  branches:(Pid.t * Sim.kind) list ->
  index:int ->
  make:
    (unit ->
    (Pid.t -> (unit -> unit) list) * (Trace.t -> (unit, 'a) result)) ->
  unit ->
  'a outcome
(** Explore only the subtree whose first step is [List.nth branches
    index]. [branches] must be the {!root_branches} of the same world;
    [depth] must be >= 1. Same metrics, budget, [should_stop],
    [on_phase], and counterexample semantics as {!explore}. *)
