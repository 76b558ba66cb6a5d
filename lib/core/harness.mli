(** One-call drivers for whole protocol runs: build a world (pattern,
    detector, schedule), run a protocol to completion or horizon, and
    return the measurements the experiments aggregate. *)

open Kernel
open Agreement

type measurements = {
  verdict : Sa_spec.verdict;
  last_decision_time : int;  (** time of the latest decision, 0 if none *)
  first_decision_time : int;  (** 0 if none *)
  total_steps : int;
  rounds : int;  (** highest protocol round entered *)
  outcome : Scheduler.outcome;
  query_violations : int;
      (** run-condition (2) breaches found on the trace (always 0 for a
          sound simulator — checked on every harness run) *)
}

val ok : measurements -> bool
(** Spec verdict all green and no query violations. *)

type world = {
  pattern : Failure_pattern.t;
  policy : Policy.t;
  world_rng : Rng.t;  (** generator to derive detector randomness from *)
}

val random_world :
  seed:int -> n_plus_1:int -> max_faulty:int -> ?latest:int -> unit -> world
(** A random failure pattern with at most [max_faulty] crashes and a
    seeded random scheduler, both derived deterministically from
    [seed]. *)

(** {1 Agreement worlds} *)

type 'v replay =
  | History of 'v Sim.source
      (** an oracle history, a pure function of (process, time)
          ({!Detectors.Detector}): each query is checked against it as
          the run happens *)
  | Rebuilt of (unit -> 'v Sim.source)
      (** a history only known once the run is over (a heartbeat
          detector's reconstruction): the run keeps its query events,
          and nothing else, until the history is built *)

val run_agreement :
  label:string ->
  k:int ->
  base:int ->
  horizon:int ->
  replay:'v replay option ->
  ?observers:(Trace.event -> unit) list ->
  fibers:(me:Pid.t -> input:int -> (unit -> unit) list) ->
  decisions:(unit -> (Pid.t * int) list) ->
  rounds:(unit -> int) ->
  world ->
  measurements
(** The one runner for agreement worlds. Run [fibers] for every process
    [p], proposing [base + p], under the world's pattern and policy for
    up to [horizon] steps; check {!Agreement.Sa_spec} with bound [k] on
    [decisions ()]; read [rounds ()] (the highest round entered); and
    count the run as [harness.runs{proto=<label>}]. One observer takes
    the decision times and replays every query of [replay]'s detector
    against its history (run condition 2); the run keeps no trace
    unless the caller's [observers] (default none) keep one. The
    detector itself, if any, is the caller's, already inside the
    fibers. *)

val run_fig1 :
  ?horizon:int ->
  ?stab_time:int ->
  ?escapes:Upsilon_sa.escapes ->
  world ->
  measurements
(** Fig 1 with a fresh Υ history over the world's pattern; inputs are
    distinct per process. *)

val run_fig2 :
  ?snapshot_impl:Memory.Snap.impl -> f:int -> world -> measurements
(** Fig 2 with a fresh Υᶠ history over the world's pattern. *)

val run_omega_k_baseline : ?stab_time:int -> k:int -> world -> measurements
(** The Ωₖ-based baseline under the same conventions. *)

val run_async_attempt : ?horizon:int -> world -> measurements
(** The detector-free skeleton under lock-step round-robin (the
    adversarial schedule) in place of the world's policy. *)

val trace_run :
  observers:(Trace.event -> unit) list ->
  protocol:string ->
  seed:int ->
  n_plus_1:int ->
  f:int ->
  limit:int ->
  (string * world) option
(** Run the world [wfde trace] replays, passing its events to
    [observers] — [Trace.record] into a builder keeps its trace — and
    return [(description, world)],
    where [world] is the pattern and policy the run used: ["fig1"] (Υ
    from the seed's own generator), ["fig2"] (Υᶠ with [f] over a
    separately seeded pattern), or ["async"] (the detector-free
    skeleton, failure-free under lock-step, for [2 * limit] steps).
    [None] for any other protocol name. *)

(** {1 Model checking}

    The {!Check} layer driven end to end: DPOR exploration of a
    {!Check.Scenario} over a sweep of failure patterns, with any found
    counterexample ddmin-shrunk and confirmed by {!Kernel.Policy.script}
    replay. *)

type check_violation = {
  cex_pattern : Failure_pattern.t;  (** minimized failure pattern *)
  cex_prefix : Pid.t list;
      (** minimized schedule prefix — replaying it under
          [Policy.script] with [cex_pattern] reproduces [cex_report] *)
  cex_report : string;
  shrunk : bool;
      (** [false] when the script replay failed to reproduce the raw
          counterexample (the fields then hold the unshrunk original) *)
}

type check_outcome = {
  check_obj : Check.Scenario.obj;
  check_procs : int;
  check_depth : int;
  check_horizon : int;
  check_mutant : Mutant.t option;
  patterns_swept : int;
      (** failure patterns explored before stopping (all of them, or up
          to and including the first with a violation) *)
  executions : int;  (** total DPOR executions across the sweep *)
  sleep_blocked : int;
  deduped : int;  (** trace-equivalent prefixes skipped without running *)
  races : int;
  backtrack_points : int;
  naive_bound : int;
      (** [procs^depth], what unreduced enumeration of one pattern could
          cost ({!Check.Explore.count_schedules}, saturating) *)
  violation : check_violation option;
}

val check_exhaustive :
  ?jobs:int ->
  ?procs:int ->
  ?depth:int ->
  ?horizon:int ->
  ?patterns:Failure_pattern.t list ->
  ?should_stop:(unit -> bool) ->
  ?spans:Obs.Span.scope ->
  ?mutant:Mutant.t ->
  Check.Scenario.obj ->
  check_outcome
(** Explore the scenario under each pattern (default:
    {!Check.Scenario.patterns}) until a violation is found or the sweep
    is exhausted; [procs] is clamped up to the scenario's
    {!Check.Scenario.min_procs}, defaults are [procs >= 2], [depth = 6],
    [horizon = 400]. [mutant] is planted into every world the check
    builds ({!Check.Scenario.make}) — exploration {e and} shrink replays
    — and into nothing else, so checks with different mutants, and any
    other work, can run concurrently. Updates [harness.check.*] and
    [check.dpor.*] metrics.

    The sweep is sharded into one work unit per (pattern, DPOR root
    branch) and run on an {!Exec.Pool} with [jobs] workers (default 1).
    The unit list, the merge (keyed by unit index), and the
    first-violation cut are identical at every [jobs], so the outcome —
    including [patterns_swept] and the aggregated stats — is
    deterministic across [-j] values.

    [should_stop] (default never) is polled before each DPOR execution
    of every unit ({!Check.Dpor.explore}'s cooperative-cancellation
    hook): once it returns [true] the sweep winds down without a
    counterexample, reporting only the work already done. The service
    layer wires per-request deadlines into it; with [jobs > 1] the
    callback is invoked from pool worker domains and must be
    domain-safe (e.g. read a wall-clock deadline or an [Atomic.t]). A
    cancelled outcome is {e not} a verification and is timing-dependent
    — callers must not feed it into determinism-sensitive output.

    [spans] (default {!Obs.Span.null}) records the sweep's profile:
    a [check.probe] span around the serial root-branch probes, one
    [dpor.p<pattern>] / [dpor.p<pattern>.b<branch>] span per work unit
    with [dpor.executions] and [dpor.race_analysis] phase children
    (via {!Check.Dpor}'s [on_phase] hook), and [check.shrink] around
    counterexample minimization. Worker domains only return timings as
    data; the coordinator emits every span in unit order, so span
    structure is byte-identical across [-j] values. Phase children are
    laid out back-to-back from the unit start (durations are real,
    positions synthesized). *)

val check_outcome_json : check_outcome -> Obs.Json.t
(** Stable machine-readable rendering (the [wfde check --json]
    payload). *)

val run_extraction_of :
  f:int ->
  source:
    [ `Omega
    | `Omega_k of int
    | `Ev_perfect
    | `Perfect
    | `Upsilon_f
    | `Vitality of Pid.t
    | `Omega_batched of int
    | `Hb_ev_perfect of Link.config ]
  ->
  world ->
  (unit, string) result * int
(** Run the Fig-3 extraction from the given stable source for 150,000
    steps; returns the Υᶠ-spec verdict on the extracted variable (its
    last 25,000 steps must be stable) and the time of the last
    extracted-output change among correct processes (stabilization
    time). [`Hb_ev_perfect net] feeds the extraction an {e implemented}
    ◇P: heartbeat monitors ({!Detectors.Hb_ev_perfect}) run alongside
    the extraction fibers over a partially synchronous link, and the
    world's policy turns fair at the link's GST
    ({!Kernel.Policy.fair_after}). *)

(** {1 Implemented (heartbeat) detectors} *)

val run_hb_detector :
  mode:[ `Ev_perfect | `Ev_strong ] ->
  net:Link.config ->
  world ->
  (unit, string) result * int
(** Run only the heartbeat monitors of the given mode, with default
    parameters, for 6,000 steps over a fresh partially synchronous link
    in the given world (policy fair from the link's GST), then check
    the link's partial-synchrony contract, crash isolation, and the
    mode's detector spec ({!Detectors.Hb_ev_perfect.check} /
    {!Detectors.Hb_ev_strong.check}) on the reconstructed history.
    Returns the verdict and the empirical stabilization time. *)

val run_msg_consensus :
  ?horizon:int ->
  ?omega_impl:Link.config ->
  world ->
  measurements * (unit, string) result
(** E11's message-passing consensus (Ω + commit–adopt over ABD) as a
    one-call driver; the second component is the linearizability
    verdict on the emulated memory. With [omega_impl] the protocol's Ω
    is not an oracle but the live min-unsuspected leader of a heartbeat
    ◇P over the given link; recorded leader queries are then replayed
    against {!Reduction.Pairwise.omega_of_ev_perfect} of the
    reconstructed history, so [query_violations] certifies the live
    view agreed with the reconstruction. *)
