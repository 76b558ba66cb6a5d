(** Whole protocol runs. A run is a world (failure pattern, detector
    randomness, schedule) plus one algorithm, run to completion or to a
    horizon. {!run} takes the paper's agreement protocols as one
    {!setup} value, and {!run_agreement} runs any other agreement
    world; the rest drive the model checker, the Fig-3 extraction and
    the heartbeat detectors. Each returns what the experiments
    aggregate. *)

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
  fibers:(me:Pid.t -> input:int -> (unit -> unit) list) ->
  decisions:(unit -> (Pid.t * int) list) ->
  rounds:(unit -> int) ->
  world ->
  measurements
(** The one way an agreement world runs. Run [fibers] for every process
    [p], proposing [base + p], under the world's pattern and policy for
    up to [horizon] steps; check {!Agreement.Sa_spec} with bound [k] on
    [decisions ()]; read [rounds ()] (the highest round entered); and
    count the run as [harness.runs{proto=<label>}]. One observer takes
    the decision times and replays every query of [replay]'s detector
    against its history (run condition 2); the run keeps no trace. The
    detector itself, if any, is the caller's, already inside the
    fibers. *)

(** The paper's protocols, each with the parameters it reads. *)
type protocol =
  | Fig1 of { stab_time : int option; escapes : Upsilon_sa.escapes }
      (** Υ stabilizes at [stab_time] (default: drawn) *)
  | Fig2 of { f : int; snapshot : Memory.Snap.impl; pinned : bool }
      (** [pinned]: Υᶠ outputs Π from time 0, so every correct process
          takes the snapshot path *)
  | Omega_n of { stab_time : int }  (** the Ωₙ-based baseline [18] *)
  | Async  (** the detector-free skeleton *)

type setup = {
  protocol : protocol;
  horizon : int;
  observers : (Trace.event -> unit) list;
      (** passed every event after the runner's own observer; they
          cannot change the measurements *)
}

val default_horizon : int
(** 2,000,000 steps. *)

val setup : protocol -> setup
(** [protocol] with {!default_horizon} and no observers. *)

val run : setup -> world -> measurements
(** Run the protocol through {!run_agreement}, its detector history
    drawn from the world's [world_rng]. *)

val trace_setup :
  protocol:string ->
  seed:int ->
  n_plus_1:int ->
  f:int ->
  limit:int ->
  (string * setup * world) option
(** What [wfde trace] runs, as [(description, setup, world)]: ["fig1"]
    (Υ from the seed's own generator), ["fig2"] (Υᶠ with [f] over a
    separately seeded pattern), each for 500,000 steps, or ["async"]
    (failure-free under lock-step, for [2 * limit] steps, at most
    500,000). [None] for any other protocol name. *)

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

(** Where a run's detector comes from: an oracle history of the
    failure pattern, as in the paper, or heartbeat monitors
    ({!Detectors.Heartbeat}) running beside the protocol over a
    partially synchronous link with this config, under a policy that
    turns fair at the link's GST ({!Kernel.Policy.fair_after}). *)
type detectors = Oracle | Heartbeat of Link.config

val run_extraction_of :
  f:int ->
  source:
    [ `Omega
    | `Omega_k of int
    | `Ev_perfect of detectors
    | `Perfect
    | `Upsilon_f
    | `Vitality of Pid.t
    | `Omega_batched of int ]
  ->
  world ->
  (unit, string) result * int
(** Run the Fig-3 extraction from the given stable source for 150,000
    steps; returns the Υᶠ-spec verdict on the extracted variable (its
    last 25,000 steps must be stable) and the time of the last
    extracted-output change among correct processes (stabilization
    time). With [`Ev_perfect (Heartbeat net)] the extraction queries
    the live state of an {e implemented} ◇P
    ({!Detectors.Hb_ev_perfect}). *)

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
  horizon:int ->
  detectors:detectors ->
  world ->
  measurements * (unit, string) result
(** E11's message-passing consensus (Ω + commit–adopt over ABD) as a
    one-call driver; the second component is the linearizability
    verdict on the emulated memory. With [Oracle], Ω is an oracle
    history. With [Heartbeat net] it is the live min-unsuspected
    leader of a heartbeat ◇P; recorded leader queries are then
    replayed against {!Reduction.Pairwise.omega_of_ev_perfect} of the
    reconstructed history, so [query_violations] certifies the live
    view agreed with the reconstruction. *)
