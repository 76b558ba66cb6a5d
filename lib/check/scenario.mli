(** Canonical worlds for the [wfde check] command and the harness.

    Each scenario builds a small, deterministic multi-process world
    around one shared-object implementation together with the property
    to verify on every explored execution. The [make] thunk matches
    {!Dpor.explore}'s [make] argument.

    - [Register]: every process writes and reads one shared atomic
      register, history checked with Wing–Gong against the sequential
      register spec;
    - [Snapshot]: [procs - 1] single-slot updaters plus one scanner
      over an Afek-et-al. snapshot, checked against the sequential
      snapshot spec. (The {!Mutant.Snapshot_single_collect} violation
      needs [procs >= 3]: with two processes every inconsistent view is
      still linearizable.)
    - [Abd]: an ABD emulated register with a write stranded mid-update
      before the run begins (its value reached only p2's replica; p2's
      fate is left to the failure pattern) and p1 reading twice;
      atomicity is checked with Wing–Gong, the half-applied write
      entering the history as a pending operation;
    - [Commit_adopt]: every process runs commit–adopt on a distinct
      input; the trace-independent result table is checked for
      C-Validity and the commit–adopt agreement property.
    - [Hb_detector cfg]: every process runs a heartbeat ◇P monitor
      ({!Detectors.Hb_ev_perfect}) over a partially synchronous
      {!Kernel.Link} with config [cfg]; checked are the link's
      partial-synchrony contract, crash isolation, and ◇P conformance
      of the reconstructed history — so exploration proves pre-GST
      delay and loss cannot break the detector's spec, and catches the
      planted heartbeat mutants ({!Mutant.Hb_timeout_never_increased},
      {!Mutant.Hb_suspected_not_restored}).
    - [Link_chaos cfg]: periodic broadcasters over the same link;
      checked are the link contract, crash isolation, and bounded
      delivery liveness to correct processes.

    The heartbeat and link-chaos worlds never quiesce (their fibers
    loop forever); explore them with a horizon a few times the depth.
    The ABD world stops once p1 has read twice or crashed: its servers
    are {!Kernel.Sim.daemon}s. For the parameterized
    scenarios keep [depth <= cfg.gst] so the explored perturbations are
    pre-GST (the tail completion is round-robin, which post-GST is
    exactly the fair scheduling partial synchrony promises). *)

open Kernel

type obj =
  | Register
  | Snapshot
  | Abd
  | Commit_adopt
  | Hb_detector of Link.config
  | Link_chaos of Link.config

val default_chaos : Link.config
(** [gst=12, delta=2, pre_delay=6, loss=50, seed=3] — the canonical
    adversarial link: a DPOR window of depth <= 12 is entirely pre-GST,
    with heavy loss and delay before it. *)

val all : obj list
(** The four shared-object scenarios plus [Hb_detector default_chaos]
    and [Link_chaos default_chaos]. *)

val to_string : obj -> string
(** Stable CLI names: [register], [snapshot], [abd], [commit-adopt],
    [hb-detector(gst=..,delta=..,pre_delay=..,loss=..,seed=..)],
    [link-chaos(...)]. *)

val of_string : string -> (obj, string) result
(** Inverse of {!to_string}; bare [hb-detector] / [link-chaos] select
    {!default_chaos}. *)

val min_procs : obj -> int

val max_procs : obj -> int
(** [Register] 15 and [Snapshot] 61, whose histories must fit
    {!Lin.check}'s 62 events; {!Kernel.Pid.max_procs} for the rest. *)

val mutant_of_string : obj -> string -> (Mutant.t, string) result
(** {!Mutant.of_string}, refusing a mutant that does not target [obj]
    with a one-line error naming its target. abd-skip-write-back
    targets [Abd], snapshot-single-collect [Snapshot],
    converge-drop-phase2 [Commit_adopt], and both heartbeat mutants
    [Hb_detector]; [Register] and [Link_chaos] take none. A check of
    an object with a mutant aimed elsewhere plants nothing, so finding
    no violation would look like a missed bug: the [wfde check]
    command and the daemon's [check] method read [--mutant] through
    this. *)

val make :
  ?mutant:Mutant.t ->
  obj ->
  procs:int ->
  unit ->
  (Pid.t -> (unit -> unit) list) * (Run.result -> (unit, string) result)
(** A fresh world builder; deterministic, as {!Dpor.explore} requires.
    [procs] is the process count n+1. [mutant] is planted into every
    object each world builds (through its [unsafe_plant] hook), so the
    bug lives in that world alone — concurrent builders with different
    mutants never see each other's; objects it does not target ignore
    it. Raises [Invalid_argument] below {!min_procs} or above
    {!max_procs}. *)

val patterns : obj -> procs:int -> Failure_pattern.t list
(** The failure patterns worth sweeping for this scenario: always
    failure-free first, plus crash patterns that matter (for [Abd]: the
    replica-seeding process crashing at a range of times, which is what
    can strand the seeded write's value). Exploration sweeps these in
    order. *)
