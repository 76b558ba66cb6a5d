(** The shared heartbeat engine behind the {e implemented} detectors
    ◇P ({!Hb_ev_perfect}) and ◇S ({!Hb_ev_strong}).

    Every other detector in this library is an oracle: its history
    [H(p,t)] is a pure function conjured from the failure pattern. This
    module instead {e computes} a detector inside the run, with no
    access to the pattern, using the classic increasing-timeout
    algorithm over a partially synchronous {!Kernel.Link}:

    - every process broadcasts a heartbeat every [period] steps;
    - [me] suspects [q] once [now - last_seen(q) > timeout(q)];
    - a heartbeat from a suspected process proves the suspicion false:
      [q] is restored and the timeout is increased by [timeout_inc].

    After GST, heartbeats arrive within [delta] of each send, so
    timeouts stop being exceeded once they out-grow the real bound:
    eventually no correct process is falsely suspected (accuracy), while
    crashed processes stop sending and stay suspected forever
    (completeness). The [mode] selects which accuracy the instance aims
    for — and thus how timeouts adapt:

    - [Common_timeout]: one adaptive timeout per observer, raised for
      {e all} targets on any false suspicion — the ◇P construction;
    - [Per_target]: timeouts adapt per (observer, target) link — the
      cheaper ◇S-style construction (here over reliable-after-GST links
      it also converges to ◇P-strength output; the wrappers still
      validate it only against the ◇S spec it promises).

    Determinism: state changes only inside the owner's [Send]/[Recv]/
    poll steps, timer math is step-count arithmetic, and message fates
    are pure draws — same config and schedule replay byte-identically.

    Validation: protocols query the {e live} {!source}; every suspicion
    change is logged with its time, and {!to_detector} rebuilds the full
    history [H(p,t)] from the logs after the run (exact, because at most
    one step happens per time unit). The rebuilt detector shares the
    live source's name, so {!Core.Oracle}-style query replay and the
    {!Ev_perfect.check} / {!Hb_ev_strong.check} spec validators all run
    against what the protocol actually saw. *)

open Kernel

(** {1 Engine} *)

type mode = Common_timeout | Per_target

type params = {
  period : int;  (** heartbeat broadcast cadence, in steps *)
  timeout0 : int;  (** initial suspicion timeout *)
  timeout_inc : int;  (** raise per false suspicion *)
}

val default_params : params
(** [period=6, timeout0=4, timeout_inc=8]. *)

val check_params : params -> unit
(** Raises [Invalid_argument] unless all fields are positive. *)

type t

val create :
  name:string ->
  n_plus_1:int ->
  mode:mode ->
  ?params:params ->
  net:Link.config ->
  unit ->
  t
(** A fresh engine over a fresh link named [name]. *)

val unsafe_plant : t -> Mutant.t -> unit
(** Harness-only, no steps: plant a bug in this engine alone; each
    disables one load-bearing mechanism and must be caught by the spec
    validators.
    - {!Mutant.Hb_timeout_never_increased}: false suspicions no longer
      raise timeouts, so premature timeouts recur forever and eventual
      accuracy fails on slow-enough links;
    - {!Mutant.Hb_suspected_not_restored}: a heartbeat from a suspected
      process no longer restores it, so any single pre-GST false
      suspicion becomes permanent.

    Every other mutant is ignored. For checker regression tests only. *)

val link : t -> unit Link.t

val fiber : ?until:(unit -> bool) -> t -> me:Pid.t -> unit -> unit
(** The monitor loop for one process: poll, process heartbeats, beat if
    due, scan timeouts; repeat. Run it alongside the protocol's fibers.
    By default it never returns, so runs are horizon-bounded; [until]
    (polled once per iteration, outside any scheduler step) makes the
    loop exit once it returns [true], letting the run quiesce when the
    protocol the detector serves is done. *)

(** {1 Query surface} *)

val source : t -> Pid.Set.t Sim.source
(** Live queries: [sample p _] is [p]'s {e current} suspect set. Use
    with {!Sim.query} from the protocol, exactly like an oracle
    detector's source. *)

val leader_source : t -> Pid.t Sim.source
(** Live Ω view: the smallest currently-unsuspected pid (self if all
    suspected) — the same extraction as {!Reduction.Pairwise.
    omega_of_ev_perfect}, sharing its [name ^ ">omega"] naming so query
    replay matches the post-run [omega_of_ev_perfect (to_detector t)]. *)

(** {1 Post-run oracles} *)

val to_detector : t -> Pid.Set.t Detector.t
(** The full history reconstructed from the change logs; agrees with
    every value the live {!source} returned during the run. *)

val last_change : t -> Pid.t -> int
(** Time of [p]'s last suspicion-set change (0 if none). *)

val stabilized_at : t -> only:(Pid.t -> bool) -> int
(** Latest {!last_change} over the selected observers — the empirical
    stabilization time a validator should check from. *)

val stabilization_window :
  min_tail:int ->
  t ->
  pattern:Failure_pattern.t ->
  horizon:int ->
  (int, string) result
(** The time a detector spec is checked from: past the last suspicion
    change at any correct process and past the last crash; an error
    when fewer than [min_tail] steps remain before [horizon]. *)
