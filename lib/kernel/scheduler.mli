(** The discrete-event scheduler: serializes fibers into a run.

    One scheduled step = one atomic shared-object operation or detector
    query = one tick of global time, matching runs as defined in §3.3.
    Crashes come from the failure pattern: a process whose crash time is
    [t] takes no step at any time ≥ [t], and its fibers are killed when
    the clock first reaches [t].

    A scheduler counts its steps, policy decisions, fiber suspensions
    and detector queries in its own fields and adds them to the metrics
    registry of the domain that created it when {!run} or {!step}
    returns, also when a fiber's exception escapes it. So it must be
    stepped in that domain, and a registry read during a run lags by
    that run. *)

type t

type outcome =
  | Horizon      (** step budget exhausted *)
  | Quiescent
      (** no runnable non-daemon fiber: every fiber is done, killed, or a
          {!Sim.daemon} — daemons alone never keep a run going *)
  | Policy_stop  (** the policy returned [None] *)

val observed :
  ?observe:(Trace.event -> unit) ->
  pattern:Failure_pattern.t ->
  policy:Policy.t ->
  fibers:Fiber.t list ->
  unit ->
  t
(** A scheduler that passes every event (each step, each crash) to
    [observe] as it happens, in time order, and keeps none of them:
    whoever wants a trace keeps one in the observer
    ([Trace.record] into a builder). Without [observe] it builds no
    event at all. {!Run.exec} builds its scheduler this way.

    Fibers must not be started yet; [observed] starts them (cost-free
    local prefix), which is where a fiber declares itself a
    {!Sim.daemon}. Fibers of processes crashed at time 0 are killed
    immediately. *)

val create :
  pattern:Failure_pattern.t ->
  policy:Policy.t ->
  fibers:Fiber.t list ->
  t
(** {!observed} with every event retained for {!trace}. *)

val now : t -> int

val pending : t -> (Pid.t * Sim.kind) list
(** The currently enabled processes (alive, with a runnable fiber), each
    paired with the kind of the step it would take if scheduled next, in
    pid order. Does not advance the run or the per-process fiber
    rotation. Model checkers use this to compute the independence
    relation over the next transitions without committing to one.

    Note the enabled set the policy will actually see at the next
    {!step} may differ: crashes whose time is reached by that step are
    processed first. *)

val iter_pending : t -> (Pid.t -> Sim.kind -> unit) -> unit
(** [pending] without building the list: applies the function to each
    enabled (pid, next-step kind) in pid order (checker hot paths). *)

val step : t -> [ `Stepped of Pid.t | `Stopped of outcome ]
(** Advance the run by one step. The enabled set the policy receives is
    kept as fibers finish and crash, so a step neither scans the
    processes nor allocates a list or a closure. Stops [Quiescent] as
    soon as the count of runnable non-daemon fibers (kept the same way,
    so the check is O(1)) reaches 0. Until then the enabled set still
    includes daemons, so a run's trace does not depend on whether its
    service fibers are daemons — marking them only cuts the idle
    tail. *)

val run : t -> max_steps:int -> outcome
(** Step until an outcome is reached or [max_steps] steps execute. Can be
    called repeatedly to extend the run. *)

val last_time : t -> int
(** The time of the latest event so far: the clock, or a crash recorded
    one tick past it when the run stopped there. O(1). *)

val crashes : t -> (Pid.t * int) list
(** [(pid, time)] of every crash the run has reached, in pid order. *)

val trace : t -> Trace.t
(** Trace of everything executed so far, for a scheduler made with
    {!create}. Raises [Invalid_argument] for one made with {!observed}:
    its events went to the observer. *)

val flush_metrics : t -> unit
(** Does nothing: {!run} and {!step} publish their counts before they
    return. Kept only because the benchmark's [Stepper] still calls it;
    it goes when that caller does. *)
