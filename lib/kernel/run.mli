(** One-shot run harness: assemble fibers, schedule to an outcome.

    A run keeps nothing of its events: they stream to the caller's
    observers as they happen, and the result holds only the facts every
    caller reads. A caller that wants the trace keeps it in an observer,
    [Trace.record] into a [Trace.builder] — [wfde trace], the exported
    goldens and the tests do. *)

type result = {
  outcome : Scheduler.outcome;
  steps : int;  (** total steps executed *)
  last_time : int;
      (** time of the last event: the last step, or a crash recorded
          after it ({!Scheduler.last_time}) — equal to {!Trace.last_time}
          of the run's trace *)
  crashes : (Pid.t * int) list;
      (** [(pid, time)] of every crash the run reached, in pid order *)
}

val fibers :
  pattern:Failure_pattern.t -> procs:(Pid.t -> (unit -> unit) list) ->
  Fiber.t list
(** One fiber per thunk returned by [procs pid], for every process of
    the pattern in pid order. Every driver of a world ({!exec}, the
    model checker, the adversary) spawns its fibers here. *)

val exec :
  pattern:Failure_pattern.t ->
  policy:Policy.t ->
  ?horizon:int ->
  ?observers:(Trace.event -> unit) list ->
  procs:(Pid.t -> (unit -> unit) list) ->
  unit ->
  result
(** Builds the {!fibers} of [procs] and runs up to [horizon] steps
    (default 100_000), passing each event to every observer in order
    (default none). Protocol state (registers, decision tables) lives in
    the closures. *)

val of_scheduler : Scheduler.t -> Scheduler.outcome -> result
(** The result of a run driven step by step, stopped with the given
    outcome. *)
