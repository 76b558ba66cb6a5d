(** One-shot run harness: assemble fibers, schedule to an outcome. *)

type result = {
  outcome : Scheduler.outcome;
  events : Trace.builder;
      (** everything the run recorded; read it with {!iter} or build the
          list with {!trace} *)
  steps : int;  (** total steps executed *)
}

val exec :
  pattern:Failure_pattern.t ->
  policy:Policy.t ->
  ?horizon:int ->
  procs:(Pid.t -> (unit -> unit) list) ->
  unit ->
  result
(** Builds one fiber per thunk returned by [procs pid] (named
    ["p<i>/t<j>"]) and runs up to [horizon] steps (default 100_000).
    Protocol state (registers, decision tables) lives in the closures. *)

val trace : result -> Trace.t
(** The run's trace as a list, built on each call (one cons per event):
    summaries that only fold over the events use {!iter} instead. *)

val iter : result -> (Trace.event -> unit) -> unit
(** Apply a function to every event in order, without building the
    list. *)

val last_time : result -> int
(** {!Trace.last_time} of the run, without building the list. *)
