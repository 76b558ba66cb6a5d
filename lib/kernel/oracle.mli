(** Trace oracles: machine checks of the model's run conditions (§3.3)
    and convenience accessors for problem specs. *)

type violation = { condition : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val check_run_conditions :
  Failure_pattern.t -> Trace.t -> violation list
(** Checks, on the (finite) trace:
    - condition (1): no step by a process at or after its crash time;
    - condition (3): at most one step per time value;
    - monotonicity: event times are non-decreasing;
    - crash events match the pattern.
    An empty list means the trace is a legal partial run. *)

val check_query_values : 'v Sim.source -> Trace.t -> violation list
(** Run condition (2): every recorded query value of the given detector
    matches its history at that (process, time). A {!Sim.Value} whose
    source shares the given source's witness ([id]) is compared with the
    given source's [equal]; a {!Sim.Note}, or a value of another
    witness, is compared by rendering. *)

val query_violation : 'v Sim.source -> Trace.event -> violation option
(** {!check_query_values} on one event, for a single pass over a run's
    events ({!Run.iter}). *)

val starvation :
  Failure_pattern.t -> Trace.t -> window:int -> Pid.Set.t
(** Correct processes that take no step during the last [window] time
    units of the trace — a fairness smell for bounded runs (condition (5)
    only binds infinite runs). *)

val proposals : Trace.t -> (Pid.t * int) list
(** Inputs recorded under label ["propose"], parsed as ints. *)

val decisions : Trace.t -> (Pid.t * int) list
(** Outputs recorded under label ["decide"], parsed as ints. *)

val decision_times : Trace.t -> (Pid.t * int) list
(** [(pid, time)] of each ["decide"] output. *)

val decision_time : Trace.event -> (Pid.t * int) option
(** [(pid, time)] if the event is a ["decide"] output. *)
