(** The process-facing simulation API.

    Protocol code runs inside a fiber and interacts with the world only
    through {!atomic}, which performs exactly one step of the model
    (paper §3.3): the supplied closure executes atomically at the instant
    the scheduler grants the step, and the fiber resumes with its result.
    Everything a protocol computes between two [atomic] calls is local
    computation, which the model does not charge for.

    The substrate libraries wrap [atomic] into typed operations:
    register read/write ({!Memory.Register}), detector queries ({!query}),
    and input/output events. *)

type 'v source = {
  name : string;
  sample : Pid.t -> int -> 'v;
  render : 'v -> string;
  equal : 'v -> 'v -> bool;
  id : 'v Type.Id.t;
}
(** A failure-detector module: [sample p t] is H(p, t), the value the
    oracle shows process [p] at time [t] (paper §3.2). [render] prints a
    value for traces and exports; [equal] compares two values. [id]
    witnesses the value type. Every source of one value type must carry
    the same witness (the {!Witness} ones for the types here), so a value
    recorded from one source can be checked with [equal] against another
    source's history — a heartbeat run queries a live, mutable source and
    is validated against the history reconstructed after the run. *)

(** The shared value-type witnesses. *)
module Witness : sig
  val pid : Pid.t Type.Id.t
  val pid_set : Pid.Set.t Type.Id.t
  val bool : bool Type.Id.t
end

(** What a step records beside its kind. *)
type payload =
  | No_payload
  | Note of string
      (** A rendered value: what a trace reloaded from JSONL holds. *)
  | Value : 'v source * 'v -> payload
      (** The value a detector query returned, with the source that
          returned it. Rendered only when a trace is printed or exported;
          it holds closures, so compare traces by their exports, not
          with [=]. *)

val render_payload : payload -> string option
(** The payload as trace notes print it: [None] for [No_payload]. *)

type ctx = { mutable pid : Pid.t; mutable now : int; mutable payload : payload }
(** Identity of the stepping process and the global time of the step,
    available to the atomic closure. Setting [payload] attaches it to the
    step's trace event ({!query} records the value the oracle returned,
    so run-condition (2) is checkable from the trace). All fields are
    mutable so the scheduler can reuse one [ctx] record across steps;
    atomic closures must read the fields during the step and not retain
    the record. *)

(** How a step is labelled in the trace. [Send]/[Recv] are message-layer
    steps ({!Link}): both mutate the named mailbox object, so
    schedule exploration treats them exactly like a [Write] on [obj] for
    independence purposes — the separate constructors exist so traces,
    step counters and exported JSONL can tell messaging apart from shared
    memory. *)
type kind =
  | Read of { obj : string }
  | Write of { obj : string }
  | Send of { obj : string }
  | Recv of { obj : string }
  | Query of { detector : string }
  | Output of { label : string; value : string }
  | Input of { label : string; value : string }
  | Nop

type _ Effect.t +=
  | Atomic : kind * (ctx -> 'a) -> 'a Effect.t
        (** The effect behind every step; handled by the fiber. *)
  | Daemon : unit Effect.t  (** Behind {!daemon}; not a step. *)

val atomic : kind -> (ctx -> 'a) -> 'a
(** Perform one atomic step. Only call from inside a fiber. *)

val daemon : unit -> unit
(** Mark the calling fiber as a daemon: a service loop (an ABD replica)
    that only answers the other fibers and never ends on its own. A run
    stops [Quiescent] once no non-daemon fiber is runnable (see
    {!Scheduler.outcome}), even while daemons could still step: past
    that point they have no one left to serve. Not a step — it records
    no trace event, changes no counter and consumes no time. Call it
    before the fiber's first {!atomic}; a later call raises
    [Invalid_argument] at the call site. *)

val yield : unit -> unit
(** Take a step that does nothing (schedules fairness without touching
    shared state). *)

val now : unit -> int
(** Current global time; consumes a step, as any observation must. *)

val output : label:string -> value:string -> unit
(** Record an application output in the trace (consumes a step). *)

val input : label:string -> value:string -> unit
(** Record an application input in the trace (consumes a step). *)

val query : 'v source -> 'v
(** Query the local failure-detector module; one step. *)

val kind_pp : Format.formatter -> kind -> unit
