(** Run traces (paper §3.4).

    A trace records every step with its time, plus crash events, so test
    oracles can check the run conditions of §3.3 and problem specs over
    the induced input/output trace. *)

type event =
  | Step of { pid : Pid.t; time : int; kind : Sim.kind; payload : Sim.payload }
      (** [payload] is set by the atomic closure — notably the value a
          detector query returned, kept unrendered ({!Sim.payload}).
          Only {!pp}, {!query_values} and the JSONL export render it. *)
  | Crash of { pid : Pid.t; time : int }

type t = event list
(** In time order. A trace whose queries hold {!Sim.Value} payloads
    holds closures: compare traces by their printed or exported form,
    not with [=]. *)

type builder

val builder : unit -> builder
val record : builder -> event -> unit

val finish : builder -> t
(** The chronological list view of everything recorded so far.
    Non-destructive: recording may continue afterwards. *)

val iter_builder : builder -> (event -> unit) -> unit
(** Apply a function to every recorded event in chronological order
    without materializing the list (checker hot paths). *)

val builder_length : builder -> int
(** Number of events recorded so far. *)

val steps_of : t -> Pid.t -> int
(** Number of steps taken by a pid. *)

val events_of : t -> Pid.t -> event list

val outputs : ?label:string -> t -> (Pid.t * int * string * string) list
(** All [Output] steps as [(pid, time, label, value)], optionally filtered
    by label. *)

val inputs : ?label:string -> t -> (Pid.t * int * string * string) list

val last_time : t -> int

val schedule : t -> Pid.t list
(** The pid of every step, in order — replaying it through
    {!Policy.script} over a fresh identical world reproduces the run
    exactly (counterexample replay). *)

val queries : t -> detector:string -> (Pid.t * int) list
(** Times at which each process queried the named detector. *)

val query_values : t -> detector:string -> (Pid.t * int * string) list
(** [(pid, time, rendered value)] of each query of the named detector
    whose value was recorded. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
