(** Scheduling policies: who takes the next step.

    A policy is consulted once per step with the set of enabled processes
    (alive and having a runnable fiber) and the time the step would get.
    The set is a {!Pid.Set.t}, one machine word the scheduler keeps as
    fibers finish and crash, so passing it allocates nothing; it
    iterates in ascending pid order.
    Returning [None] ends the run; returning a non-enabled pid is a
    programming error the scheduler rejects. Policies may be stateful
    closures — the Theorem 1/5 adversary builds its schedule on the fly
    by observing the run through shared references. *)

type t = now:int -> enabled:Pid.Set.t -> Pid.t option

val round_robin : unit -> t
(** Cycles over pids fairly, skipping disabled ones. *)

val random : Rng.t -> t
(** Uniform among enabled processes; fair with probability 1. Draws
    [Rng.int rng (cardinal enabled)] and takes that ascending index, as
    [Rng.pick] does on the ascending list. *)

val weighted : Rng.t -> weights:(Pid.t * int) list -> t
(** Random, biased by positive integer weights (default weight 1).
    Models asymmetric process speeds while remaining fair. *)

val solo : Pid.t -> t
(** Only the given process runs (others starve — legal in the model as
    long as starved correct processes would run in the unbounded
    continuation; used for the adversary's partial-run constructions). *)

val script : Pid.t list -> then_:t -> t
(** Follow an explicit pid sequence (skipping entries that are not
    enabled), then fall back to [then_]. *)

val fair_after : gst:int -> t -> t
(** Partial synchrony for process speeds: the inner (typically chaotic)
    policy schedules steps taken before [gst]; from [gst] on, scheduling
    is round-robin, so relative process speeds are bounded — the
    scheduling half of the GST model that {!Link} provides for message
    delays. *)

val stop_after : int -> t -> t
(** Let the inner policy schedule only that many steps, then end the run. *)

val custom : (now:int -> enabled:Pid.Set.t -> Pid.t option) -> t
