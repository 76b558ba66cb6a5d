(** Cooperative fibers: one suspended protocol thread per (process, task).

    A fiber is started once (running its body up to the first {!Sim.atomic}
    suspension) and then repeatedly stepped by the scheduler. Most
    processes run a single fiber; the Fig-3 reduction runs two tasks per
    process, modelled as two fibers sharing the process's crash fate. *)

type t

type status =
  | Runnable  (** suspended at an [atomic], waiting for a step *)
  | Done      (** body returned *)
  | Killed    (** process crashed while the fiber was suspended *)

val create : pid:Pid.t -> ?name:string -> (unit -> unit) -> t
(** A fiber ready to start. The body may only interact with the world via
    {!Sim.atomic} and derived operations. [name] is ignored: a fiber is
    known by its process. It stays only because the benchmark's
    [Stepper] still passes it; it goes when that caller does. *)

val pid : t -> Pid.t
val status : t -> status

val is_daemon : t -> bool
(** Whether the body called {!Sim.daemon} in its local prefix; settled
    once {!start} returns. *)

val start : t -> unit
(** Run the body until its first suspension (or completion). Local
    computation before the first atomic step is free, matching the model.
    Must be called exactly once, before any {!step}. *)

val pending_kind : t -> Sim.kind
(** The label of the step the fiber is waiting to take. Raises unless
    [status t = Runnable]. *)

val step : t -> Sim.ctx -> unit
(** Execute the pending atomic closure at context [ctx] and resume the
    fiber until its next suspension (or completion). Raises unless
    [status t = Runnable]. *)

val kill : t -> unit
(** Crash the fiber: it will never be stepped again. *)
