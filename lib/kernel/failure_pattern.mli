(** Failure patterns (paper §3.2).

    A failure pattern [F] maps each time [t] to the set of processes that
    have crashed by [t]; crashed processes never recover. We represent [F]
    by one crash time per process ([never] for correct processes), which
    is equivalent for monotone patterns. *)

type t

val never : int
(** Sentinel crash time of a correct process (greater than any run time). *)

val make : n_plus_1:int -> crashes:(Pid.t * int) list -> t
(** [make ~n_plus_1 ~crashes] crashes each listed pid at its listed time
    (the process takes no step at or after that time). Raises if the
    system has more than {!Pid.max_procs} processes, a pid is listed
    twice, out of range, a crash time is negative, or no process would
    remain correct. *)

val no_failures : n_plus_1:int -> t

val random : Rng.t -> n_plus_1:int -> max_faulty:int -> latest:int -> t
(** A random pattern with at most [max_faulty] crashes (and at least one
    correct process), crash times uniform in [\[0, latest\]]. *)

val n_plus_1 : t -> int
val crash_time : t -> Pid.t -> int

val crashed_at : t -> Pid.t -> int -> bool
(** [crashed_at t p time] is [p ∈ F(time)]. *)

val crashed_by : t -> int -> Pid.Set.t
(** [crashed_by t time] is F(time), the set of processes crashed at or
    before [time]. The sets are built once by {!make}, one per distinct
    crash time, and shared between calls. *)

val faulty : t -> Pid.Set.t
val correct : t -> Pid.Set.t
val is_correct : t -> Pid.t -> bool

val max_crash_time : t -> int
(** Latest finite crash time, or [0] if failure-free: after this time all
    faulty processes have crashed. *)

val env_ok : f:int -> t -> bool
(** [env_ok ~f t] holds iff [t] belongs to the environment E_f, i.e. at
    most [f] processes are faulty (paper §5.3). *)

val pp : Format.formatter -> t -> unit
