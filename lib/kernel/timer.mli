(** Deterministic per-process timers driven by scheduler steps.

    Simulated time is the global step count, so a timeout facility needs
    no wall clock: a timer stores a deadline and the owner compares it
    against the [now] of its latest step ({!Sim.now}, or the time
    returned by {!Link.poll_now}). Testing a timer is local computation
    — it consumes no steps — which keeps timeout-based protocols fully
    deterministic and replayable under {!Check.Dpor} and [-jN] pools.

    Timers are owned by one process and are not shared state: two
    processes must never touch the same timer. *)

(** Fixed-period tick source (heartbeat cadence). *)
module Periodic : sig
  type t

  val create : period:int -> t
  (** Due immediately, then every [period] time units. Raises
      [Invalid_argument] unless [period > 0]. *)

  val due : t -> now:int -> bool
  (** True at most once per deadline: firing re-anchors the next
      deadline to [now + period], so a starved process emits one tick on
      resume rather than a burst of missed ones. *)
end
