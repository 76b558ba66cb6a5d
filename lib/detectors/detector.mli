(** Failure detectors (paper §3.2).

    A failure detector [D] maps each failure pattern [F] to a set of
    admissible histories [H : Π × T → range], and each process reads
    [H(p, t)] through its local module. A value of type ['v t] is both:
    one concrete history drawn from [D(F)] and the {!Sim.source} that
    processes query with {!Sim.query}, whose [sample p t] is [H(p, t)].
    Constructing an oracle fixes the failure pattern, the stabilization
    behaviour, and the seeded pre-stabilization chaos, so that the
    history is a pure function — querying twice at the same (p, t)
    gives the same value, as the model requires. *)

open Kernel

type 'v t = 'v Sim.source

val record_make : family:string -> stab_time:int -> unit
(** Telemetry hook for detector constructors: bumps the per-family
    creation counter and records the drawn stabilization time in the
    [detectors.stab_time{family}] histogram. [family] must
    come from a bounded set — use the module name, not the instance
    name. *)

val stabilizing :
  ?name:string ->
  family:string ->
  default:(int -> string) ->
  rng:Rng.t ->
  ?stab_time:int ->
  stable:(Pid.t -> int -> 'v) ->
  chaos:(seed:int -> Pid.t -> int -> 'v) ->
  render:('v -> string) ->
  equal:('v -> 'v -> bool) ->
  id:'v Type.Id.t ->
  unit ->
  'v t
(** The oracle that shows [stable p t] from the stabilization time t*
    on and [chaos ~seed p t] before it. Draws t* from [rng] (uniform in
    [\[0, 150\]]) unless [stab_time] gives it, then the chaos seed, and
    records the creation under [family] ({!record_make}). The name is
    [name], else [default t*]. *)

val source : 'v t -> 'v t
(** The identity: a detector is its source. Kept only because the
    benchmark's [Units] still calls it; it goes when that caller does. *)

val sample : 'v t -> Pid.t -> int -> 'v
(** Direct history access for oracles (no step). *)

val first_violation :
  'v t ->
  Pid.t list ->
  from:int ->
  until:int ->
  (Pid.t -> int -> 'v -> string option) ->
  (unit, string) result
(** Scans the history time by time over [\[from, until\]] and, within a
    time, over the given processes in order; [Error msg] at the first
    (p, t) where the predicate returns [Some msg] on [H(p, t)]. *)

val stable_value :
  'v t -> Failure_pattern.t -> from:int -> until:int -> 'v option
(** [Some v] iff every correct process sees exactly [v] at every time in
    [\[from, until\]] — the bounded-run rendering of "eventually
    permanently output at all correct processes". *)

val map : name:string -> ('v -> 'w) ->
  render:('w -> string) -> equal:('w -> 'w -> bool) ->
  id:'w Type.Id.t -> 'v t -> 'w t
(** Pointwise post-composition — the zero-step transformations used by
    the complement reductions of §4. *)

val mapi : name:string -> (Pid.t -> int -> 'v -> 'w) ->
  render:('w -> string) -> equal:('w -> 'w -> bool) ->
  id:'w Type.Id.t -> 'v t -> 'w t
(** Like {!map} but the transformation may also use the querying process
    and the query time (e.g. "output own id unless the complement is a
    singleton", or cycling over a set). *)

module Chaos : sig
  (** Deterministic per-(pid, time) randomness for the pre-stabilization
      window, so histories stay pure functions of their seed. *)

  val rng : seed:int -> Pid.t -> int -> Rng.t

  val subset_at_least :
    seed:int -> n_plus_1:int -> min_size:int -> Pid.t -> int -> Pid.Set.t
  (** A pseudo-random subset of Π of size ≥ [min_size]. *)

  val pid : seed:int -> n_plus_1:int -> Pid.t -> int -> Pid.t
  (** A pseudo-random process id. *)
end
