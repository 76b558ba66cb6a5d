(** Failure detectors as history generators (paper §3.2).

    A failure detector [D] maps each failure pattern [F] to a set of
    admissible histories [H : Π × T → range]. A value of type ['v t] is
    one concrete history drawn from [D(F)]: constructing it fixes the
    failure pattern, the stabilization behaviour, and the seeded
    pre-stabilization chaos, so that [history p t] is a pure function —
    querying twice at the same (p, t) gives the same value, as the model
    requires. *)

open Kernel

type 'v t = {
  name : string;
  history : Pid.t -> int -> 'v;  (** H(p, t) *)
  pp : Format.formatter -> 'v -> unit;
  equal : 'v -> 'v -> bool;
  id : 'v Type.Id.t;
      (** the value type's witness, shared by every detector and source
          of that type ({!Sim.Witness}) *)
}

val record_make : family:string -> stab_time:int -> unit
(** Telemetry hook for detector constructors: bumps the per-family
    creation counter and records the drawn stabilization time as a
    gauge (last instance) and a distribution histogram. [family] must
    come from a bounded set — use the module name, not the instance
    name. *)

val source : 'v t -> 'v Sim.source
(** The queryable module handed to protocol fibers; each query is one
    step and reads [history p now]. *)

val sample : 'v t -> Pid.t -> int -> 'v
(** Direct history access for oracles (no step). *)

val stable_value :
  'v t -> Failure_pattern.t -> from:int -> until:int -> 'v option
(** [Some v] iff every correct process sees exactly [v] at every time in
    [\[from, until\]] — the bounded-run rendering of "eventually
    permanently output at all correct processes". *)

val map : name:string -> ('v -> 'w) ->
  pp:(Format.formatter -> 'w -> unit) -> equal:('w -> 'w -> bool) ->
  id:'w Type.Id.t -> 'v t -> 'w t
(** Pointwise post-composition — the zero-step transformations used by
    the complement reductions of §4. *)

val mapi : name:string -> (Pid.t -> int -> 'v -> 'w) ->
  pp:(Format.formatter -> 'w -> unit) -> equal:('w -> 'w -> bool) ->
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
