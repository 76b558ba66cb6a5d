(** The failure detector Υᶠ (paper §5.3).

    Range: sets [U ⊆ Π] with [|U| ≥ n + 1 − f]. In every history there is
    a time after which the same set [U] is permanently output at all
    correct processes, and [U] is not the set of correct processes.
    Before that time the output is arbitrary: it may change at every
    query and differ across processes (we draw it from seeded chaos,
    staying inside the range).

    [Υ = Υⁿ]: with [f = n] the range is all non-empty subsets of Π and
    the constraint is exactly the one of §4. *)

open Kernel

val legal_stable_sets : pattern:Failure_pattern.t -> f:int -> Pid.Set.t list
(** All sets a history of Υᶠ may stabilize to under the pattern: size
    ≥ n+1−f and different from [correct(F)]. Never empty (Π qualifies
    whenever some process is faulty; any co-singleton beats a
    failure-free pattern). Lists every subset of Π, so n+1 ≤ 20 only. *)

val pick_stable_set :
  Rng.t -> pattern:Failure_pattern.t -> f:int -> Pid.Set.t
(** A uniformly chosen legal stable set, at any n+1 up to
    {!Kernel.Pid.max_procs}: the set and the draws are those of
    [Rng.pick rng (legal_stable_sets ~pattern ~f)] whenever fewer than
    [max_int] sets have n+1−f members or more (always, below n+1 = 62),
    without listing them. *)

val make :
  ?name:string ->
  rng:Rng.t ->
  pattern:Failure_pattern.t ->
  f:int ->
  ?stable_set:Pid.Set.t ->
  ?stab_time:int ->
  unit ->
  Pid.Set.t Detector.t
(** One admissible history. [stable_set] defaults to a uniformly chosen
    legal set; [stab_time] to a random time in [\[0, 150\]]. Raises if
    [stable_set] is illegal for the pattern (wrong size, or equal to the
    correct set) or the pattern exceeds [f] failures. *)

val check :
  Pid.Set.t Detector.t ->
  pattern:Failure_pattern.t ->
  f:int ->
  stab_by:int ->
  horizon:int ->
  (unit, string) result
(** Verify the Υᶠ specification on the window [\[stab_by, horizon\]]:
    range discipline everywhere in [\[0, horizon\]], a common permanent
    value at correct processes from [stab_by] on, and that value distinct
    from the correct set. *)
