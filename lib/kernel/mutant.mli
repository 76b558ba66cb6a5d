(** Planted bugs the model checker must be able to find.

    Each mutant disables one load-bearing mechanism of an algorithm —
    the kind of subtle omission schedule exploration exists to catch.
    A mutant is a property of one object instance, never of the
    process: the object's [unsafe_plant] hook ({!Memory.Abd.unsafe_plant},
    {!Memory.Snapshot.unsafe_plant}, {!Converge.unsafe_plant},
    {!Detectors.Heartbeat.unsafe_plant}) switches it on for that
    instance alone and ignores mutants aimed at other objects, and
    {!Check.Scenario.make} plants it into every world it builds. Checks
    with different mutants can therefore run side by side. Regression
    tests assert that {!Check.Dpor} + {!Check.Lin} finds a
    counterexample for every mutant within a bounded budget (and none
    without). *)

type t =
  | Abd_skip_write_back
      (** {!Memory.Abd.read} skips the read write-back phase: reads
          become regular, enabling new/old read inversions. *)
  | Snapshot_single_collect
      (** {!Memory.Snapshot} scans return their first collect without
          double-collect validation: views can be atomically
          inconsistent. *)
  | Converge_drop_phase2
      (** {!Converge.run} commits after phase 1 without the phase-2
          visibility check: C-Agreement breaks. *)
  | Hb_timeout_never_increased
      (** {!Detectors.Heartbeat} stops raising timeouts on false
          suspicions: premature timeouts recur forever and eventual
          accuracy fails. *)
  | Hb_suspected_not_restored
      (** {!Detectors.Heartbeat} never un-suspects a process whose
          heartbeat arrives: one pre-GST false suspicion becomes
          permanent. *)

val all : t list

val to_string : t -> string
(** Stable CLI names: [abd-skip-write-back],
    [snapshot-single-collect], [converge-drop-phase2],
    [hb-timeout-never-increased], [hb-suspected-not-restored]. *)

val of_string : string -> (t, string) result
