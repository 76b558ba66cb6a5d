(** The k-converge routine (paper §5.1, after Yang–Neiger–Gafni [21]).

    A process calls k-converge with an input value and gets back a value
    and a boolean ("commits" when true). The contract, quoted from the
    paper:

    - {b C-Termination}: every correct process picks some value;
    - {b C-Validity}: if a process picks [v] then some process invoked
      k-converge with [v];
    - {b C-Agreement}: if some process commits, then at most [k] values
      are picked;
    - {b Convergence}: if there are at most [k] different input values,
      then every process that picks a value commits.

    [0]-converge[(v)] returns [(v, false)] by definition, taking no steps.

    The implementation is register-only (two phases of
    update-then-scan on {!Memory.Snapshot} objects), wait-free for any
    number of failures:

    + Phase 1: write the input, scan; let [V₁] be the set of values seen.
      Scans are related by containment, so the distinct [V₁] sets across
      processes form a chain; at most [k] distinct sets of size ≤ [k] fit
      on a chain, so "min of a small [V₁]" ranges over at most [k] values.
    + Phase 2: publish either the small [V₁] (a {e proposal}) or ⊥, then
      scan. Commit on [min V₁] iff the own proposal is small and no
      ⊥-proposal is visible; otherwise adopt the min of the largest
      visible small proposal, falling back to the input.

    If some process commits, linearizability of the phase-2 snapshot
    forces every other process to see a small proposal, so every pick is
    the min of a small [V₁] — at most [k] values (C-Agreement). If inputs
    already number ≤ [k], nobody publishes ⊥ and everybody commits
    (Convergence). *)

type 'a instance

val create :
  name:string -> k:int -> size:int -> compare:('a -> 'a -> int) -> 'a instance
(** A fresh shared instance with [size] single-writer positions.
    [compare] orders values (used for the deterministic min). [k = 1]
    is commit–adopt: if all inputs are equal everyone commits; if
    anyone commits [v], everyone picks [v]. *)

val zero : 'a instance
(** 0-converge: the one instance for [k = 0]. It holds no object, and
    {!run} on it takes no step. *)

val k_of : 'a instance -> int

val run : 'a instance -> me:int -> 'a -> 'a * bool
(** Invoke the instance. [me] is the caller's position; each position may
    be used at most once. Returns [(picked, committed)]. *)

val unsafe_plant : 'a instance -> Kernel.Mutant.t -> unit
(** Harness-only, no steps: plant a bug in this instance alone.
    {!Kernel.Mutant.Converge_drop_phase2} makes {!run} commit straight
    after phase 1 whenever its own [V₁] is small, skipping the phase-2
    visibility check that C-Agreement rests on; every other mutant is
    ignored. For checker regression tests only. *)
