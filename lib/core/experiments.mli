(** The experiment drivers: one per claim of the paper (see DESIGN.md's
    experiment index). Each returns a rendered table plus an [ok] flag
    meaning "the paper's claim held on every run we made". Defaults are
    sized to finish in seconds; {!registry} entries scale them up.

    Every driver takes [?jobs] (default 1): its independent work units
    (seeds, sizes, adversary candidates, DPOR branches) are sharded over
    an {!Exec.Pool} of that many domains and merged deterministically,
    so tables and [ok] flags are byte-identical at every [jobs]. *)

type outcome = {
  id : string;
  claim : string;  (** the paper artifact and what must hold *)
  table : Report.table;
  ok : bool;
}

val e1_fig1_set_agreement :
  ?jobs:int -> ?seeds:int -> ?sizes:int list -> unit -> outcome
(** Fig 1 / Theorem 2: Υ + registers solve n-set-agreement wait-free. *)

val e2_fig2_f_resilient :
  ?jobs:int -> ?seeds:int -> ?sizes:int list -> unit -> outcome
(** Fig 2 / Theorem 6: Υᶠ + registers solve f-resilient f-set-agreement,
    swept over every f for each system size. *)

val e3_theorem1_adversary : ?jobs:int -> ?max_phases:int -> unit -> outcome
(** Theorem 1: the adversary defeats every candidate Υ → Ωₙ extractor. *)

val e4_theorem5_adversary : ?jobs:int -> ?max_phases:int -> unit -> outcome
(** Theorem 5: same at 2 ≤ f < n against Ωᶠ. *)

val e5_fig3_extraction :
  ?jobs:int -> ?seeds:int -> ?detectors:Harness.detectors -> unit -> outcome
(** Fig 3 / Theorem 10: Υᶠ is extracted from every stable source. With
    [detectors = Heartbeat net] (default [Oracle]) an extra gated row
    extracts from the {e implemented} (heartbeat) ◇P over the link
    [net]; the oracle rows are the same either way. *)

val e6_pairwise_reductions : ?jobs:int -> ?seeds:int -> unit -> outcome
(** §4 / §5.3: the direct reductions between detectors. *)

val e7_upsilon_vs_omega_n :
  ?jobs:int -> ?seeds:int -> ?stab_times:int list -> unit -> outcome
(** Corollaries 3–4 context: Υ-based vs Ωₙ-based set agreement, cost as a
    function of the detector's stabilization time. *)

val e8_impossibility : ?jobs:int -> ?horizons:int list -> unit -> outcome
(** The impossibility backdrop: the detector-free skeleton starves under
    lock-step forever; the same schedule with Υ decides. *)

val e9_booster_consensus :
  ?jobs:int -> ?seeds:int -> ?sizes:int list -> unit -> outcome
(** Corollary 4 context: Ωₙ boosts n-process consensus objects to
    n+1-process consensus; port discipline of the committee-indexed
    objects is verified. *)

val e10_abd_emulation :
  ?jobs:int -> ?seeds:int -> ?sizes:int list -> unit -> outcome
(** Substrate bridge: ABD emulation of atomic registers over
    asynchronous messages; linearizability and liveness with a correct
    majority. *)

val e11_msg_consensus :
  ?jobs:int ->
  ?seeds:int ->
  ?sizes:int list ->
  ?detectors:Harness.detectors ->
  unit ->
  outcome
(** End-to-end lowering: Ω-based consensus over ABD registers in message
    passing, memory linearizability checked per run. With
    [detectors = Heartbeat net] (default [Oracle]) each size gains a
    gated row where Ω is the live min-unsuspected leader of a heartbeat
    ◇P over the link [net] (recorded queries replayed against the
    reconstructed history); the oracle rows are the same either way. *)

val a1_snapshot_ablation : ?jobs:int -> ?sizes:int list -> unit -> outcome
(** Register-built Afek snapshot vs native snapshot: steps per
    operation. *)

val a2_escape_ablation : ?jobs:int -> ?seeds:int -> unit -> outcome
(** Fig 1's escape conditions: which are load-bearing for Termination. *)

val a3_fig2_snapshot_cost : ?jobs:int -> ?seeds:int -> unit -> outcome
(** Fig 2 on register-built vs native snapshots: same correctness, the
    faithful construction's Θ(n) step cost shows inside the protocol. *)

val c1_model_checking :
  ?jobs:int -> ?depth:int -> ?mutant_depth:int -> unit -> outcome
(** The {!Check} layer end to end: every clean scenario passes DPOR
    exploration, every planted mutant is caught with a shrunk,
    replayable counterexample. [mutant_depth] sizes the deeper window
    the snapshot single-collect mutant needs (3 processes, ≥ 10). *)

val d1_hb_conformance :
  ?jobs:int -> ?seeds:int -> ?spans:Obs.Span.scope -> unit -> outcome
(** Implemented detectors: the increasing-timeout heartbeat ◇P and ◇S
    satisfy their specs (plus the link contract and crash isolation) on
    every sampled GST/delay/loss family; mean stabilization time per
    family. Rows are profiled under [net.hb.<family>] spans. *)

val d2_hb_vs_oracle :
  ?jobs:int -> ?seeds:int -> ?spans:Obs.Span.scope -> unit -> outcome
(** Substitutability: the Fig-3 extraction and message-passing consensus
    reach the same verdicts with the oracle detector replaced by its
    heartbeat implementation: each leg runs every world once as
    [Oracle] and once as [Heartbeat] over a fixed link. *)

val d3_hb_model_checking :
  ?jobs:int -> ?depth:int -> ?spans:Obs.Span.scope -> unit -> outcome
(** DPOR over partially synchronous links: the clean heartbeat-detector
    and link-chaos scenarios survive exhaustive pre-GST
    delay/loss/ordering exploration, and both planted heartbeat mutants
    ({!Mutant.Hb_timeout_never_increased},
    {!Mutant.Hb_suspected_not_restored}) are caught with shrunk,
    replayable counterexamples. *)

(** {1 The experiment index} *)

type config = { scale : int; jobs : int; spans : Obs.Span.scope; detectors : Harness.detectors }
(** How a registry entry runs: [scale] multiplies the driver's default
    seed count or phase budget (drivers without one ignore it), [jobs]
    is the {!Exec.Pool} width, [spans] profiles d1–d3, and [detectors
    = Heartbeat net] adds the gated implemented-detector rows of e5/e11
    over the link [net]. *)

type entry = { id : string; description : string; run : config -> outcome }

val registry : entry list
(** Every experiment, in [wfde list] order. *)

val find : string -> entry option
(** Look up an entry by id, case-insensitively. *)

val pp : Format.formatter -> outcome -> unit
