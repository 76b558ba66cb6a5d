(** The public face of the library: everything the paper builds, one
    import away.

    {1 Layers}

    - {!Kernel}: the asynchronous shared-memory simulator (processes,
      crash failures, schedules, traces) — paper §3.
    - {!Memory}: registers, the Afek-et-al. atomic snapshot, consensus
      objects.
    - {!Detectors}: Υ, Υᶠ, Ω, Ωₖ, anti-Ω, P, ◇P, and friends as history
      generators with spec validators — §3.2, §4.
    - {!Converge}: the k-converge routine of [21] — §5.1.
    - {!Agreement}: the set-agreement protocols of Figs 1–2 and the
      baselines — §5.
    - {!Reduction}: the Fig-3 extraction, the pairwise reductions, and
      the Theorem-1/5 adversary — §4, §6.
    - {!Check}: the model checker — optimal DPOR schedule exploration
      (source sets + wakeup trees), a Wing–Gong linearizability
      checker, planted mutants, and ddmin counterexample shrinking.
    - {!Harness} / {!Experiments} / {!Report}: run whole worlds and
      regenerate every claim's table (E1–E8, A1–A2 in DESIGN.md).
    - {!Obs} / {!Trace_export}: the telemetry layer — domain-local
      metrics registries and JSONL trace export/replay.
    - {!Exec}: the domain-parallel sweep runner — a fixed worker pool
      with deterministic, unit-index-keyed merging, so [-j 1] and
      [-j N] produce byte-identical results. *)

module Kernel = Kernel
module Exec = Exec
module Check = Check
module Obs = Obs
module Trace_export = Trace_export
module Memory = Memory
module Detectors = Detectors
module Converge = Converge
module Agreement = Agreement
module Reduction = Reduction
module Harness = Harness
module Experiments = Experiments
module Report = Report
module Stats = Stats

(* Frequently used names, re-exported flat. *)
module Pool = Exec.Pool
module Metrics = Obs.Metrics
module Json = Obs.Json
module Pid = Kernel.Pid
module Rng = Kernel.Rng
module Failure_pattern = Kernel.Failure_pattern
module Policy = Kernel.Policy
module Run = Kernel.Run
module Sim = Kernel.Sim
module Link = Kernel.Link
module Timer = Kernel.Timer
module Trace = Kernel.Trace
module Oracle = Kernel.Oracle
module Detector = Detectors.Detector
module Upsilon = Detectors.Upsilon
module Upsilon_f = Detectors.Upsilon_f
module Omega = Detectors.Omega
module Omega_k = Detectors.Omega_k
module Register = Memory.Register
module Snapshot = Memory.Snapshot
module Dpor = Check.Dpor
module Lin = Check.Lin
module Scenario = Check.Scenario
module Shrink = Check.Shrink
module Mutant = Kernel.Mutant
module Upsilon_sa = Agreement.Upsilon_sa
module Upsilon_f_sa = Agreement.Upsilon_f_sa
module Sa_spec = Agreement.Sa_spec
module Extract_upsilon = Reduction.Extract_upsilon
module Phi = Reduction.Phi
module Adversary = Reduction.Adversary
module Pairwise = Reduction.Pairwise
