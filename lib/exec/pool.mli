(** Domain-based parallel sweep runner with a deterministic merge.

    A pool shards independent work units — experiments, DPOR root
    branches — across a fixed number of worker domains. Workers claim
    unit indices from one shared atomic cursor, so units start in
    ascending index order and a worker stuck on one slow unit never
    holds back the others: idle workers keep claiming the next index.
    Which worker runs a unit is therefore dynamic, but
    {e results are merged keyed by unit index, never by completion
    order}: [map] with [jobs = 1] and [jobs = N] return
    element-for-element identical lists, and the metrics absorbed into
    the caller's registry are identical too, so rendered tables, JSONL
    traces, and [wfde check --json] documents come out byte-identical
    at any [-j].

    Per-worker isolation is total. Each unit runs with one fresh
    metrics registry window ({!Obs.Metrics.reset} before, snapshot
    after, in the worker's own domain-local registry); the per-unit
    snapshots are folded back into the caller's registry with
    {!Obs.Metrics.absorb} in unit order at the barrier. Unit functions
    must therefore be self-contained: build their own [Sim]/[Rng],
    touch no shared mutable state, and return a value. Read-only access
    to configuration set before the pool call is fine — the spawn fence
    publishes it.

    Exceptions follow the same prefix rule as {!map_until}: the unit
    with the lowest index that raised is re-raised in the caller (with
    its backtrace), after the metrics of all earlier units have been
    absorbed — exactly what a serial left-to-right run would do.

    Pool calls do not nest meaningfully: a [map] issued from inside a
    worker runs its units inline in that worker (no new domains, no
    per-unit metrics windows), so the enclosing unit still appears
    atomic to the outer pool. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to 1 (serial); values are clamped to [1, 64].
    Serial pools run units in the calling domain with no metrics
    windowing at all — [jobs = 1] is the reference semantics the
    parallel path must reproduce. *)

val jobs : t -> int

val map : t -> f:(int -> 'a) -> int -> 'a list
(** [map t ~f n] is [[f 0; f 1; ...; f (n-1)]], computed on the pool's
    workers. *)

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [List.map f xs] on the pool's workers. *)

val map_until : t -> stop:('a -> bool) -> f:(int -> 'a) -> int -> 'a list
(** Early-exit sweep: returns [[f 0; ...; f k]] where [k] is the first
    index whose result satisfies [stop] (or [n - 1] if none does) — the
    exact prefix a serial run stopping at the first hit would produce.
    Workers past the cut may still compute units speculatively; their
    results and metrics are discarded. *)

(** {1 Pool telemetry}

    Parallel runs record counters in the caller's registry after the
    barrier: [exec.pool.runs] (parallel calls), [exec.pool.units]
    (merged units), and per worker [exec.pool.worker.units{worker=K}]
    (units executed) and [exec.pool.worker.wall_us{worker=K}] (worker
    lifetime, in whole microseconds). All accumulate over calls, so the
    per-worker units sum to [exec.pool.units] unless a {!map_until}
    stop or an exception discarded units computed past the cut. Which
    worker ran what depends on scheduling and wall time — strip
    [exec.*] names before comparing snapshots across [-j] values. *)
