(** A metrics registry for the simulator, one per domain.

    Instrumentation sites register named counters, gauges, and
    fixed-bucket histograms; the harness, the CLI, the tests that pin
    work counters and wfdebench read them back as a {!snapshot} and
    render it as a table or JSON.

    There is one handle kind per metric type, and a handle is an
    immutable slot. A name gets its slot, type, and (for histograms)
    bucket layout once, in a table shared by every domain and written
    under a mutex; registration is idempotent, so [counter name]
    returns the same slot for the same name in any domain, and hot
    paths cache handles at module initialization. Lookups by name go
    through a per-domain memo, so only a name's first lookup in a
    domain takes the lock.

    Values are domain-local. Each domain's registry holds arrays
    indexed by slot, and every value operation — {!incr}, {!set},
    {!observe}, {!snapshot}, {!reset}, {!absorb} — acts on the
    {e calling} domain's registry only: an increment is a DLS read and
    an array store, with no allocation and no write to memory another
    domain uses. Worker domains accumulate in isolation and the
    coordinator folds their per-unit snapshots back in with {!absorb},
    in whatever order makes the aggregate deterministic. A name appears
    in a domain's snapshot once that domain has created or touched its
    handle; {!reset} zeroes values in place and keeps them listed.

    Naming convention: [layer.component.metric], with a
    [{label=value}] suffix for bounded label sets (e.g.
    [kernel.scheduler.steps{pid=p3}], [detectors.queries{detector=omega}]).
    Keep label sets small: every distinct name is a registry entry for
    the lifetime of the process. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) the named counter, initially 0. Raises
    [Invalid_argument] if the name is taken by another metric type. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
(** A gauge holds the last value {!set}; it is omitted from snapshots
    until first set. *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float array -> string -> histogram
(** Register (or look up) the named histogram. [buckets] (default
    {!default_buckets}) are strictly increasing upper bounds; an extra
    overflow bucket catches larger observations. The bucket layout is
    fixed by the name's first registration in any domain. *)

val observe : histogram -> float -> unit
(** Add one observation: counted in the first bucket whose upper bound
    is >= the value, or in the overflow bucket. *)

val observe_int : histogram -> int -> unit

val default_buckets : float array
(** [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000] — suits
    step/round/latency counts in simulator time units. *)

val log_buckets : ?lo:float -> ?hi:float -> unit -> float array
(** HDR-style log-spaced bounds: the 1-2-5 series of every decade from
    [lo] (default 0.001) through [hi] (default 60000), clipped to
    [lo, hi]. Constant relative resolution keeps p50/p95/p99 readable
    from microseconds to minutes in a single histogram. Raises
    [Invalid_argument] unless [0 < lo < hi]. *)

(** {1 Hot paths} *)

type registry
(** A domain's registry. *)

val registry : unit -> registry
(** The calling domain's registry. An object that counts on every
    operation takes it once, when it is created, and counts through
    {!add_in} to skip the DLS read; it must then be used in that same
    domain. *)

val add_in : registry -> counter -> int -> unit
(** [add_in r c n] adds [n] to [c] in [r]. *)

(** {1 Snapshots} *)

type hist_view = {
  buckets : (float * int) list;  (** (upper bound, count), in order *)
  overflow : int;
  sum : float;
  events : int;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_view) list;
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every metric registered in the calling domain, in place.
    Handles held by instrumentation sites stay valid; gauges return to
    the unset state. *)

val absorb : snapshot -> unit
(** Merge a snapshot (typically taken in a worker domain) into the
    calling domain's registry: counters and histograms add, gauges take
    the snapshot's value (last absorb wins — absorb in unit order to
    keep aggregates deterministic). Histograms are created with the
    snapshot's bucket bounds when absent; raises [Invalid_argument] on a
    name registered with a different type or bucket layout. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> float option
val find_histogram : snapshot -> string -> hist_view option

val hist_mean : hist_view -> float
(** 0 when empty. *)

val hist_quantile : hist_view -> float -> float option
(** [hist_quantile hv q] estimates the [q]-quantile ([0 <= q <= 1],
    clamped) by linear interpolation within the bucket holding the
    target rank. [None] when empty; observations in the overflow bucket
    resolve to the largest finite bound (the histogram cannot say
    more). *)

val rows : snapshot -> string list list
(** [[name; type; value]] rows sorted by name, ready to embed in a
    report table. *)

val to_json : snapshot -> Json.t
