(** Request execution: the mapping from a parsed {!Proto.request} to a
    deterministic JSON payload, shared between the daemon's worker
    fleet and (for the rendering helpers) the one-shot CLI.

    Payload contracts — the reason the daemon and the CLI can be
    diffed byte-for-byte:

    - [run]: [{"schema":"wfde-run/1","ok":...,"experiments":[...],
      "output":"..."}] where [output] is {e exactly} the stdout of
      [wfde run <ids> --scale K] (both sides print via {!run_text});
    - [check]: exactly the document [wfde check --json] writes
      ({!Wfde.Harness.check_outcome_json});
    - [sweep]: exactly the [wfde-sweep/1] document [wfde sweep --json]
      writes (both sides build it via {!sweep_json}; its
      [*wall_seconds] fields are timing and excluded from determinism
      comparisons);
    - [stats]: exactly the metrics document [wfde stats --json] writes
      (registry reset, experiments run, snapshot rendered);
    - [sleep]: [{"slept_ms":N}] — a diagnostic method for exercising
      queueing, deadlines, and drain without burning CPU.

    [health], [metrics], and [cache] are answered by the daemon
    front-end (they read live daemon state) and are rejected here with
    [unknown_method].

    Deadlines are cooperative: the probe is polled between experiments
    for [run]/[sweep]/[stats], before each DPOR execution for [check]
    (via {!Wfde.Harness.check_exhaustive}'s [should_stop]), and every
    tick for [sleep]. An expired probe yields a structured
    [deadline_exceeded] error and the worker slot is immediately
    reusable — cancellation never kills a domain. *)

val handle :
  ?deadline:(unit -> bool) ->
  ?spans:Obs.Span.scope ->
  Proto.request ->
  (Obs.Json.t, Proto.error) result
(** Execute one request. [deadline] returns [true] once the request's
    deadline has expired (default: never). Must be cheap and
    domain-safe (it is polled from {!Exec.Pool} workers when the
    request asks for [jobs > 1]). Never raises: internal exceptions
    come back as [{code = Internal; _}].

    [spans] (default {!Obs.Span.null}) records method-specific child
    spans under the caller's current parent: one [exp.<id>] per
    experiment driver for [run]/[sweep]/[stats], the
    {!Wfde.Harness.check_exhaustive} span tree for [check]
    ([check.probe], per-unit [dpor.*] spans with phase children), and
    [sleep.wait] for [sleep] (truncated when the deadline cancels the
    sleep). Span structure depends only on the request, never on
    timing — the payload bytes are unchanged whether or not a scope is
    supplied. *)

val run_experiments :
  ?deadline:(unit -> bool) ->
  Wfde.Experiments.config ->
  string list ->
  ((string * Wfde.Experiments.outcome * float) list, Proto.error) result
(** The experiment runner of the CLI's and the daemon's run, sweep and
    stats: runs [ids] in order (every {!Wfde.Experiments.registry}
    entry when empty; all must be known) under [config] (a daemon
    request's always runs [Oracle] detectors), each in an [exp.<id>]
    span, as [(id, outcome, wall_seconds)]. [deadline] is polled before
    each experiment and yields [deadline_exceeded] once it fires. *)

(** {1 Shared renderers}

    Used by both the service handlers and [bin/wfde_cli.ml], so the
    daemon's payloads match the CLI byte-for-byte by construction. *)

val run_text : Wfde.Experiments.outcome list -> string
(** The stdout of [wfde run]: each outcome's table, then the
    ["all N experiment claims hold"] or ["FAILED claims: ..."] line. *)

val sweep_text : Wfde.Experiments.outcome list -> string
(** The stdout of [wfde sweep]: the tables, then the failed-claims
    line only when something failed. *)

val sweep_json :
  jobs:int ->
  scale:int ->
  (string * Wfde.Experiments.outcome * float) list ->
  Obs.Json.t
(** The [wfde-sweep/1] document for [(id, outcome, wall_seconds)]
    rows. *)

val check_text : Wfde.Harness.check_outcome -> string
(** The stdout of [wfde check]: the summary line, then the violation
    block or ["no violation found"]. *)

val unknown_ids : string list -> string list
(** The subset of ids {!Wfde.Experiments.find} does not know. *)
