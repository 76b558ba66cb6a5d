(** The wfde service daemon: a Unix-domain-socket front-end around
    {!Engine} + {!Service}.

    One accept-loop thread hands each connection to its own thread; a
    connection carries newline-delimited {!Proto} requests, answered in
    order (pipelined lines queue behind each other — concurrency comes
    from concurrent {e connections}). Work methods are submitted to the
    bounded engine queue and rejected immediately with [queue_full]
    when it is at capacity; [health], [metrics], and [cache] are
    answered inline by the connection thread so they keep working while
    the fleet is busy or draining. [metrics] takes no params: it
    answers with the registry's JSON document ({!Obs.Metrics.to_json}),
    and any param is a [bad_request].

    [run], [check], and [sweep] are dispatched through a
    content-addressed result {!Cache} {e before} the engine queue:
    a hit replays the stored rendered bytes from the connection thread
    — byte-identical to the response that populated it, served even
    when the fleet is saturated or draining — and concurrent identical
    misses are coalesced into one compute (single-flight). A miss
    arriving after drain began still gets [shutting_down].

    Shutdown ({!stop}, or SIGTERM/SIGINT under {!run_forever}) is a
    graceful drain: the listening socket closes first (new connections
    refused), connection threads finish the request they are on —
    including requests already accepted into the queue — then close,
    and finally the worker fleet is joined. Requests {e arriving} after
    the drain began get a structured [shutting_down] error.

    Request accounting lands in the calling process's {!Obs.Metrics}
    registry (the daemon serializes its own access — connection threads
    share one registry):
    - [serve.requests{method=M}] / [serve.responses{code=C}] counters,
    - [serve.latency_ms{method=M}] histograms,
    - [serve.queue.depth], [serve.in_flight], [serve.connections]
      gauges. *)

type t

val start :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache:Cache.config ->
  ?max_request_bytes:int ->
  ?trace:Obs.Span.sink ->
  ?slow_ms:float ->
  ?slow_out:out_channel ->
  socket:string ->
  unit ->
  t
(** Bind [socket] (an existing socket file is replaced), spawn the
    worker fleet and the accept thread, and return. [max_request_bytes]
    (default 1 MiB) bounds one request line; longer lines get an
    [oversized] error and the connection is closed. Raises
    [Unix.Unix_error] when the socket cannot be bound.

    [cache] (default {!Cache.default_config}: 256 in-memory entries,
    no disk store) configures the result cache; {!Cache.disabled}
    turns it off entirely. With a [dir], entries survive daemon
    restarts. Cache traffic surfaces as [serve.cache.*] counters
    ([hits] / [misses] / [coalesced] / [disk_hits] / [evictions]) and
    gauges ([entries] / [bytes]) in the daemon registry, as
    [cache.hit] / [cache.miss] / [cache.disk_hit] / [cache.coalesced]
    spans in traced requests, and through the [cache] RPC
    ([{"method":"cache","params":{"op":"stats"|"clear"}}]).

    [trace] (default absent: tracing off) is where request span scopes
    are absorbed. A request is traced only when the sink is present
    {e and} the request carries a [trace] id; each traced request
    exports a [request] root with [parse] / [queue_wait] / [dispatch] /
    [execute] / [render] children plus {!Service.handle}'s
    method-specific subtree, and any span still open when the request
    errors or is cancelled is flushed with [truncated = true]. Response
    payload bytes are identical with tracing on or off.

    Tracing changes one drain-ordering detail: a {e deadline-bearing}
    request that is already executing when {!stop} begins is cancelled
    at its next deadline poll (structured [deadline_exceeded], spans
    truncated) — a draining daemon cannot honor latency promises.
    Requests without a deadline still run to completion, as before.

    [slow_ms] (default absent: disabled) logs one structured JSON line
    — [{"event":"slow_request","method":...,"trace":...,"wall_ms":...,
    "queue_depth":...,"in_flight":...}] — to [slow_out] (default
    [stderr]) for every request at least that slow. *)

val stop : t -> unit
(** Graceful drain, as described above. Blocks until every connection
    thread and worker domain has exited; idempotent. *)

val run_forever : t -> unit
(** Park the calling thread until SIGTERM or SIGINT arrives, then
    {!stop}. Installs handlers for both signals (and ignores SIGPIPE,
    which {!start} already did). *)

(** {1 Introspection} (what [health] reports; handy in tests) *)

val queue_depth : t -> int
val in_flight : t -> int
val draining : t -> bool

val dispatched : t -> int
(** Jobs accepted into the engine queue since start — cache hits never
    increment it, which is what the coalescing tests assert. *)

val cache_stats : t -> Cache.stats
(** Live result-cache counters (all zero when the cache is disabled). *)
