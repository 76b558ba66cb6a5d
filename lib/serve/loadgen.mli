(** A deterministic closed-loop load generator for the daemon — the
    engine behind the daemon's determinism tests (test_serve's traced
    loadgen case, test_cache's Zipf legs) and wfdebench's serve
    workload.

    The workload is a fixed function of the {e global request index}:
    request [i] is always {!request_for}[ i], whatever client sends it.
    A leg of [total] requests over [clients] connections partitions the
    indices round-robin (client [c] sends [c, c+clients, c+2*clients,
    ...]), each client lock-stepping over its own connection. Because
    the workload is index-determined, a serial leg and a concurrent leg
    over the same [total] must produce byte-identical payloads per
    index — {!mismatches} counts the indices where they differ, and a
    nonzero count is a determinism bug in the daemon. *)

type leg = {
  total : int;  (** requests attempted *)
  ok : int;  (** responses with [ok = true] *)
  errors : int;  (** structured server errors *)
  transport_errors : int;  (** connect/read/write failures *)
  payload_bytes : int;  (** summed rendered-payload sizes, ok responses *)
  wall_seconds : float;
  latencies_ms : float array;  (** per request, by global index; 0 on error *)
  payloads : string array;
      (** rendered payload per global index; [""] on any error *)
}

val request_for : ?trace_prefix:string -> int -> Proto.request
(** The deterministic request for global index [i]: a cycle of a small
    [check], a one-experiment [run], and a [sleep 0] (pure spine
    overhead). Ids are ["i<N>"] so responses correlate. With
    [trace_prefix], the request carries trace id ["<prefix><N>"] so a
    traced daemon exports one span tree per index — still a pure
    function of the index, so serial and concurrent legs export
    structurally identical spans. *)

val run :
  ?trace_prefix:string -> socket:string -> total:int -> clients:int -> unit ->
  leg
(** Execute one leg. [clients] is clamped to [1, total]. *)

val mismatches : reference:leg -> leg -> int
(** Indices whose payloads differ between two legs (only indices where
    both sides got an ok payload are compared — errors are already
    counted separately). *)

(** {1 Zipf-skewed repeated-request scenario}

    A hit-heavy workload for the result cache: request [i] is a
    [check] whose {e shape} is drawn from a Zipf([skew]) distribution
    over [universe] shapes, sampled by a splitmix64 stream seeded from
    [(seed, i)] — still a pure function of the global index, so legs
    over the same parameters are comparable index-by-index whatever
    the client count. Shapes pair up: shape [2k+1] is the [-j2] twin
    of shape [2k] (identical params except [jobs]), so each pair forms
    one {e class} that must produce one payload byte pattern — and, on
    a caching daemon, collapses onto one cache key. *)

val default_skew : float
(** 1.2 *)

val default_universe : int
(** 8 shapes = 4 classes. [universe] should stay even so every shape
    has its jobs twin. *)

val zipf_request :
  ?trace_prefix:string ->
  seed:int -> skew:float -> universe:int -> int -> Proto.request
(** The request for global index [i]; ids are ["z<N>"]. *)

(** The rest of this section uses {!default_skew} and
    {!default_universe}. *)

val run_zipf :
  seed:int -> socket:string -> total:int -> clients:int -> unit -> leg
(** Execute one Zipf leg (same driver and clamping as {!run}). *)

val zipf_distinct_classes : seed:int -> total:int -> int
(** How many distinct classes a leg of [total] requests samples — on a
    cold caching daemon, exactly the expected serial-leg miss count. *)

val zipf_class_mismatches : seed:int -> leg -> int
(** Indices whose ok payload differs from the first ok payload of the
    same class within the leg. Any nonzero count is a determinism bug:
    it means [-j1]/[-j2] twins, or cached vs computed responses for
    one class, disagreed byte-for-byte. *)
