(** Point-to-point links, reliable or partially synchronous (the GST
    model). The one message layer: ABD's replicas ({!Memory.Abd}) and
    the heartbeat detectors all run on it.

    Every send is one step and every poll is one step. Before a
    configurable {e global stabilization time} every message may
    independently be {e lost} or {e delayed}; from GST on, every message
    is delivered within a known bound [delta]. {!default_config} (GST 0,
    [delta] 1, no loss) is the reliable network: a message becomes
    receivable the step after its send, and the receiver learns of it
    only when it takes a poll step, which the scheduler may delay
    arbitrarily — all asynchrony then comes from scheduling.
    Heartbeat-implemented failure detectors ({!Detectors.Hb_ev_perfect},
    {!Detectors.Hb_ev_strong}) run over lossy configurations.

    Determinism: a message's fate (drop, or a ready time) is decided at
    send time by a pure RNG keyed on (config seed, sender, destination,
    send time). Send times are globally unique — one step per time — so
    a run is a pure function of (config, schedule): the same seed and
    schedule replay byte-identically, which keeps {!Check.Dpor} and
    [-jN] pools exact. Simulated time is the global step count; no wall
    clock is involved.

    Steps are labelled [Send]/[Recv] on the destination-mailbox object
    ("name->pid"), which the exploration layers treat exactly like
    writes: sends to and polls of one mailbox conflict, operations on
    distinct mailboxes commute. Sends and deliveries feed the
    [net.link.*] metrics ({!Obs.Metrics}): a link counts through the
    registry of the domain that created it, taken once, so it must be
    stepped in that domain, like a {!Memory.Register}.

    Delivery is send order filtered by readiness: a poll returns every
    message to its caller whose ready time has arrived, oldest send
    first, and leaves the rest queued in their order. A step allocates
    only its effect round trip and what it adds or delivers: a send its
    log record and inbox entry, a poll its result and the list it
    returns. Labels, poll steps and the fate generator are built once,
    in {!create}. *)

type config = {
  gst : int;  (** first time at which links are timely *)
  delta : int;
      (** post-GST delivery bound: a message sent at [t >= gst] has
          ready time in [\[t+1, t+delta\]]. Must be >= 1. *)
  pre_delay : int;
      (** maximum {e extra} delay before GST: ready times fall in
          [\[t+1, t+1+pre_delay\]] *)
  loss_pct : int;  (** pre-GST per-message loss probability, percent *)
  link_seed : int;  (** keys the per-message fate draws *)
}

val default_config : config
(** [gst=0, delta=1, pre_delay=0, loss_pct=0]: the reliable timely
    network — nothing is dropped and every message is ready the step
    after its send. *)

val check_config : config -> unit
(** Raises [Invalid_argument] on out-of-range fields. *)

val pp_config : Format.formatter -> config -> unit
(** ["gst=40,delta=4,pre_delay=8,loss=25,seed=7"] — stable, parseable
    (used in scenario names). *)

val config_to_string : config -> string

val config_of_string : string -> (config, string) result
(** Inverse of {!config_to_string}; validates with {!check_config}. *)

type 'm t

val create : name:string -> n_plus_1:int -> config:config -> unit -> 'm t

val name : 'm t -> string
val config : 'm t -> config

val send : 'm t -> to_:Pid.t -> 'm -> unit
(** One [Send] step: decide the message's fate and, unless dropped,
    enqueue it at the destination with its ready time. *)

val broadcast : 'm t -> 'm -> unit
(** [n_plus_1] send steps, destinations in pid order (includes self). *)

val poll_now : 'm t -> me:Pid.t -> int * (Pid.t * 'm) list
(** One [Recv] step: deliver every queued message whose ready time has
    arrived, oldest send first, with senders — plus the step's time, so
    timeout-driven protocols learn [now] without a second step.
    Messages not yet ready stay queued for a later poll. [me] must be
    the calling process (checked at step time). *)

val poll : 'm t -> me:Pid.t -> (Pid.t * 'm) list
(** [poll_now] without the time. *)

val in_flight : 'm t -> Pid.t -> int
(** Oracle access: undelivered, undropped messages addressed to a pid,
    ready or not; no step. *)

(** {1 Post-run oracles}

    Every send is logged with its fate and delivery time; the log is the
    evidence for the subsystem's safety checks. Oracle access, no
    steps. *)

type send_record = {
  sr_from : Pid.t;
  sr_to : Pid.t;
  sr_sent_at : int;
  sr_ready_at : int;  (** [-1] = dropped *)
  mutable sr_delivered_at : int;  (** [-1] = still in flight *)
}

val sends : 'm t -> send_record list
(** Chronological send log. *)

val check_partial_synchrony : 'm t -> (unit, string) result
(** The link respected its contract on every message: nothing sent at
    or after GST was dropped or delivered later than [sent + delta]; no
    message was receivable in its own send step; nothing was delivered
    before its ready time or after being dropped. *)

val check_crash_isolation : 'm t -> pattern:Failure_pattern.t -> (unit, string) result
(** No message was delivered to a process at or after its crash time —
    a crashed process can never observe a message, whatever the
    schedule. *)

val undelivered_ready : 'm t -> by:int -> send_record list
(** Messages whose ready time had arrived by [by] but which were never
    polled — the liveness residue a fair schedule should drain. *)
