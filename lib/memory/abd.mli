(** ABD: atomic register emulation over asynchronous messages
    (Attiya–Bar-Noy–Dolev, JACM 1995), multi-writer variant.

    The paper assumes shared registers; this module shows that substrate
    is realizable in a crash-prone message-passing system with a correct
    majority, so everything built above registers (k-converge, Figs 1–2)
    transfers to message passing. Experiment E10 exercises it.

    Each process runs a {e server} fiber (answering Query/Update requests
    from its local replica, forwarding replies to the local client) and
    performs client operations from its protocol fiber:

    - [write v]: query a majority for tags, pick a tag higher than all
      seen (tie-broken by writer id), then propagate [(tag, v)] to a
      majority;
    - [read]: query a majority, adopt the maximum-tag pair, {e write it
      back} to a majority (the famous read write-back that makes reads
      atomic rather than merely regular), return the value.

    Every message send and mailbox poll is one model step. Liveness needs
    a correct majority; safety holds under any number of crashes.

    Operations are logged with their ABD tags and invoke/response times;
    {!check_atomicity} verifies linearizability of the log — with tags a
    total order on writes is explicit, so atomicity reduces to four
    real-time/tag consistency conditions. *)

open Kernel

type 'a t

type tag = { seq : int; writer : Pid.t }

val compare_tag : tag -> tag -> int

val create : name:string -> n_plus_1:int -> init:'a -> 'a t
(** A keyed store of emulated registers sharing one network and one
    server fiber per process; every key behaves as an independent atomic
    register initialized to [init]. *)

val server : 'a t -> me:Pid.t -> unit -> unit
(** The replica/responder fiber body; run one per process, forever. It
    is a {!Sim.daemon}: once every client fiber has returned or crashed
    the run stops [Quiescent], since no further operation can be
    logged. *)

val read : 'a t -> me:Pid.t -> key:string -> 'a
(** Client read of the named register; blocks (taking steps) until
    majorities respond. A fresh key reads as the store's [init]. *)

val write : 'a t -> me:Pid.t -> key:string -> 'a -> unit

val quorum : 'a t -> int
(** ⌈(n+2)/2⌉, the majority size used by both phases. *)

(** One logged client operation. *)
type 'a op = {
  kind : [ `Read | `Write ];
  pid : Pid.t;
  key : string;
  tag : tag;
  value : 'a;
  invoked : int;
  responded : int;
}

val oplog : 'a t -> 'a op list
(** Completed operations in completion order. *)

val attempts : 'a t -> (string * tag * 'a * int) list
(** Every write attempt whose tag became visible (broadcast), as
    [(key, tag, value, invoke_time)], newest first — including writes
    whose client crashed mid-operation. Model checking uses these as the
    pending operations a linearization may still include. *)

val unsafe_append : 'a t -> 'a op -> unit
(** Append a hand-built entry to the op log — for testing the checker on
    forged histories only. *)

val unsafe_seed_replica :
  'a t -> owner:Pid.t -> key:string -> tag:tag -> 'a -> unit
(** Harness-only, no steps: install [(tag, value)] at [owner]'s replica,
    modelling a write that reached that replica before the run began
    (e.g. a client that crashed mid-update-phase). Pair with
    {!unsafe_attempt} so checkers know the tag is legitimate. *)

val unsafe_attempt : 'a t -> key:string -> tag:tag -> 'a -> invoked:int -> unit
(** Harness-only, no steps: record a broadcast write attempt. *)

val unsafe_plant : 'a t -> Mutant.t -> unit
(** Harness-only, no steps: plant a bug in this instance alone.
    {!Mutant.Abd_skip_write_back} makes {!read} skip the write-back
    phase, so reads are merely regular and non-overlapping reads can see
    new-then-old values; every other mutant is ignored. For checker
    regression tests only. *)

val keys : 'a t -> string list
(** Every key appearing in the op log. *)

val check_atomicity : 'a t -> (unit, string) result
(** Linearizability of the op log, per key:
    + write tags are distinct and respect real-time order;
    + a read's tag is at least the tag of every write completed before
      the read was invoked;
    + reads that do not overlap respect each other's tags;
    + every read's tag was produced by a write invoked before the read
      responded (or is the initial tag). *)
