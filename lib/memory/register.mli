(** Atomic multi-writer multi-reader read/write registers.

    The base object type of the paper's algorithms (§3.1): every shared
    word the protocols use is one of these, and every [read]/[write] is
    exactly one step of the model. Atomicity is by construction — the
    scheduler serializes atomic closures, so each operation takes effect
    at one indivisible instant. *)

type 'a t

val create : name:string -> 'a -> 'a t
(** A fresh register holding the given initial value. The name labels
    steps in the trace. A register counts each operation when its step
    runs (an operation parked when the run stops is not counted), into
    the metrics registry of the domain that created it, so it is used
    in that domain, like the scheduler that steps it and like a
    {!Kernel.Link}. *)

val name : 'a t -> string

val read : 'a t -> 'a
(** One step. Only call from inside a fiber. *)

val write : 'a t -> 'a -> unit
(** One step. Only call from inside a fiber. *)

val read_timed : 'a t -> int * 'a
(** Like {!read}, also returning the global time of the step itself —
    the operation's linearization point. History recorders (model
    checking) use this to timestamp operations by their effective access
    rather than by surrounding bookkeeping steps. *)

val write_timed : 'a t -> 'a -> int
(** Like {!write}, returning the time of the step. *)

val peek : 'a t -> 'a
(** Observe the current value without taking a step — for test oracles
    and harness code only, never for protocol code. *)

val poke : 'a t -> 'a -> unit
(** Set the value without taking a step — for harness initialization
    only. *)

val array : name:string -> size:int -> init:(int -> 'a) -> 'a t array
(** [array ~name ~size ~init] is [size] registers named ["name[i]"]. *)

val collect : 'a t array -> 'a array
(** Read every register in index order — [size] steps, {e not} atomic as
    a whole (that is the point: an atomic view requires the snapshot
    construction). Allocates the result array and nothing per read. *)

val collect_timed : 'a t array -> 'a array * int * int
(** {!collect}, also returning the times of its first and last reads
    ([max_int] and [0] for an empty array). *)

module Counter : sig
  (** A single-writer unbounded counter register, used for the
      ever-growing timestamps of §5.3's Υ¹→Ω reduction and the
      Theorem 1/5 top-movers candidate. A counter is an [int] register:
      it is built by {!create} or {!array} and read by {!read} or
      {!collect}. *)

  type nonrec t = int t

  val incr : t -> unit
  (** One step, a write. Only the counter's owner may call it. *)
end
