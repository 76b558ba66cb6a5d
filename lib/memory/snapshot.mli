(** Wait-free atomic snapshot built from registers.

    Implements the single-writer atomic-snapshot object of Afek, Attiya,
    Dolev, Gafni, Merritt and Shavit (JACM 1993) — reference [1] of the
    paper, which Fig 2 relies on. The object has [size] positions;
    [update i v] writes position [i] (only process [i] may do so) and
    [scan] returns an atomic view of all positions. Both operations are
    built exclusively from register reads and writes, each a model step;
    [scan] costs a variable number of collects but is wait-free: after at
    most [2·size + 1] collects it either completes a successful double
    collect or borrows the embedded view of a process it saw move twice.

    The key property the paper's Theorem 6 proof uses: the results of any
    two scans are related by containment. Tests check this on version
    vectors via {!scan_versioned}. *)

type 'a t

val create : name:string -> size:int -> init:(int -> 'a) -> 'a t
(** Positions start at [init i] with version 0. *)

val size : 'a t -> int

val update : 'a t -> me:int -> 'a -> unit
(** Write position [me]. Single-writer: only one process may ever update
    a given position. Costs one scan plus two register operations. *)

val scan : 'a t -> 'a array
(** An atomic view of all positions. *)

val scan_versioned : 'a t -> ('a * int) array
(** Like {!scan} but pairing each value with its per-position version
    (update count); version vectors of concurrent scans are related by
    containment (pointwise [≤] one way or the other). *)

val scan_timed : 'a t -> 'a array * int * int
(** [scan_timed t] is [(view, first, last)] where [first]/[last] are the
    times of the scan's first and last register accesses — the real-time
    interval history recorders attribute to the operation. *)

val update_timed : 'a t -> me:int -> 'a -> int * int
(** Like {!update}, returning the times of the operation's first register
    access and of the final write (its linearization point). *)

val unsafe_plant : 'a t -> Kernel.Mutant.t -> unit
(** Harness-only, no steps: plant a bug in this instance alone.
    {!Kernel.Mutant.Snapshot_single_collect} makes {!scan} return its
    first collect without double-collect validation, so concurrent
    updates can yield atomically inconsistent views; every other mutant
    is ignored. For checker regression tests only. *)
