(** A snapshot object granted as an atomic primitive: [update] and [scan]
    are each a single step. Not part of the paper's register-only model —
    exists for the A1 ablation experiment, quantifying what the register-built
    {!Snapshot} costs the protocols. *)

type 'a t

val create : name:string -> size:int -> init:(int -> 'a) -> 'a t

val size : 'a t -> int

val update : 'a t -> me:int -> 'a -> unit
(** One step. *)

val scan : 'a t -> 'a array
(** One step. *)

val peek : 'a t -> 'a array
