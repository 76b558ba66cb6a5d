(** One-shot consensus objects granted as atomic primitives.

    Models the "n-process consensus objects" of Corollaries 3–4 and the
    type-booster setting of [13,21]: an object on which at most [ports]
    distinct processes may ever operate, returning the first value
    proposed to every proposer. [propose] is one step. *)

open Kernel

type 'a t

exception Port_exhausted of string
(** Raised when a [ports]-limited object is accessed by more distinct
    processes than it has ports — the simulator's rendering of "an
    n-consensus object cannot serve n+1 processes". *)

val create : name:string -> ports:int option -> 'a t
(** [ports = None] means unrestricted (full consensus object). *)

val propose : 'a t -> 'a -> 'a
(** One step: decide and return the object's value (the first proposal).
    Raises {!Port_exhausted} if the caller is the [ports+1]-th distinct
    process to touch the object. *)

val accessors : 'a t -> Pid.Set.t
