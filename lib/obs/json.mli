(** A minimal JSON tree, printer, and parser.

    The telemetry layer needs machine-readable output (metrics
    snapshots, JSONL trace export, check and sweep documents) without
    adding a dependency, so this module implements just enough of RFC
    8259: objects, arrays, strings with escapes (including [\uXXXX],
    encoded to UTF-8), integers, doubles, booleans, null.  [of_string
    (to_string t)] is the identity for every [t] whose floats are
    finite. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per JSONL line.
    Non-finite floats render as [null]. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] describes the first offending
    offset. Trailing non-whitespace input is an error. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] on
    missing keys and non-objects. *)

val to_int : t -> int option
val to_str : t -> string option

val to_float : t -> float option
(** Accepts both [Float] and [Int]. *)
