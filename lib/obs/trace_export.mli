(** JSONL serialization of run traces.

    One event per line, flat schema ([time], [pid], [kind], plus the
    kind's fields and the optional [note], the rendered step payload).
    A reloaded step holds its note as {!Kernel.Sim.Note}, where the live
    run held a {!Kernel.Sim.Value}, so
    [Result.map to_lines (of_lines (to_lines t)) = Ok (to_lines t)] for
    every trace, and [of_lines (to_lines t) = Ok t] for one without
    values. An exported run can be reloaded and replayed
    exactly — {!Kernel.Trace.schedule} of the loaded trace
    driven through {!Kernel.Policy.script} over a fresh identical world
    reproduces the original decisions. *)

open Kernel

val json_of_event : Trace.event -> Obs.Json.t
val event_of_json : Obs.Json.t -> (Trace.event, string) result

val to_lines : Trace.t -> string list
(** One compact JSON document per event, in trace order. *)

val of_lines : string list -> (Trace.t, string) result
(** Inverse of {!to_lines}; blank lines are skipped, the first malformed
    line aborts with its line number. *)

val save_channel : out_channel -> Trace.t -> unit
val save_file : string -> Trace.t -> unit
val load_channel : in_channel -> (Trace.t, string) result
val load_file : string -> (Trace.t, string) result
