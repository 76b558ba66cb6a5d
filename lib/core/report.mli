(** Plain-text tables for experiment output: what the CLI and the daemon
    print, and what EXPERIMENTS.md quotes. *)

type table = {
  title : string;
  headers : string list;
  rows : string list list;
}

val render : Format.formatter -> table -> unit
(** Aligned, boxed-with-dashes rendering. *)

val to_string : table -> string

val of_metrics : ?title:string -> Obs.Metrics.snapshot -> table
(** The metrics registry snapshot as a [name / type / value] table —
    what [wfde_cli stats] prints. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_pct : float -> string
(** Render a ratio in [0, 1] as a percentage. *)
