(** Descriptive statistics for experiment aggregation.

    Every function is total on the empty list: an experiment family can
    end up with zero qualifying runs (e.g. after filtering on an
    outcome), and aggregation must not crash mid-report. *)

val mean : float list -> float
(** 0 on the empty list. *)

val mean_int : int list -> float

val percentile : float -> int list -> float option
(** [percentile q xs] with q in [0,1], nearest-rank with linear
    interpolation; [None] on the empty list. Raises only on q outside
    [0,1] (a programming error, not a data condition). *)

val percentile_or : default:float -> float -> int list -> float
(** {!percentile} with an explicit fallback for the empty list. *)
