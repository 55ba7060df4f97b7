(** Order statistics for the benchmark's reports. *)

val min_beyond : int
(** 10: the fewest samples that must lie beyond a reported percentile. *)

val beyond : n:int -> float -> int
(** [beyond ~n p] is how many of [n] samples lie above the
    nearest-rank [p]-th percentile. *)

val percentile : float array -> float -> float option
(** Nearest-rank [p]-th percentile ([p] in [0..100]); [None] unless at
    least {!min_beyond} samples lie beyond it. *)

val median : float array -> float
(** Median of repeated whole-run measurements (mean of the middle two
    for even counts). Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float
(** [0.] on an empty array. *)
