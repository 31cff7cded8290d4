(** Percentiles of span durations over sorted samples (nearest rank),
    and the rule for which percentiles a sample count can support: a
    percentile is reported only when at least {!min_beyond} samples lie
    beyond it.  run.py applies the same rule to client latencies. *)

val min_beyond : int
(** 10. *)

val rank : n:int -> num:int -> den:int -> int
(** Samples at or below the [num/den] percentile of [n]:
    [ceil (n * num / den)], exact integer arithmetic, at least 1. *)

val supported : n:int -> num:int -> den:int -> bool
(** At least {!min_beyond} of [n] samples lie beyond the percentile. *)

val at : int array -> num:int -> den:int -> int
(** Nearest-rank percentile of an ascending array.
    @raise Invalid_argument when empty. *)
