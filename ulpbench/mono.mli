(** Monotonic nanoseconds ([CLOCK_MONOTONIC]), comparable across the
    threads and domains of one process. *)

val now_ns : unit -> int
