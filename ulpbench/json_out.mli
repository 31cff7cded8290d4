(** JSON string literals for the hand-written reports. *)

val string : string -> string
