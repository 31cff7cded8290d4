(** Seeded request payloads: the bytes of request [seq] on client
    stream [stream] are a pure function of [(seed, stream, seq)], so a
    run is reproducible from its seed and an echo can be checked
    byte-exact without keeping what was sent. *)

val fill : bytes -> seed:int -> stream:int -> seq:int -> unit
(** Overwrite the whole buffer. *)
