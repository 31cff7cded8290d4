(** The closed-loop load generator: [threads] client domains, each
    holding one connection at a time over blocking [Unix] sockets and
    sending its next request only after the previous echo arrived and
    checked byte-exact.

    Workloads (the server side lives in server.ml):
    - [Echo]: one long-lived connection per thread, 64 B per request;
    - [Churn]: one connection per request — connect, one 64 B echo
      (after which the server closes its end), close by reset; latency
      runs from connect to close;
    - [Owc]: one long-lived connection per thread opened by a 4-byte
      tenant key (the thread index), then 4 KiB per request, which the
      server stores in that tenant's file before echoing it.

    The run moves through phases set from another thread by {!set}:
    warm-up ([Warm]), the timed window ([Measure]) and [Stop]; a request
    belongs to the window if it started in [Measure]. *)

type workload = Echo | Churn | Owc

val workload_of_string : string -> workload option
val msg_bytes : workload -> int

type phase = Warm | Measure | Stop

type control

val control : unit -> control
val set : control -> phase -> unit

type thread_result = {
  key : int;  (** thread index; the Owc tenant key *)
  attempted : int;  (** requests tried, whole run *)
  failed : int;
  w_attempted : int;  (** requests started in the window *)
  w_completed : int;
  w_failed : int;
  conns : int;  (** connections attempted, whole run *)
  lat_ns : int array;  (** window latencies, unsorted *)
  last_ok_seq : int;  (** seq of the last checked request, -1 if none *)
  errors : string list;  (** the first few failures, for the report *)
}

val run :
  control ->
  port:int ->
  workload:workload ->
  seed:int ->
  threads:int ->
  thread_result list
(** Spawn the client domains, return when {!set} [Stop] has been seen
    and every thread closed its connection. *)
