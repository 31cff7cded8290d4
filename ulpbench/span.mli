(** The benchmark's span tracer: preallocated, lock-free, in memory.

    A span is a name, a start and end (monotonic ns), the index of its
    parent span (-1 for a root) and a request id; spans of one request
    share the id.  Recording claims a slot with one fetch-and-add and
    writes five unboxed cells, from any domain or thread; nothing is
    written out until {!analyze}/{!dump} after the run.  A buffer of
    capacity 0 is the disabled tracer: {!start} returns -1 without
    reading the clock and {!finish} ignores -1. *)

type name =
  | Handler  (** [tcp.handler]: the Tcp_server handler, per connection *)
  | Spawn  (** [proc.spawn] *)
  | Adopt  (** [proc_io.adopt], in the child ULP *)
  | Waitpid  (** [proc.waitpid], the handler reaping its child *)
  | Service  (** [server.service]: read return to write_all return *)
  | Write_all  (** [proc_io.write_all] *)
  | Coupled  (** [blt_rt.coupled], round trip seen by the fiber *)
  | Body  (** [blt_rt.body], on the executor thread *)

val all : name list
val to_string : name -> string

type t

val create : int -> t
(** [create cap]; [create 0] is the disabled tracer. *)

val enabled : t -> bool

val start : t -> name -> parent:int -> req:int -> int
(** Open a span; returns its index, or -1 when disabled or full. *)

val finish : t -> int -> unit

val record : t -> name -> parent:int -> req:int -> t0:int -> t1:int -> int
(** A finished span with given bounds (tests build fixtures with it). *)

val recorded : t -> int
val dropped : t -> int
(** Spans lost to a full buffer. *)

type per_name = {
  count : int;
  dur_ns : int array;  (** ascending *)
  self_ns : int array;  (** ascending: duration minus the union of
                            the children's intervals *)
}

type report = {
  names : (name * per_name) list;
  handoff_ns : int array;
      (** ascending: per coupled call, round trip minus body *)
  unfinished : int;  (** spans never finished *)
  not_nested : int;  (** children reaching outside their parent *)
  negative_self : int;  (** spans whose self time came out < 0 *)
}

val analyze : t -> report
(** Call only after every recording thread is quiescent. *)

val dump : t -> out_channel -> unit
(** One tab-separated line per span: index, name, parent, req, t0, t1. *)
