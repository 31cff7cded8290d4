(** The one bench report schema, shared by every suite: suite-level
    facts plus rows keyed on [(name, params)], one JSON form, one diff
    and one gate runner.  A suite supplies only its workloads and its
    gates. *)

val schema : string
(** ["ulp-pip/bench/v5"]. *)

type row = {
  name : string;  (** the workload *)
  params : (string * Json.t) list;
      (** what was varied: with [name], identifies the row across runs *)
  items : int;  (** the row's size: the work one run does *)
  median_s : float;
  p99_s : float;
  throughput_per_s : float;
  telemetry : (string * Json.t) list;  (** suite-specific counters *)
}

type file = {
  suite : string;
  host_cores : int;
  quick : bool;
  facts : (string * Json.t) list;
      (** suite-specific top-level fields, written before the rows *)
  rows : row list;
}

val num : (string * Json.t) list -> string -> float option
(** A numeric param, telemetry entry or fact. *)

val show : Json.t -> string
(** A scalar for a table cell: integers without a fraction. *)

val label : row -> string
(** [name[k=v ...]], for messages. *)

val find : row list -> string -> (string * Json.t) list -> row option
(** The row with this name and exactly these params. *)

val peer : row list -> row -> string * Json.t -> row option
(** [peer rows r (k, v)]: the row named like [r] whose params equal
    [r]'s except that [k] is [v]. *)

val to_json : file -> Json.t

val of_json : Json.t -> (file, string) result
(** Checks the schema, a non-empty results array, and every row's shape:
    the fixed fields and every numeric telemetry entry are finite and
    non-negative. *)

val write : string -> file -> unit
(** Writes [Json.to_string (to_json f)]. *)

val read : string -> (file, string) result

val print_rows :
  title:string -> ?extra:(string * (row -> string)) list -> row list -> unit
(** A results table: the fixed fields, then one column per [extra]. *)

val diff :
  ?min_ratio:float ->
  ?sized:bool ->
  metric:string ->
  better:[ `Lower | `Higher ] ->
  (file -> row -> float option) ->
  old:file ->
  file ->
  string list
(** [diff ~metric ~better value ~old now] prints one table row per row
    of [now] that [old] also has (same name and params): the old and
    new [value] (the file is passed for values derived from a peer row;
    [None] leaves the row out) and the gain, > 1 meaning better now.  A
    [sized] metric (the default) depends on the work a row does, so it
    shows no gain when the two rows' [items] differ ("size differs").
    Returns one message per row whose gain is below [min_ratio]. *)

type gate = string * (file -> string list)
(** A named check; each string is one violation. *)

val check : gate list -> file -> (string * string) list
(** Every violation, paired with its gate's name, in gate order. *)
