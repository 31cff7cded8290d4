(** A minimal JSON reader and printer for the repo's reports
    (BENCH_*.json, LINT.json) without pulling in a JSON dependency.
    Full number/string/escape support; not a streaming parser -- fine
    at report scale. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Carries a byte offset and a short description. *)

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val parse_file : string -> (t, string) result
(** [Error] covers both I/O failures and parse errors. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val to_string : t -> string
(** The one report layout: a top-level object puts each field on its
    own line, and a field holding an array of objects or arrays puts
    each element on its own line; everything nested deeper is inline,
    as [{"key": value, ...}].  Strings escape the double quote and the
    backslash and write every control byte as a \u00XX escape;
    non-finite numbers print as [null].  Ends with a newline.
    [parse (to_string v)] is [v] for finite numbers. *)
