(** A minimal JSON tree, encoder and parser.

    The container image bakes in no JSON library, so the telemetry
    exporters (Chrome trace, metrics JSONL, perfbench's report) and the
    harness [Report] share this one. The encoder emits compact,
    standards-conforming JSON; the parser is a strict recursive-descent
    reader used by the test suite and CI to validate what the exporters
    wrote. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** must be finite; encoded as [null] otherwise *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Escape a string for inclusion between double quotes (backslash
    escapes for quote, backslash and control characters). *)
val escape : string -> string

(** Compact one-line encoding. Integral floats print without a fractional
    part; other floats with enough digits to round-trip nanosecond-scale
    timings. *)
val to_string : t -> string

(** Member lookup on an [Obj]; [None] on other constructors. *)
val member : string -> t -> t option

(** Strict parse of a complete JSON document (trailing garbage is an
    error). [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result
