(** Structured diagnostics for supervised runs: the [--report=json]
    rendering of harness records, encoded with [Epre_telemetry.Tjson] (one
    encoder for every machine-readable output — reports, metrics JSONL,
    traces, perfbench's report). *)

(** One record: [{"pass": ..., "routine": ..., "outcome": "ok" |
    "rolled-back", "reason": ... (absent when ok), "duration_ms": ...}],
    followed by the record's [meta] pairs verbatim (the fuzzer attaches
    seed / level / repro provenance there). *)
val record_to_json : Harness.record -> string

(** The same record as a [Tjson] value, for embedding in larger documents
    (the fuzz corpus metadata files). *)
val record_to_tjson : Harness.record -> Epre_telemetry.Tjson.t

(** The full report: a JSON array of records, one per line, in execution
    order. *)
val to_json : Harness.record list -> string

(** Human-oriented one-liner, for non-JSON reporting. *)
val record_to_line : Harness.record -> string
