(** Durable job journal — the write-ahead log behind [eprec serve --resume].

    An append-only JSONL file (by convention [<cache-dir>/journal.jsonl])
    recording the lifecycle of every job in a serve batch:

    {v {"type":"accepted","seq":3,"id":"job-3","key":"<md5 of raw line>","run":"<run id>","line":7}
       {"type":"started","seq":3,"id":"job-3","key":"...","run":"...","fingerprint":"epre-pipeline-v1|..."}
       {"type":"done","seq":3,"id":"job-3","key":"...","run":"...","outcome":"ok"}
       {"type":"failed","seq":4,"id":"job-4","key":"...","run":"...","outcome":"error"} v}

    [seq] is the job's 1-based position among the non-blank input lines,
    [key] the MD5 of the raw input line (content hash), [fingerprint] the
    pipeline fingerprint the job was dispatched against. [done]/[failed]
    records are appended only {e after} the job's result line has been
    flushed to the output stream, so on resume a [done]/[failed] entry
    proves the line was emitted and the job is skipped; an [accepted] or
    [started] entry without one proves it was not, and the job re-runs
    exactly once. (A crash inside the flush-then-journal window can
    re-emit an already-flushed line — the protocol is at-least-once per
    line, exactly-once per journaled line.)

    [run] stamps every record with the id of the serve incarnation that
    wrote it. A non-resume open mints a fresh run id and — when no live
    process still holds the journal's advisory lock — truncates the file,
    so records from a {e completed} previous batch over the same input
    can never satisfy a later [--resume] (same [(seq, key)], different
    batch) and silently swallow its lines. A resume open continues the
    last run id found in the file, so chained resumes honor every record
    of the same logical batch; {!emitted} filters by run id, keeping
    interleaved records from a concurrent serve (which the lock left
    untruncated) out of the replay set.

    Each {!append} issues a single [write] on an [O_APPEND] descriptor
    followed by [fsync], so records from concurrent serves interleave at
    line granularity and survive the process. {!load} tolerates a torn
    trailing line (a crash mid-append) by skipping undecodable lines. *)

type t

type entry = {
  kind : string;  (** ["accepted"] | ["started"] | ["done"] | ["failed"] *)
  seq : int;
  id : string;
  key : string;
  fields : (string * Epre_telemetry.Tjson.t) list;
      (** extra fields: ["run"], ["line"], ["fingerprint"], ["outcome"], ... *)
}

val entry :
  kind:string ->
  seq:int ->
  id:string ->
  key:string ->
  ?fields:(string * Epre_telemetry.Tjson.t) list ->
  unit ->
  entry

(** Open (creating if absent) for appending. [`Fresh] (default) starts a
    new run: mints a run id and truncates any stale journal no live
    process holds. [`Resume] continues the last run recorded in the file
    (minting a fresh id only if the journal is empty) and never
    truncates. The journal holds an advisory [lockf] lock on the file
    for its lifetime. Raises [Sys_error] when the file cannot be opened
    (a directory in its place, a cache directory that is a file). *)
val open_ : ?mode:[ `Fresh | `Resume ] -> path:string -> unit -> t

val path : t -> string

(** The run id this journal stamps on every appended record. *)
val run : t -> string

(** Append the entries as JSONL in one write, then [fsync]. No-op on []. *)
val append : t -> entry list -> unit

(** Decode the journal's current on-disk contents through its own file
    descriptor (an [open_in] on the path would drop this process's
    advisory lock when closed — POSIX fcntl semantics). Same tolerance
    as {!load}. *)
val entries : t -> entry list

val close : t -> unit

(** Decode the journal at [path]: [[]] when the file does not exist;
    undecodable lines (torn tail, foreign garbage) are skipped. *)
val load : path:string -> entry list

(** The run id a record was stamped with, if any. *)
val run_of : entry -> string option

(** The run id of the last stamped entry — the incarnation a [`Resume]
    open continues. *)
val last_run : entry list -> string option

(** The [(seq, key)] pairs of [done]/[failed] entries in [entries] — the
    jobs whose result lines provably reached the output stream. With
    [?run], only entries stamped with that run id count (records from
    other serve incarnations sharing the file are ignored). *)
val emitted : ?run:string -> entry list -> (int * string) list
