(** Persistent content-addressed compilation cache.

    A cache entry maps the digest of (canonical ILOC text of the input
    routine, pipeline fingerprint) to the optimized ILOC text plus the
    recorded [routine_stats]. Because the textual ILOC format round-trips
    exactly and routines are optimized independently, a hit is
    byte-identical to recompiling: the stored text {e is} the result —
    served verbatim, never parsed or re-printed — and the stored
    statistics are replayed into the metrics registry.

    On-disk layout (survives restarts, shared between processes):

    {v
    <dir>/<first two hex chars of key>/<key>.json
    v}

    one JSON object per entry ([{"schema":"epre/cache-entry/v2",
    "key":..., "fingerprint":..., "iloc_md5":..., "iloc":...,
    "stats":{...}}]), where [iloc_md5] is the hex MD5 digest of [iloc].
    Writes go
    through a temp file and [Sys.rename], so concurrent writers (pool
    workers, or two eprec processes sharing a cache dir) can never expose
    a torn entry.

    Cross-process safety: writes additionally hold an advisory [lockf]
    lock on [<dir>/.lock], serializing store/evict across every process
    sharing the directory. Lock order is fixed — the in-process mutex
    first, then the file lock — and reads take neither (rename atomicity
    is enough for them). On open, orphaned [entry*.tmp] files older than
    the sweep age (a crashed writer's leftovers) are swept; temp files
    whose writer is still alive — writers hold an advisory [lockf] lock
    on their temp file — are spared even past the age cutoff.

    Failure semantics: a poisoned entry — unreadable file, malformed
    JSON, wrong schema (a v1 entry included), key mismatch (hash
    collision or tampering), ILOC whose digest does not match
    [iloc_md5], malformed stats, or ILOC that does not open with
    [routine <stats' routine>(] — is deleted and reported as a miss, so
    the service falls back to recompiling (and rewrites the entry)
    instead of crashing or replaying garbage. A store that fails on I/O (an
    unopenable [.lock], a full disk, a read-only directory) removes its
    temp file, bumps [cache.store_failed] and returns: the job keeps its
    freshly optimized routine and only a future hit is lost.

    Counters (in [Epre_telemetry.Metrics], routine key ["<service>"]):
    [cache.hits], [cache.misses], [cache.stores], [cache.evictions]
    (split into [cache.evict_age] for the entry-count bound and
    [cache.evict_size] for the byte budget), [cache.poisoned],
    [cache.store_failed],
    [cache.tmp_swept], [cache.tmp_spared] (a stale-looking temp file kept
    because its writer still holds its lock), [cache.corrupted].

    All operations are domain-safe. *)

type t

(** [$EPREC_CACHE_DIR], else [$XDG_CACHE_HOME/eprec], else
    [$HOME/.cache/eprec], else ["./.eprec-cache"] — never created until
    the first [store]. *)
val default_dir : unit -> string

(** [create ~dir ()] opens (and lazily creates) a cache rooted at [dir],
    sweeping any stale temp files a crashed writer left behind.
    [max_entries] bounds the entry count (default 65536) and [max_bytes]
    the total entry-file bytes (default unbounded): exceeding either
    evicts the oldest entries (by file modification time — insertion
    order, since reads don't touch mtime) down to 90% of the violated
    bound. [sweep_age_s] (default 60 s) is the age a temp file must reach
    before {!sweep_temp} considers it orphaned. *)
val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?sweep_age_s:float ->
  dir:string ->
  unit ->
  t

val dir : t -> string

(** Digest (as lowercase hex) of fingerprint and canonical input text —
    the entry's identity and file name. *)
val key : iloc:string -> fingerprint:string -> string

(** Look up an entry. A hit returns the stored optimized ILOC text of
    one routine, verbatim, and the recorded stats. Bumps [cache.hits] /
    [cache.misses] (and [cache.poisoned] when a corrupt entry had to be
    discarded — a poisoned lookup is a miss). *)
val find : t -> key:string -> (string * Epre.Pipeline.routine_stats) option

(** Persist an entry (last write wins), under the in-process mutex and
    the cross-process file lock. Never raises on I/O: a failed store
    removes its temp file and bumps [cache.store_failed] instead. Bumps
    [cache.stores], and
    [cache.evictions] plus [cache.evict_age] / [cache.evict_size] per
    entry removed by the respective bound. *)
val store :
  t ->
  key:string ->
  fingerprint:string ->
  iloc:string ->
  stats:Epre.Pipeline.routine_stats ->
  unit

(** Release the cache's open [.lock] descriptor, if a store opened one.
    Idempotent; a later [store] opens it again. A process that opens a
    cache per batch closes each one, or it leaks a descriptor per batch. *)
val close : t -> unit

(** Entries currently on disk. *)
val entry_count : t -> int

(** Total entry-file bytes currently on disk. *)
val byte_count : t -> int

(** Remove orphaned [entry*.tmp] files older than [max_age_s] (default:
    the cache's [sweep_age_s]; [create] runs this automatically). Files
    past the cutoff whose writer still holds its advisory temp-file lock
    are spared (bumping [cache.tmp_spared]). Returns the number removed;
    bumps [cache.tmp_swept] per file. *)
val sweep_temp : ?max_age_s:float -> t -> int

(** {1 Chaos hooks} — fault injection for [chaos:cache-*].

    [corrupt t ~key] overwrites the stored entry for [key] in place with
    garbage (a no-op if absent; bumps [cache.corrupted]) — the next
    [find] must take the poison-recovery path. [hold_lock t ~ms] grabs
    the write lock (mutex + file lock) and sleeps, stalling concurrent
    writers. *)

val corrupt : t -> key:string -> unit

val hold_lock : t -> ms:float -> unit
