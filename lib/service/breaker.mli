(** Per-pass circuit breakers.

    A deterministically-failing pass (a miscompiled build, a poisoned
    input class, [chaos:pass-poison]) would otherwise fail every job that
    runs it, on every attempt. The breaker registry turns that into a
    fleet-wide {e degradation}: each pass name carries a tiny state
    machine

    {v closed --(threshold consecutive failures)--> open
       open --(probe_after pipeline executions)--> half-open
       half-open --(success)--> closed
       half-open --(failure)--> open v}

    While a pass's breaker is open, {!excluded} reports it and the service
    serves the job at the highest optimization level whose pipeline does
    not contain it (or at the requested level, when every level runs the
    pass). After
    [probe_after] skipped executions the breaker goes half-open and lets
    one pipeline run the pass as a probe: success closes the breaker,
    another failure re-opens it.

    Every transition is logged as a structured [breaker.transition] event
    and bumps a [breaker.<state>] counter. All operations are thread-safe;
    under a parallel pool several jobs may probe a half-open breaker
    concurrently, which only means a few extra probes. *)

type t

(** [create ()] — fresh registry, all breakers closed. [threshold] is the
    consecutive-failure count that opens a breaker (default 3);
    [probe_after] the number of skipped pipeline executions before a
    half-open probe (default 8). Both are clamped to at least 1. *)
val create : ?threshold:int -> ?probe_after:int -> unit -> t

(** Record one application outcome for [pass]. Failures count
    consecutively; any success resets the count (and closes a half-open
    breaker). *)
val success : t -> pass:string -> unit

val failure : t -> pass:string -> unit

(** [excluded t ~passes] — the subset of [passes] whose breakers are open,
    to be avoided by the pipeline about to run, each named once in
    first-occurrence order. Counts one execution against each open
    breaker's probe timer, however often its pass appears in [passes]; a
    breaker whose timer expires flips to half-open and is {e not}
    excluded (that run is its probe). *)
val excluded : t -> passes:string list -> string list

(** Current state name per known pass (["closed"], ["open"],
    ["half-open"]), sorted by pass name — for stats lines and tests. *)
val snapshot : t -> (string * string) list
