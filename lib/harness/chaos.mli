(** Seeded fault injection — adversarial passes that corrupt IR on purpose.

    Each kind models one failure class a buggy optimizer pass can exhibit,
    chosen so that together they exercise every detection tier of the
    harness:

    - [Drop_instr] deletes a live instruction — IR stays structurally
      well-formed; only translation validation ([Exec]) catches it;
    - [Swap_operands] swaps the operands of a non-commutative binop —
      again structurally valid, caught by translation validation;
    - [Break_phi] plants a phi whose arguments disagree with the CFG
      predecessors — caught by [Routine.validate] ([Ir] tier);
    - [Detach_edge] retargets a terminator at a missing block — caught by
      [Routine.validate] ([Ir] tier).

    Corruption sites are chosen by a deterministic PRNG seeded from
    [(seed, routine name)], so a given seed reproduces the same fault on
    the same input — chaos runs are replayable and bisectable. A kind with
    no applicable site in a routine is a no-op there. *)

open Epre_ir

type kind = Drop_instr | Swap_operands | Break_phi | Detach_edge

val all_kinds : kind list

(** Registry name, e.g. ["chaos:drop-instr"]. *)
val name : kind -> string

val description : kind -> string

val of_name : string -> kind option

(** Seed used by the registry entries and the CLI; settable via
    [--chaos-seed]. *)
val default_seed : int ref

(** Corrupt one site of the routine, deterministically for a given
    [(seed, routine name)] pair. Defaults to [!default_seed]. *)
val run : ?seed:int -> kind -> Routine.t -> unit

(** Parse a [--chaos] spec, ["chaos:drop-instr@2"]: the 0-based position
    to splice at (default 0) and the kind as a harness pass (seed read at
    call time). [Error] on a missing, malformed or negative position and
    on a name that is not one of {!all_kinds}. *)
val parse_spec : string -> (int * Harness.named_pass, string) result

(** {1 Service-layer faults}

    Where {!kind} corrupts IR to exercise the harness's validation tiers,
    a [service_fault] attacks the compile service's infrastructure to
    exercise its fault-tolerance layer ([Epre_service]): per-job deadlines
    absorb [Slow_job], poison recovery absorbs [Cache_corrupt], lock
    waiting absorbs [Cache_lock_hold], [--resume] absorbs [Kill_self], and
    the degradation ladder and circuit breakers absorb [Pass_poison].

    Whether a fault fires for a given job is a pure function of
    [(seed, fault, key)] — chaos traffic is replayable, and a serial and a
    parallel run over the same jobs inject exactly the same faults. *)

type service_fault =
  | Slow_job
  | Cache_corrupt
  | Cache_lock_hold
  | Kill_self  (** abort serve at a journal-consistent batch boundary *)
  | Pass_poison  (** one pass fails deterministically on every job *)

(** The exception [Pass_poison] plants inside the poisoned pass: a
    deterministic pass failure that recurs on every run of that pass.
    Carries the poisoned pass name. *)
exception Pass_poisoned of string

val all_service_faults : service_fault list

(** Registry name, e.g. ["chaos:slow-job"]. *)
val service_name : service_fault -> string

val service_description : service_fault -> string

val service_fault_of_name : string -> service_fault option

(** [fires fault ~key] decides deterministically whether [fault] strikes
    the job identified by [key] (hash of seed, fault and key against a
    per-fault rate). Defaults to [!default_seed]. [Pass_poison] fires for
    every key — a deterministic failure is the point — and which pass it
    poisons comes from {!poison_target}. *)
val fires : ?seed:int -> service_fault -> key:string -> bool

(** [poison_target ~candidates ()] picks the pass [Pass_poison] breaks —
    one deterministic choice per seed from [candidates], [None] when the
    list is empty. The service restricts candidates to passes absent from
    the [-O0] pipeline so the degradation floor always survives. Defaults
    to [!default_seed]. *)
val poison_target : ?seed:int -> candidates:string list -> unit -> string option
