(** The shared expression-level data-flow client.

    [Pre.run], [Pre.run_classic], [Cse_avail] and the redundancy auditor
    all solve the same problems over the same universe: build
    [Expr_universe], take the ANTLOC/COMP/KILL local sets, and feed a
    gen/kill system to the generic [Dataflow] solver. This module is that
    construction, written once. The four classic systems:

    - {b availability} (forward, ∩): evaluated on {e every} path from the
      entry with no later kill — full redundancy;
    - {b anticipability} (backward, ∩): evaluated on {e every} path to the
      exit before any kill — down-safety of a placement;
    - {b partial availability} (forward, ∪): evaluated on {e some} path —
      the "partial" in partial redundancy;
    - {b partial anticipability} (backward, ∪): up-safety's counterpart,
      evaluated on some downstream path before a kill. *)

open Epre_util
open Epre_ir

type t = {
  uni : Expr_universe.t;
  local : Expr_universe.local;
  width : int;  (** [Expr_universe.size uni] *)
  cfg : Cfg.t;
}

(** Build the universe and local sets for a routine. [uni], when given,
    is used instead of [Expr_universe.build r]; it must be that universe
    (only the local sets are recomputed). *)
val build : ?uni:Expr_universe.t -> Routine.t -> t

(** Forward ∩ over COMP/KILL; [ins]/[outs] are AVIN/AVOUT. *)
val availability : t -> Dataflow.result

(** Backward ∩ over ANTLOC/KILL; [ins]/[outs] are ANTIN/ANTOUT. *)
val anticipability : t -> Dataflow.result

(** Forward ∪ over COMP/KILL; PAVIN/PAVOUT. *)
val partial_availability : t -> Dataflow.result

(** Backward ∪ over ANTLOC/KILL; PANTIN/PANTOUT. *)
val partial_anticipability : t -> Dataflow.result

(** The lazy-code-motion placement (Drechsler–Stadel earliest/later
    form): where insertions would go and which evaluations they cover.
    [Pre] drives its transformation from this; the redundancy auditor
    reads the same equations to judge what a safe placement {e could}
    remove, so engine and auditor can never disagree. *)
type placement = {
  laterin : Bitset.t array;
  later : int -> int -> Bitset.t;
      (** LATER over the real edge (i, j), from the settled [laterin];
        [INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j)] *)
  later_virtual : Bitset.t;
      (** LATER over the virtual entry edge — [ANTIN(entry)], the legal
        insertion point for expressions anticipated at routine entry *)
}

val lcm_placement : t -> placement

(** [DELETE(b) = ANTLOC(b) ∧ ¬LATERIN(b)] per block: the upward-exposed
    evaluations a safe lazy placement covers — exactly what one [Pre]
    round would delete. *)
val lcm_delete : t -> Bitset.t array
