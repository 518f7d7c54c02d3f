(** The shared expression-level data-flow client.

    [Pre.run], [Pre.run_classic], [Cse_avail] and the redundancy auditor
    all solve the same problems over the same universe: build
    [Expr_universe], take the ANTLOC/COMP/KILL local sets, and feed a
    gen/kill system to the generic [Dataflow] solver over one
    [Dataflow.graph] view. This module is that construction, written
    once. A [t] holds its availability solution, and [refresh] keeps a
    [t] current across edits to block bodies, recomputing only what
    changed: a PRE run carries one [t] through all its rounds. The four
    classic systems:

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
  graph : Dataflow.graph;  (** the view every solve here runs over *)
  avail : Dataflow.result Lazy.t;  (** see [availability] *)
}

(** The local sets of [r] over a given universe and graph view: [uni]
    must be [Expr_universe.build r] and [graph] [Dataflow.graph] of [r]'s
    CFG as they stand — a PRE run carries both from round to round. *)
val make : uni:Expr_universe.t -> graph:Dataflow.graph -> Routine.t -> t

(** [make] with a fresh universe and graph view. *)
val build : Routine.t -> t

(** [t] brought up to date after [r]'s instruction lists changed but its
    edges and universe did not: only the changed blocks' local sets are
    recomputed ([Expr_universe.refresh_local]), and [t] itself is
    returned, availability included, when no block changed. *)
val refresh : t -> Routine.t -> t

(** Forward ∩ over COMP/KILL; [ins]/[outs] are AVIN/AVOUT. Solved on
    first use and then held in [t], so the placement and the CSE sweep of
    an unchanged routine share one solution. *)
val availability : t -> Dataflow.result

(** Backward ∩ over ANTLOC/KILL; [ins]/[outs] are ANTIN/ANTOUT. *)
val anticipability : t -> Dataflow.result

(** Forward ∪ over COMP/KILL; PAVIN/PAVOUT. *)
val partial_availability : t -> Dataflow.result

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
