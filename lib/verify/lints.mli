(** The [L0xx] lints: warnings about IR that is well-formed but that a
    well-behaved optimization pipeline should not leave behind — unsplit
    critical edges after PRE, dead pure code after DCE, forwarding blocks
    after clean, non-pruned or redundant phis after SSA construction, and
    reassociable operands out of rank order after reassociation.

    Lints never fail verification on their own; the harness surfaces them
    as counts, [eprec lint] prints them, and [--strict] callers may
    promote them. [check] runs every lint; [check_only] restricts to a
    subset of rule ids (used for each pass's postcondition lints). *)

open Epre_ir

val check : Routine.t -> Diag.t list

(** Run only the lints whose rule id is listed: a lint family none of
    the ids belongs to is not computed at all (L007's throwaway SSA copy
    only when L007 is asked for). Equal to filtering [check] by [ids].
    Unknown ids are ignored. *)
val check_only : string list -> Routine.t -> Diag.t list
