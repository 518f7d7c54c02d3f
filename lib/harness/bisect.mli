(** Pass-sequence bisection: find the minimal failing prefix of a pass
    sequence and show what the culprit pass did to the IR.

    The oracle is the harness itself: [run] is {!Harness.supervise} at the
    [Exec] tier with [keep_going = false], on a copy of the program. Each
    (pass, routine) application is checked by the full verifier (as under
    [--safe]) and the whole program is translation-validated after it, so
    the first application that fails names the culprit pass, the routine
    and the harness's reason; the prefix ending at that pass is, by
    construction, the minimal failing prefix. The IR delta comes from a
    replay: the known-good prefix on a fresh copy, then the culprit over
    each routine up to the failing one. The input program is not
    modified. *)

open Epre_ir

type failure = {
  index : int;  (** 0-based position of the culprit in the sequence *)
  pass : string;
  routine : string;  (** the routine whose application failed *)
  reason : Harness.reason;
  delta : (string * string) list;
      (** per changed routine, a line diff ([-]/[+] markers) of the IR
          before vs after the culprit pass *)
}

(** [run ~passes p] checks the sequence on a copy of [p]; [fuel] is the
    reference run's interpreter budget ({!Harness.config}). Returns
    [None] when the whole sequence is healthy. *)
val run : ?fuel:int -> passes:Harness.named_pass list -> Program.t -> failure option

(** Render a failure for the terminal: culprit header, the harness's
    reason, then the IR delta. *)
val pp_failure : Format.formatter -> failure -> unit
