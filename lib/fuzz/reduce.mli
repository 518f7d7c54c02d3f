(** Greedy, deterministic reduction over ILOC programs.

    Shrinks a failing program while preserving its failure signature —
    [still_fails] is the caller's oracle (typically "{!Oracle.check},
    restricted to the failing level, still reports the same class").
    Every candidate must first pass [Epre_verify.Verify.check_program]
    with no errors, so only strict, well-typed ILOC reaches the oracle:
    a deletion that leaves a register read before any definition (V008),
    a zero of the wrong type (T rules) or a routine some call still names
    (T008) rejects itself.

    A sweep visits every site from the last to the first (routines in
    order, blocks in id order, instructions in order, then the block's
    terminator, then the routine itself), so the sites not yet visited stay
    valid after an accepted edit. Per site, the first accepted candidate
    wins:

    - an instruction: delete it; else delete it and the rest of its
      block; else replace it with [const 0], then with [const 0.0], into
      the same register (not for a const);
    - a [cbr]: turn it into a [jump] to its [ifso] arm, else to its
      [ifnot] arm, and remove the blocks the entry no longer reaches;
    - a [jump B] where [B] has no instructions and ends in [jump C]:
      retarget it to [C], and remove the blocks the entry no longer
      reaches (a sweep visits blocks last to first, so one sweep
      bypasses a whole chain of such blocks);
    - a routine other than [main]: delete it.

    Sweeps repeat until one accepts nothing, at most ten times. *)

type stats = {
  original_instrs : int;
  reduced_instrs : int;
      (** instructions summed over routines, terminators excluded
          ([Routine.instr_count]) *)
  rounds : int;  (** sweeps actually run, including the final no-progress one *)
  tried : int;  (** candidates offered to [still_fails] *)
  accepted : int;
}

val stats_to_tjson : stats -> Epre_telemetry.Tjson.t

(** [run ~still_fails prog] — [prog] itself must satisfy [still_fails];
    the result always does. [prog] is not modified: candidates are
    copies. *)
val run :
  still_fails:(Epre_ir.Program.t -> bool) ->
  Epre_ir.Program.t ->
  Epre_ir.Program.t * stats
