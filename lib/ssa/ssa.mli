(** Pruned SSA construction and destruction.

    Construction follows Cytron et al.: phis at iterated dominance
    frontiers, pruned by liveness, renamed along a dominator-tree walk.
    Following the paper's Section 3.1, the renaming step by default folds
    copies away ("effectively folding them into phi-nodes"), freeing the
    optimizer from the programmer's choice of variable names.

    Destruction splits critical edges and lowers each block's phis to
    sequentialized parallel copies (see [Parallel_copy]), placed at
    predecessor ends — or at the block top for single-predecessor blocks. *)

open Epre_ir
open Epre_analysis

(** A register was read on some path before any write. The front end's
    zero-initialization of locals prevents this for compiled programs. *)
exception Use_before_def of { routine : string; reg : Instr.reg }

type build_config = { fold_copies : bool }

(** What construction computed on the routine's CFG. Building SSA adds no
    edge, so both stay valid for the SSA form until a pass edits edges. *)
type built = { graph : Dataflow.graph; dom : Dom.t }

(** Convert to pruned SSA in place. Requires [not in_ssa]. First gives the
    entry no predecessor ([Cfg.give_entry_no_preds]): renaming starts at
    the entry with the parameters' names, which is only right when control
    reaches it from outside alone. [config] defaults to
    [{ fold_copies = true }].
    @raise Use_before_def on non-strict input. *)
val build : ?config:build_config -> Routine.t -> built

(** Replace phis by copies; requires [in_ssa]. Safe on value-renamed code
    (GVN output): copy groups keep parallel semantics. *)
val destroy : Routine.t -> Routine.t
