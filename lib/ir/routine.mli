(** A compiled routine: parameters, CFG, and the virtual-register supply. *)

type t = {
  name : string;
  params : Instr.reg list;  (** defined at entry, conventionally [0..n-1] *)
  cfg : Cfg.t;
  mutable next_reg : int;  (** exclusive upper bound on register names *)
  mutable in_ssa : bool;
      (** true between SSA construction and destruction; passes assert the
          form they expect *)
}

val create :
  name:string -> params:Instr.reg list -> cfg:Cfg.t -> next_reg:int -> t

(** Deep copy (blocks rebuilt; instruction lists are immutable values). *)
val copy : t -> t

(** Roll the routine back, in place, to the state captured in a [copy] —
    the rollback half of the harness's checkpoint/restore. The snapshot
    survives, so one checkpoint can back out several failed attempts.
    @raise Invalid_argument when the snapshot is of a different routine. *)
val restore : t -> from:t -> unit

(** Structural equality: name, parameters, [next_reg], [in_ssa], entry and
    every block slot (holes included), instruction by instruction. Constant
    values compare bit for bit, so [0.0] differs from [-0.0]. Cheap on an
    unchanged [copy]: each block's instruction list is tried with [==]
    first, since [copy] shares those lists. *)
val equal : t -> t -> bool

val fresh_reg : t -> Instr.reg

(** Static ILOC operation count — instructions plus terminators, the metric
    of the paper's Table 2. *)
val op_count : t -> int

(** Instructions only, terminators excluded. *)
val instr_count : t -> int

exception Ill_formed of string

(** Structural well-formedness: terminator targets exist, registers in
    range, phis lead their block and match the CFG predecessors. The
    dominance-aware SSA check lives in [Epre_ssa.Ssa_check].
    @raise Ill_formed with a diagnostic on violation. *)
val validate : t -> unit
