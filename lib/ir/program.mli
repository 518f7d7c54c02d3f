(** A program unit: several routines; execution conventionally starts at
    ["main"]. *)

type t

val create : Routine.t list -> t

val find : t -> string -> Routine.t option

(** @raise Invalid_argument when absent. *)
val find_exn : t -> string -> Routine.t

val routines : t -> Routine.t list

val copy : t -> t

(** Static operation count summed over all routines. *)
val op_count : t -> int
