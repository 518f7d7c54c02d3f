(** Natural loops and nesting depth.

    A back edge is an edge [t -> h] where [h] dominates [t]; the natural
    loop of that edge is [h] plus every reachable block reaching [t]
    without passing through [h]. Loops sharing a header are merged. *)

type loop = {
  header : int;
  body : int list;  (** includes the header *)
}

type t

(** The natural loops of a CFG view. *)
val compute : Dataflow.graph -> t

val loops : t -> loop list

(** Nesting depth of a block; 0 when outside every natural loop. *)
val depth : t -> int -> int
