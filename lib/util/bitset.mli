(** Fixed-width mutable bit sets.

    The data-flow solvers in [Epre_analysis] and [Epre_pre] run classic
    bit-vector algorithms; this module provides the dense set representation
    they iterate over. A set is an array of 63-bit [int] words, so the
    binary operations, [equal], [is_empty] and [intersects] touch one word
    per 63 elements and allocate nothing, and [iter] jumps from one set bit
    to the next, skipping empty words. All binary operations require both
    arguments to have the same width. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [{0, ..., n-1}]. *)

val width : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val copy : t -> t

val equal : t -> t -> bool

val is_empty : t -> bool

val full : int -> t
(** [full n] contains every element of the universe. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. *)

val inter_into : dst:t -> t -> unit

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] sets [dst := dst \ src]. *)

val assign : dst:t -> t -> unit
(** [assign ~dst src] sets [dst := src]. *)

val intersects : t -> t -> bool
(** [intersects a b] is [not (is_empty (a ∩ b))], without building the
    intersection. *)

val clear : t -> unit

val count : t -> int

val iter : (int -> unit) -> t -> unit
(** In ascending order. *)

val elements : t -> int list

(** A dense renumbering of a set's elements, frozen when built: the
    [k]th smallest element gets rank [k]. It lets a pass keep per-element
    arrays as long as the set rather than as wide as its universe (a
    routine's registers are sparse once passes have renamed them). *)
type index

(** O(words). *)
val index : t -> index

(** [rank ix i]: the number of elements below [i] when [i] is an
    element, [-1] otherwise. O(1). *)
val rank : index -> int -> int

(** The number of elements. *)
val index_size : index -> int
(** In ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
