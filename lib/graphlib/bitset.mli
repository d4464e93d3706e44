(** Fixed-capacity bit sets over the integers [0 .. capacity-1].

    Used for access sets (READ/WRITE sets of computation events) and for
    reachability closures over graph nodes.  All operations that combine two
    sets require them to have the same capacity. *)

type t

val create : int -> t
(** [create n] is the empty set over the universe [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int
(** Size of the universe the set ranges over. *)

val mem : t -> int -> bool
(** [mem s i] tests membership.  Out-of-range [i] is simply absent. *)

val add : t -> int -> unit
(** [add s i] inserts [i].  @raise Invalid_argument if [i] is out of range. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i]; no-op when absent or out of range. *)

val cardinal : t -> int
(** Number of members. *)

val is_empty : t -> bool

val copy : t -> t

val clear : t -> unit

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src].
    @raise Invalid_argument on capacity mismatch. *)

val inter : t -> t -> t
(** Fresh intersection. @raise Invalid_argument on capacity mismatch. *)

val union : t -> t -> t
(** Fresh union. @raise Invalid_argument on capacity mismatch. *)

val intersects : t -> t -> bool
(** [intersects a b] is [not (is_empty (inter a b))] without allocating.
    @raise Invalid_argument on capacity mismatch. *)

val conflict_elements : wa:t -> ra:t -> wb:t -> rb:t -> int list
(** [conflict_elements ~wa ~ra ~wb ~rb] lists, in increasing order, the
    members of [(wa ∩ (wb ∪ rb)) ∪ (ra ∩ wb)]: the locations where two
    accessors with write sets [wa], [wb] and read sets [ra], [rb]
    conflict.  One pass over the bytes; allocates only the list.
    @raise Invalid_argument unless all four capacities are equal. *)

val subset : t -> t -> bool
(** [subset a b] tests [a ⊆ b]. @raise Invalid_argument on capacity
    mismatch. *)

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] builds a set of capacity [n] containing [xs]. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{0, 3, 17}]. *)
