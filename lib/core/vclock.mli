(** Vector clocks over a fixed set of processors.

    The persistent operations ({!tick}, {!join}) return fresh clocks; the
    on-the-fly detector snapshots clocks into its per-location state, so
    sharing mutable arrays would be a correctness trap.  The in-place
    variants ({!tick_into}, {!join_into}) exist for hot loops that own
    their clock exclusively — a clock that has been published (e.g. via
    {!copy} into shared state) must never be mutated afterwards. *)

type t

val make : int -> t
(** All components zero. *)

val n_procs : t -> int

val get : t -> int -> int

val copy : t -> t
(** An independent snapshot; the only safe way to publish a clock that
    will keep being mutated in place. *)

val blit : t -> t -> unit
(** [blit src dst] overwrites [dst] with [src] in place — a {!copy} that
    reuses an existing buffer instead of allocating.  [dst] must be
    exclusively owned, of the same width, and must not alias [src]. *)

val tick : t -> int -> t
(** Increment one component (persistent). *)

val tick_into : t -> int -> unit
(** Increment one component in place.  Only on exclusively-owned clocks. *)

val max_into : t -> int -> int -> unit
(** [max_into t p v] raises component [p] to at least [v] in place.
    Only on exclusively-owned clocks. *)

val join : t -> t -> t
(** Componentwise maximum (persistent). *)

val join_into : t -> t -> unit
(** [join_into dst src] folds [src] into [dst] in place; [src] is not
    modified.  [dst] must be exclusively owned and must not alias
    [src]. *)

val leq : t -> t -> bool
(** Pointwise ≤ — "happened before or equal". *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
