(** Trace events (§4.1 of the paper).

    "An event is either a single synchronization operation (a
    synchronization event), or a group of consecutively executed data
    operations (a computation event)."  Computation events carry only
    their READ and WRITE sets — bit vectors over the location space —
    because "recording the READ and WRITE sets is in general more
    efficient than tracing every memory operation".

    The [ops] field preserves the underlying operations for debugging and
    for the SCP analysis of the test suite; it is {e not} serialized by
    {!Codec}, so the information content of a trace file is exactly the
    paper's. *)

type body =
  | Computation of {
      reads : Graphlib.Bitset.t;
      writes : Graphlib.Bitset.t;
      ops : Memsim.Op.t list;  (** in program order; empty after decoding *)
    }
  | Sync of {
      op : Memsim.Op.t;
      slot : int;  (** position in the per-location synchronization order *)
    }

type t = {
  eid : int;   (** unique within a trace *)
  proc : int;
  seq : int;   (** index within the processor's event sequence *)
  body : body;
}

val is_sync : t -> bool
val is_computation : t -> bool

val reads : t -> n_locs:int -> Graphlib.Bitset.t
(** Locations read: the READ set of a computation event, the singleton
    location of a sync read, empty for a sync write. *)

val writes : t -> n_locs:int -> Graphlib.Bitset.t

val touches : t -> Memsim.Op.loc -> bool

val conflict : t -> t -> bool
(** Some location is accessed by both and written by at least one. *)

val conflict_locs : t -> t -> Memsim.Op.loc list
(** The locations witnessing a conflict, ascending; empty when the two
    events do not conflict.  Allocates only the list. *)

val involves_data : t -> bool
(** True for computation events: a race with such an endpoint is a
    {e data} race (Def 2.4 lifted to events, §4.1). *)

val pp : Format.formatter -> t -> unit
