(** Races between events (Definition 2.4 lifted to events, §4.1).

    Two events race when they conflict — they access a common location and
    at least one writes it — and no hb1 path connects them in either
    direction.  The race is a {e data} race when at least one endpoint is
    a computation event.  A higher-level data race between computation
    events may stand for many lower-level data races between the
    operations inside them. *)

type t = {
  a : int;  (** smaller eid *)
  b : int;  (** larger eid *)
  locs : Memsim.Op.loc list;  (** conflicting locations, ascending *)
  is_data : bool;
}

val make : Tracing.Event.t -> Tracing.Event.t -> t
(** [make e1 e2] is the race between two conflicting events, in either
    order: endpoints by eid, the conflicting locations
    ({!Tracing.Event.conflict_locs}) and whether a computation event takes
    part.  It does not check that the events race. *)

val sort : n:int -> t list -> t list
(** [sort ~n races] orders races by [(a, b)], stably, in O(n + races)
    time: a counting sort over int arrays.  Every endpoint must lie in
    [0 .. n-1].  Equal to [List.sort] on [(a, b)]. *)

val find_all : Hb.t -> t list
(** Every race of the execution, data and sync–sync alike, deduplicated
    and sorted by [(a, b)].  Events of the same processor never race
    (program order totally orders them).

    One engine on every hb1, cyclic or not: the epoch-compressed scan
    (FastTrack-style, O(1) common-case checks via {!Epoch}) over
    {!Hb.order}, with every event carrying its hb1 component's clock
    ({!Hb.clocks}). *)

val data_races : t list -> t list

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
