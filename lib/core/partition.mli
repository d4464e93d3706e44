(** Race partitions and the first-partition report (§4.2).

    G′ may contain cycles, so instead of ordering individual races the
    paper partitions them by the strongly connected components of G′ —
    two races belong to the same partition iff their events share a
    component — and orders partitions by G′ reachability (Definition
    4.1).  A partition is {e first} when no other partition containing a
    data race is ordered before it.

    The report needs only that one fact per partition, so {!compute}
    runs one SCC pass over G′ and one forward pass over the condensation
    propagating "reached from a data-race component": O(V + E) time and
    space, with no all-pairs closure.

    Theorem 4.1: there are no first partitions containing data races iff
    the execution exhibited no data races.
    Theorem 4.2: each first partition contains at least one data race
    that belongs to an SCP — i.e. a race that also occurs in some
    sequentially consistent execution of the program.  Only the first
    partitions are reported to the programmer. *)

type partition = {
  component : int;        (** SCC id in G′ *)
  races : Race.t list;    (** the data races of this partition *)
  events : int list;      (** member events, ascending eid *)
}

type t

val compute : Augment.t -> t

val partitions : t -> partition list
(** Every partition containing at least one data race. *)

val first_partitions : t -> partition list

val non_first_partitions : t -> partition list

val reported_races : t -> Race.t list
(** The data races of the first partitions — the detector's output. *)
