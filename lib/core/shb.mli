(** The SHB partial order — [shb = (po ∪ so1 ∪ rf)+] — as an alternative
    reporting order next to hb1 (Mathur–Kini–Viswanathan, "What
    Happens-After the First Race?").

    hb1's first-partition discipline (§4.2) deliberately stops at races
    that are guaranteed to occur under sequential consistency; races in
    non-first partitions are suppressed because reordering could make
    them disappear.  SHB recovers some of them soundly: a pair that is
    unordered even when every reads-from edge of the observed execution
    is added to hb1 is racy in {e every} execution with this
    communication pattern, so it can be predicted beyond the first
    partitions without risking a false alarm of the kind the
    first-partition rule guards against.

    Event-level traces store read/write footprints but not values, so
    the reads-from relation is reconstructed conservatively from a
    canonical hb1-consistent linearization: walking events in Kahn's
    topological order of the hb1 graph
    ({!Graphlib.Digraph.topological_order}), each read observes the
    latest preceding write to its location.  Reconstructed rf edges always point forward
    in that order, so the shb graph is acyclic whenever hb1 is and the
    same topological order indexes both.

    The staged check of the SHB paper — a read is compared against prior
    accesses {e before} acquiring its reads-from edge, so direct
    write→read communications are still reported as races — is realized
    with two clock arrays: [full] (all edges) and [pre] (the event's
    clock before its own incoming rf joins). *)

type t

val build : Hb.t -> t
(** Reconstruct rf and index shb over [hb]'s trace: two more clock
    arrays, O(n·P).  On cyclic hb1 (no topological order) no rf edge is
    reconstructable and shb degenerates to hb1 itself, answered by
    {!Hb.ordered} — {!extra_races} then predicts every suppressed race,
    the conservative direction. *)

val ordered : t -> int -> int -> bool
(** Comparable under shb in either direction, with the staged read
    check applied to the later event. *)

val extra_races : t -> Partition.t -> Race.t list
(** The data races of the non-first partitions that remain unordered
    under shb: sound predictions beyond the hb1 first-partition report,
    sorted by [(a, b)].  Disjoint from {!Partition.reported_races} by
    construction, so the SHB race set strictly contains the hb1 set
    whenever this is non-empty. *)
