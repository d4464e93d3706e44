(** The happens-before-1 relation over trace events (Definition 2.3,
    lifted to events as in §4.1).

    [hb1 = (po ∪ so1)+]: program order within each processor, plus an edge
    from each release event to every acquire event it paired with.

    Ordering queries are answered by a {!Chainclock} index over the
    processors' po rows — one vector clock per strongly connected
    component, O(n·P) space, O(1) per query.  On a weak execution hb1
    {e need not be a partial order} (§3.1); the index is exact on
    cyclic graphs too, where two events of one cycle happen before each
    other. *)

type t

val build : ?so1:[ `Recorded | `Reconstructed ] -> Tracing.Trace.t -> t
(** [so1 = `Recorded] (default) uses the pairing the tracer logged;
    [`Reconstructed] rebuilds so1 from the per-location synchronization
    order, as a purely post-mortem analyzer must
    ({!Tracing.Trace.so1_reconstruct}).  An event listed in no
    [by_proc] row (a salvage stand-in for a lost event) is ordered with
    nothing. *)

val trace : t -> Tracing.Trace.t

val graph : t -> Graphlib.Digraph.t
(** One node per event ([eid]); po and so1 edges. *)

val uses_clocks : t -> bool
(** Whether hb1 is acyclic: every strongly connected component is one
    event. *)

val clocks : t -> Vclock.t array
(** Per event, its hb1 component's vector clock ({!Chainclock.clocks}):
    one clock per event on an acyclic hb1, one shared by every member of
    a cycle otherwise.  The input of the epoch race engine
    ({!Race.find_all}).  Owned by the index: read-only. *)

val order : t -> int array
(** Every event, hb1's strongly connected components in topological
    order ({!Chainclock.order}) — the epoch engine's processing order.
    Owned by the index: read-only. *)

val happens_before : t -> int -> int -> bool
(** [happens_before t a b]: a path of po/so1 edges leads from event [a]
    to event [b ≠ a].  Irreflexive on acyclic graphs; on a cyclic weak
    execution two events can "happen before" each other. *)

val ordered : t -> int -> int -> bool
(** Comparable in either direction.  Two distinct conflicting events race
    iff not ordered. *)
