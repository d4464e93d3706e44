(** The augmented happens-before graph G′ (§4.2).

    G′ is the hb1 graph plus, for each race, a doubly-directed edge
    between its two events.  These edges "capture the possible effect one
    data race may have on another": a path in G′ from an endpoint of race
    r₁ to an endpoint of race r₂ exists iff r₁ affects r₂ (Definition
    3.3).  {!Partition} reads the relation off G′'s strongly connected
    components in O(V + E); no all-pairs closure is built. *)

type t

val build : Hb.t -> Race.t list -> t
(** [build hb races] — pass {e all} races ({!Race.find_all}); Definition
    3.3's transitivity clause ranges over every race, not only data
    races.  Builds G′ in one pass ({!Graphlib.Digraph.extend}): each
    node's successor array is allocated once, holding its hb1 successors
    and then its race neighbours in race-list order.  The races must be
    distinct and hb1-unordered, as {!Race.find_all}'s are, so no race
    edge repeats another edge; pairs that break this become parallel
    edges, which change {!Graphlib.Digraph.n_edges} but no reachability
    or component. O(events + hb1 edges + races). *)

val hb : t -> Hb.t
val races : t -> Race.t list

val graph : t -> Graphlib.Digraph.t
