(** Reachability in a digraph covered by chains, answered by one vector
    clock per strongly connected component.

    The happens-before graphs of this library are covered by their
    program-order rows: each row is a chain of edges, and every other
    edge (so1, race edges of G′) joins two row members.  A node at
    position [i] of a row reaches a node [b] iff some node at position
    [≥ i] of the same row reaches [b]'s component, so one integer per
    row and component answers every query — the linear-time
    vector-clock approach of Kini, Mathur and Viswanathan, applied to
    the SCC condensation so that it stays exact when the graph is
    cyclic (hb1 of a weak execution, §3.1, and G′ always).

    Cost: one Tarjan pass plus O((n + m)·P) time and O(c·P) space for
    [n] nodes, [m] edges, [P] rows and [c] components; O(1) per
    query. *)

type t

val build : Graphlib.Digraph.t -> int array array -> t
(** [build g rows]: [rows.(r)] lists the nodes of row [r] in chain order,
    and [g] must hold an edge from each row member to the next.  A node
    belongs to at most one row; a node in no row must have no outgoing
    edge (a stand-in for a lost event) and reaches only itself.

    Components are processed in the topological numbering of
    {!Graphlib.Scc.compute}. *)

val reaches : t -> int -> int -> bool
(** [reaches t a b]: a (possibly empty) path leads from [a] to [b]. *)

val clocks : t -> Vclock.t array
(** [clocks.(u)] is the clock of [u]'s component: its component [r] is
    the largest 1-based position of a row-[r] node that reaches [u].
    Members of one component share one physical clock.  On an acyclic
    graph whose rows hold every node this is the classic per-event
    vector clock.  Owned by the index: read-only. *)

val order : t -> int array
(** Every node once, components in topological id order and each
    component's members together, in increasing node order: an edge
    never leads from a node to an earlier one, except inside a
    component.  Owned by the index: read-only. *)

val acyclic : t -> bool
(** [g] has no cycle (no edge inside one component, self loops
    included). *)
