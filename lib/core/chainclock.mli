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

    Cost: O((n + m)·P) time and O(c·P) space for [n] nodes, [m] edges,
    [P] rows and [c] components; O(1) per query. *)

type t

val build : Graphlib.Digraph.t -> int array array -> t
(** [build g rows]: [rows.(r)] lists the nodes of row [r] in chain order,
    and [g] must hold an edge from each row member to the next.  A node
    belongs to at most one row; a node in no row must have no outgoing
    edge (a stand-in for a lost event) and reaches only itself.

    Components are processed in a topological order: single nodes along
    [Digraph.topological_order] when [g] is acyclic, otherwise the
    topologically numbered components of {!Graphlib.Scc.compute}. *)

val reaches : t -> int -> int -> bool
(** [reaches t a b]: a (possibly empty) path leads from [a] to [b]. *)

val basis : t -> (Vclock.t array * int array) option
(** When [g] is acyclic, [Some (clocks, order)]: [order] is
    [Digraph.topological_order g] and [clocks.(u)] is node [u]'s clock,
    whose component [r] is the largest 1-based position of a row-[r]
    node that reaches [u] — on a graph whose rows hold every node, the
    classic per-event vector clock.  [None] when [g] has a cycle.  Both
    arrays are owned by the index: read-only. *)
