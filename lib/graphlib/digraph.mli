(** Mutable directed graphs over dense integer node identifiers
    [0 .. n_nodes-1].

    Each node keeps its successors in a growable [int array], in
    insertion order; every traversal ({!succ}, {!iter_succ},
    {!iter_edges}, {!nth_succ}) sees them in that order, so algorithms
    that number nodes by visit order (Tarjan in {!Scc}) are
    deterministic in the order edges were added.

    Parallel edges are collapsed: adding an edge twice is a no-op, and
    the edge keeps its first position.  Self loops are permitted (a race
    between two events inside one strongly connected component of an
    augmented happens-before graph induces them indirectly, and the SCC
    algorithms must tolerate them).

    Costs: {!add_edge} and {!mem_edge} scan [u]'s successors, O(out-degree
    of [u]) with no hashing or allocation beyond an amortized array
    doubling; the graphs built here (hb1, op-level hb1, G′, delay sets)
    have small out-degrees except at race-heavy events of G′.  {!copy}
    is one array copy per node, and {!extend} one array allocation per
    node plus O(1) per added edge, with no scan: it is how G′ gets its
    race edges, which are new by construction. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val n_nodes : t -> int

val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] appends the directed edge [u -> v] to [u]'s
    successors; duplicate insertions are ignored.  O(out-degree of [u]).
    @raise Invalid_argument on out-of-range endpoints. *)

val mem_edge : t -> int -> int -> bool
(** O(out-degree of [u]). *)

val succ : t -> int -> int list
(** Successors of a node, in insertion order. *)

val out_degree : t -> int -> int

val nth_succ : t -> int -> int -> int
(** [nth_succ g u i] is [u]'s [i]-th successor in insertion order.
    @raise Invalid_argument unless [0 <= i < out_degree g u]. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** In insertion order; edges that the callback adds to the same node
    are not visited. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val transpose : t -> t
(** Graph with every edge reversed. *)

val copy : t -> t

val extend : t -> ((int -> int -> unit) -> unit) -> t
(** [extend g iter] is a fresh graph holding [g]'s edges and then every
    edge [u -> v] that [iter add] passes to [add], appended to [u]'s
    successors in the order given.  Unlike {!add_edge} it does not look
    for duplicates: the caller knows that the edges are new, distinct
    from [g]'s and from each other (an edge given twice is kept twice and
    counted twice by {!n_edges}).  [iter] is called twice, once to size
    the successor arrays and once to fill them, and must pass the same
    edges both times.  O(nodes + edges); [g] is unchanged.
    @raise Invalid_argument on out-of-range endpoints. *)

val of_edges : int -> (int * int) list -> t

val has_path : t -> int -> int -> bool
(** [has_path g u v] is true iff a (possibly empty) directed path leads
    from [u] to [v]; every node reaches itself.  Linear-time DFS — for
    repeated queries build an index instead. *)

val topological_order : t -> int list option
(** [Some order] lists the nodes such that every edge goes from an earlier
    node to a later one; [None] when the graph is cyclic. *)

val pp : Format.formatter -> t -> unit
