(** Mutable directed graphs over dense integer node identifiers
    [0 .. n_nodes-1].

    Parallel edges are collapsed: adding an edge twice is a no-op.  Self
    loops are permitted (a race between two events inside one strongly
    connected component of an augmented happens-before graph induces them
    indirectly, and the SCC algorithms must tolerate them). *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val n_nodes : t -> int

val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the directed edge [u -> v]; duplicate
    insertions are ignored.  @raise Invalid_argument on out-of-range
    endpoints. *)

val mem_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors of a node, in insertion order. *)

val out_degree : t -> int -> int

val iter_succ : t -> int -> (int -> unit) -> unit

val iter_edges : t -> (int -> int -> unit) -> unit

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val transpose : t -> t
(** Graph with every edge reversed. *)

val copy : t -> t

val of_edges : int -> (int * int) list -> t

val has_path : t -> int -> int -> bool
(** [has_path g u v] is true iff a (possibly empty) directed path leads
    from [u] to [v]; every node reaches itself.  Linear-time DFS — for
    repeated queries build an index instead. *)

val topological_order : t -> int list option
(** [Some order] lists the nodes such that every edge goes from an earlier
    node to a later one; [None] when the graph is cyclic. *)

val pp : Format.formatter -> t -> unit
