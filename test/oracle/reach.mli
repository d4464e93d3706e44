(** All-pairs reachability for directed graphs that may contain cycles.

    The graph is condensed to its SCC DAG and a reachability bit set is
    computed per component in reverse topological order, so queries cost a
    single bit test.  A node always reaches itself. *)

open Graphlib

type t

val compute : Digraph.t -> t

val scc : t -> Scc.t
(** The SCC decomposition the closure was built over. *)

val reaches : t -> int -> int -> bool
(** [reaches r u v] is true iff a directed path (possibly empty) leads from
    node [u] to node [v]. *)

val ordered : t -> int -> int -> bool
(** [ordered r u v] is true iff [u] and [v] are comparable: [u] reaches [v]
    or [v] reaches [u].  Two *distinct* conflicting events form a race
    precisely when they are not ordered. *)

val condensation : t -> Digraph.t
(** The SCC DAG: one node per component, numbered as in {!Scc.t}. *)

val component_reaches : t -> int -> int -> bool
(** Reachability between component ids rather than node ids. *)
