(** Happens-before-1 at the level of individual memory operations
    (Definitions 2.2–2.4 verbatim).

    Event-level analysis ({!Hb}, {!Race}) is what a practical detector
    runs; the operation-level relation is needed by the SCP and
    Condition 3.4 machinery, whose definitions quantify over operations.
    Node ids are operation ids of the execution. *)

type t

val build : Memsim.Exec.t -> t
(** The op graph and its {!Chainclock} index over the processors' rows:
    O((n + m)·P). *)

val exec : t -> Memsim.Exec.t
val graph : t -> Graphlib.Digraph.t

val happens_before : t -> int -> int -> bool
val ordered : t -> int -> int -> bool

val races : t -> (int * int) list
(** All races, as (smaller op id, larger op id), sorted. *)

val data_races : t -> (int * int) list

val affects_op : t -> int * int -> int -> bool
(** Definition 3.3: race [(x, y)] affects operation [z].  Answered from
    a {!Chainclock} index over the operation-level G′ (hb1 plus
    doubly-directed edges for {e all} races), built on first use and
    cached. *)

val affects : t -> int * int -> int * int -> bool
(** Race affects race (includes a race affecting itself). *)
