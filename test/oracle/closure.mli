(** Closure-based reference answers for the event-level analysis.

    Each query reads the bitset transitive closure ({!Reach}, O(n²/64)
    space) of the hb1 graph or of G′.  The library answers the same
    questions from {!Racedetect.Chainclock} and one SCC pass; the
    differential properties compare the two on every pair. *)

open Racedetect

(** {1 hb1} *)

type hb

val hb1 : Hb.t -> hb
(** The closure of [hb]'s po/so1 graph. *)

val happens_before : hb -> int -> int -> bool
(** A path leads from [a] to [b ≠ a]. *)

val ordered : hb -> int -> int -> bool

val races : hb -> Race.t list
(** Every race, found by testing each pair of events of different
    processors: conflicting and unordered.  Sorted by [(a, b)]. *)

(** {1 G′: affects (Definition 3.3) and the partition order (4.1)} *)

type aug

val augmented : Augment.t -> aug
(** The closure of G′ ({!Augment.graph}). *)

val affects_event : aug -> Race.t -> int -> bool
(** The race affects the event: a G′ path leads from one of its
    endpoints to it. *)

val affects : aug -> Race.t -> Race.t -> bool
(** [affects t r1 r2] — [r1] affects [r2] (which includes [r1 = r2]). *)

val unaffected_data_races : aug -> Race.t list
(** Data races not affected by any {e other} data race — "intuitively the
    first data races" that Condition 3.4(2) guarantees belong to an SCP.
    Data races inside a G′ cycle with another data race affect each other,
    so they are excluded here; {!Partition} recovers them. *)

val partitions : aug -> Partition.partition list
(** The data races grouped by G′ component, in component order, each
    partition's races in race order — the shape {!Partition.partitions}
    promises. *)

val ordered_before : aug -> Partition.partition -> Partition.partition -> bool
(** Definition 4.1: a G′ path leads from [p1] into [p2 ≠ p1]. *)

val first_partitions : aug -> Partition.partition list
(** The partitions no other partition is {!ordered_before}. *)

(** {1 The whole pipeline} *)

val analyze : Tracing.Trace.t -> Race.t list * Partition.partition list
(** Every race and the first partitions of a trace, with every ordering
    question answered by a closure. *)
