(** The five memory consistency models of the paper (§2.2).

    The simulator realizes weakness as delayed, out-of-order retirement of
    buffered data writes; synchronization operations always take effect
    atomically at issue (they are sequentially consistent among themselves,
    as WO and RCsc require).  A model is therefore characterized by which
    synchronization classes force the issuing processor's store buffer to
    drain first:

    - {b SC}: no buffering at all; every operation performs at issue.
    - {b TSO} (total store order; not one of the paper's models, included
      as a comparator): the store buffer drains strictly in FIFO order,
      so a processor's writes become visible in program order.  Figure
      1a's new-y-old-x anomaly is impossible under TSO while Dekker's
      (0,0) outcome remains possible — it sits strictly between SC and
      WO.
    - {b WO} (weak ordering, Dubois–Scheurich–Briggs): all memory operations
      before a sync must complete before it issues — every sync op drains.
    - {b RCsc} (release consistency with SC syncs, Gharachorloo et al.):
      only {e releases} wait for previous operations; acquires and plain
      sync ops issue with writes still pending.
    - {b DRF0} (Adve–Hill): does not distinguish acquire from release, so
      its canonical implementation behaves like WO.
    - {b DRF1}: exploits the release/acquire distinction, so its canonical
      implementation behaves like RCsc.

    Executions the simulator produces are always allowed by the respective
    model; the simulator does not claim to produce {e every} allowed
    execution (no finite tester can).  Every implementation here obeys
    Condition 3.4 — not by a special mechanism, but inherently, which is
    exactly Theorem 3.5; the test suite verifies this on random programs,
    and exhaustively over whole envelopes for litmus-sized ones.

    Beyond the named models, [Custom] makes the model first-class
    configuration: a {!Variant.t} record of store-buffer knobs (depth,
    read handling, retirement order, per-class drain behaviour).  The
    named models are canonical points of that lattice ({!variant}), and
    the [racedet variants] campaign tests, per lattice point, whether
    Condition 3.4 survives — including deliberately broken hardware such
    as [sb:fence=nop] that no named model describes. *)

type t = SC | TSO | WO | RCsc | DRF0 | DRF1 | Custom of Variant.t

val all : t list
(** The named models only (customs are a lattice, not a list). *)

val weak : t list
(** The paper's four weak models (excludes SC and the TSO comparator). *)

val name : t -> string
(** For [Custom] variants this is the alias name or canonical spec
    string — parseable back via {!of_spec}, so it round-trips through
    traces. *)

val of_name : string -> t option
(** Named models only; use {!of_spec} to also accept variant specs. *)

val variant : t -> Variant.t
(** The lattice point a named model canonically occupies (identity on
    [Custom]).  This is the model's whole hardware behaviour: [Machine]
    and [Cmachine] read nothing else, so [m] and [Custom (variant m)]
    run identically and differ only in {!name}.  The predicates below
    are derived from it. *)

val of_spec : string -> (t, string) result
(** Accepts the named models ({!of_name}) and variant specs / aliases
    ({!Variant.of_spec}, wrapped in [Custom]).  The error message lists
    the valid names and the spec grammar. *)

val buffers_writes : t -> bool
(** {!Variant.has_buffer}: false for SC (and any depth-0 variant). *)

val fifo_buffer : t -> bool
(** A buffer that retires oldest-first ([retire=fifo]): among the named
    models, TSO only. *)

val drains_on : t -> Op.op_class -> bool
(** [drains_on m cls] is true when an operation of class [cls] may issue
    only after the issuing processor's store buffer is empty: the
    variant has a buffer and its drain knob for [cls] is [Drain].
    [Data] operations never drain, and a model without a buffer has
    nothing to drain; what the sync classes do depends on the model as
    described above. *)

val distinguishes_release_acquire : t -> bool
(** The variant drains differently on acquires and on releases (RCsc,
    DRF1). *)

val pp : Format.formatter -> t -> unit
