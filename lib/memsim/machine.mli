(** The operation-level multiprocessor: shared memory, one store buffer per
    processor, and issue rules that read nothing but the model's
    {!Variant} knobs ({!Model.variant}).

    Semantics in brief:
    - An {e issue} performs the processor's next request.  Reads take
      effect immediately: a [Forward] read returns the processor's own
      newest buffered write to the same location when one is pending, a
      [Stall] read waits until none is, and a [Bypass] read reads memory
      regardless (a deliberately broken knob).  Data writes enter the
      store buffer when the variant has one (all but SC) — a [Bounded]
      buffer stalls them until a slot frees — and go straight to memory
      otherwise.  Synchronization operations and read-modify-writes
      always take effect atomically at memory on issue (synchronization
      is sequentially consistent on every model), subject to the
      variant's per-class drain rule ([Drain] waits for an empty buffer,
      [Partial] only for same-location writes, [Nop] not at all) and to
      per-location coherence (a write may not bypass a pending
      same-location write of its own processor).  Fences wait for the
      buffer to drain unless [fence=nop].
    - A {e retire} moves one buffered write to memory.  With
      [retire=ooo], retirement across different locations happens in
      any order the scheduler picks — this out-of-order completion is
      precisely what makes the weak executions of the paper's Figures
      1a and 2b possible — while writes to the same location retire in
      program order; with [retire=fifo] (TSO) only the oldest may.

    Named models are canonical lattice points and run through the same
    rules as any custom variant.  {!footprint}/{!buffer_footprint} stay
    conservative for every knob so partial-order-reduced exploration
    remains sound.

    The step-wise API ([enabled]/[perform]) is what the enumerators and
    the DPOR explorer drive; [run] wraps it with a scheduler. *)

type t

val create : ?on_op:(Op.t -> unit) -> model:Model.t -> Thread_intf.source -> t
(** [on_op] is invoked synchronously for every memory operation the
    moment it is recorded — the hook an on-the-fly detector attaches to
    (§5).  It must not call back into the machine. *)

val enabled : t -> Exec.decision list
(** Decisions currently permitted; empty iff the run is complete. *)

val footprint : t -> Exec.decision -> (Op.loc * Op.kind) list
(** The shared-memory accesses the decision would perform {e at memory},
    for the dependence relation of a partial-order-reduced explorer.  A
    retire writes its location; an issue reads or writes the locations of
    the request it performs — except that a data write headed for the
    store buffer touches memory only at its retire (empty footprint now),
    and a read forwarded from the processor's own buffer never reaches
    memory at all.  Fences have empty footprints.  Decisions of different
    processors with non-conflicting footprints commute: performing them
    in either order yields the same memory, buffers, reads-from and
    per-processor operation sequences, because enabledness and buffer
    state are per-processor and values flow only through the locations
    listed here.

    Within one processor the memory footprint is not the whole story:
    issue and retire decisions of the {e same} processor can interact
    through its private store buffer, with no memory access at all —
    see {!buffer_footprint}. *)

type buffer_footprint =
  | BNone  (** no interaction with the processor's own buffer *)
  | BReads of Op.loc
      (** reads the newest buffered write to this location (forwarding) *)
  | BAppends of Op.loc
      (** appends a buffered write to this location (buffered store) *)
  | BWrites of Op.loc
      (** removes the oldest buffered write to this location (retire) *)
  | BAll
      (** enabled only while the buffer is (or becomes) empty: fences,
          draining reads, unbuffered writes, read-modify-writes *)

val buffer_footprint : t -> Exec.decision -> buffer_footprint
(** The decision's interaction with its own processor's store buffer,
    for the {e same-processor} dependence of a partial-order-reduced
    explorer.  A processor is two scheduling agents — the front end that
    issues and the buffer that retires — and two of its decisions from
    {e different} agents commute unless their buffer footprints conflict
    ([BReads l] or [BAppends l] with [BWrites l], or [BAll] with any
    [BWrites]): a retire removes the oldest entry for its location, so
    it changes a later forwarded read of that location into a memory
    read, and a retire of location [l] may only be enabled because an
    append to [l] came first. *)

val perform : t -> Exec.decision -> unit
(** @raise Invalid_argument if the decision is not enabled. *)

val replay :
  model:Model.t -> (unit -> Thread_intf.source) -> Exec.decision list -> t
(** [replay ~model mk prefix] performs [prefix] on a fresh machine over
    [mk ()] and returns the machine positioned at the prefix's end.  The
    interpreter state is not snapshotable (continuations), so every
    explorer re-executes a schedule from scratch through this one
    function.  @raise Invalid_argument if a decision is not enabled. *)

val finished : t -> bool

val steps : t -> int

val memory : t -> Op.value array
(** Snapshot of shared memory (buffered writes not yet included). *)

val force_drain : t -> unit
(** Retire every buffered write (used when a run hits its step budget, so
    the final memory state is well defined). *)

val set_truncated : t -> unit

val to_execution : t -> Exec.t
(** Snapshot of the run so far.  Buffered writes that never retired are
    given commit timestamps after all retired operations. *)

type stats = {
  retires : int;          (** buffered writes that reached memory *)
  max_buffer : int;       (** peak store-buffer occupancy over all processors *)
  buffered_writes : int;  (** data writes that went through a buffer *)
  delay_total : int;      (** sum over buffered writes of commit - issue time *)
}

val stats : t -> stats

val run :
  ?max_steps:int ->
  ?on_op:(Op.t -> unit) ->
  model:Model.t ->
  sched:Sched.t ->
  Thread_intf.source ->
  Exec.t
(** Drive the machine with [sched] until no decision is enabled or
    [max_steps] (default 20_000) decisions have been performed; in the
    latter case the execution is marked truncated and the buffers are
    drained. *)

val run_with_stats :
  ?max_steps:int ->
  model:Model.t ->
  sched:Sched.t ->
  Thread_intf.source ->
  Exec.t * stats
