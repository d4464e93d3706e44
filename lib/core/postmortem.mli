(** The end-to-end post-mortem pipeline of §4: trace → happens-before-1
    graph → races → augmented graph → partitions → first-partition
    report. *)

type order = [ `Hb1 | `Shb ]
(** The reporting partial order: [`Hb1] is the paper's first-partition
    discipline unchanged; [`Shb] additionally predicts the non-first
    races that stay unordered under shb = po ∪ so1 ∪ rf ({!Shb}).  SHB
    only ever {e adds} races on top of the hb1 report — the verdict,
    exit code, and first-partition section are identical under both. *)

type analysis = {
  trace : Tracing.Trace.t;
  hb : Hb.t;
  races : Race.t list;       (** every race, data and sync–sync *)
  augmented : Augment.t;
  partitions : Partition.t;
  order : order;             (** the reporting order this was run with *)
  shb_extra : Race.t list;
      (** [`Shb] only: suppressed data races that shb still leaves
          unordered, disjoint from {!reported_races}; [[]] under
          [`Hb1] *)
}

val analyze :
  ?so1:[ `Recorded | `Reconstructed ] ->
  ?order:order ->
  Tracing.Trace.t ->
  analysis
(** [so1] as in {!Hb.build}; [order] (default [`Hb1]) selects the
    reporting order, see {!order}.  No stage builds an all-pairs
    closure: hb1 is an O(n·P) clock index, races come from the epoch
    engine, and partitions from one SCC pass over G′. *)

val analyze_execution :
  ?so1:[ `Recorded | `Reconstructed ] ->
  ?order:order ->
  Memsim.Exec.t ->
  analysis
(** Trace the execution ({!Tracing.Trace.of_execution}) and analyze. *)

val with_order : order -> analysis -> analysis
(** Re-derive the SHB extras of an existing analysis without re-running
    the pipeline — how the streaming driver applies [--order] to a
    verdict it already holds. *)

val data_races : analysis -> Race.t list

val first_partitions : analysis -> Partition.partition list

val reported_races : analysis -> Race.t list
(** What the tool shows the programmer: the data races of the first
    partitions only (§4.2). *)

val predicted_races : analysis -> Race.t list
(** {!reported_races} plus the SHB extras — everything the selected
    order predicts.  Equal to {!reported_races} under [`Hb1]; a
    superset under [`Shb]. *)

val race_free : analysis -> bool
(** Theorem 4.1 + Condition 3.4(1): no first partitions with data races
    means no data races occurred, and the execution was sequentially
    consistent. *)

(** {1 Degraded verdicts}

    §5 warns that a racy program can overwrite its own trace buffers.
    When the salvage decoder ({!Tracing.Codec.Salvage}) had to discard
    damaged regions, the analysis that follows is over the {e surviving}
    events only.  Removing events only removes hb1 edges, so the
    analysis can over-report races among survivors but never under-
    report them — yet nothing can be said about races involving the lost
    events themselves.  A lossy trace therefore never yields the
    race-free verdict: it is {!Degraded}, whatever the survivors say. *)

type gap = {
  proc : int;
  after_seq : int;   (** last surviving seq before the gap; -1 at head *)
  before_seq : int;  (** first surviving seq after the gap *)
  missing : int;     (** events of [proc] lost in between *)
}
(** A hole in one processor's event sequence, reconstructed from the
    per-processor [seq] numbers of the surviving events. *)

type loss = {
  decode_losses : Tracing.Codec.Salvage.loss list;
      (** byte/line regions the salvage decoder discarded *)
  missing_events : int;  (** event ids announced by the header but never decoded *)
  gaps : gap list;       (** per-processor sequence holes *)
  dropped_records : int; (** records rejected semantically in tolerant mode *)
  dropped_so1 : int;     (** so1 edges dropped because an endpoint is missing *)
}

val no_loss : loss
val lossy : loss -> bool

type verdict =
  | Race_free of analysis
  | Races of analysis
  | Degraded of { analysis : analysis; loss : loss }

val verdict : ?loss:loss -> analysis -> verdict
(** Classify an analysis: {!Degraded} whenever [loss] is {!lossy} —
    race-freedom is never claimed for a lossy trace — else by
    {!race_free}. *)

val verdict_analysis : verdict -> analysis

val verdict_map : (analysis -> analysis) -> verdict -> verdict
(** Rewrite the analysis inside a verdict (e.g. {!with_order}) without
    reclassifying it — SHB extras never change the verdict class. *)

val verdict_exit_code : verdict -> int
(** The [racedet] exit-code convention: 0 race-free, 2 races, 3
    degraded (1 is reserved for usage and I/O errors). *)

val pp_gap : Format.formatter -> gap -> unit
val pp_loss : Format.formatter -> loss -> unit
