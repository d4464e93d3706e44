(** Streaming bounded-memory race analysis.

    The batch pipeline ({!Postmortem.analyze}) holds every event of the
    trace in memory.  This engine consumes {!Tracing.Codec.record}s one
    at a time — from a chunked file read, a growing file, or a pipe —
    and keeps an event's payload resident only while the event can still
    matter:

    - Each processed event gets an hb1 vector clock (join of its program
      order predecessor and its incoming so1 releases, plus its own
      tick), so "unordered conflicting access" is an O(1) comparison
      against the live candidates indexed per location.
    - §5 event GC: once every processor's frontier clock dominates an
      event's clock, every future event is hb1-ordered after it; it can
      neither race with anything still to come nor contribute to a
      future so1 join, so its payload and clock are dropped.  Because
      clocks are built by join-and-tick, an event of processor [q] is
      dominated exactly when its own tick is at most the frontiers'
      minimum in column [q]: each processor keeps a FIFO of its events
      in tick order and retires from its head, and the column minima
      are maintained incrementally, so no event scans the live set.
      The peak live-set size is reported in {!stats}.
    - Events that race are pinned; at {!finish} the hb1 graph is rebuilt
      over the full event-id {e skeleton} (integers, not payloads) and
      handed to the unchanged {!Augment}/{!Partition}/{!Report} stages.
      Because the rebuilt graph has exactly the batch pipeline's nodes
      and edge order, SCC numbering — and therefore the first-partition
      report — is byte-identical to batch analysis of the same file.

    Retirement only progresses when so1 records arrive before their
    acquires, i.e. on stream-ordered files ({!Tracing.Codec.encode_stream}).
    Batch-layout files (so1 trailing) are analyzed correctly but stall
    every acquire until end of input, so their peak live set approaches
    the trace size.

    On a weak execution hb1 may be cyclic (§3.1): no topological
    processing order exists.  If nothing has been retired yet the engine
    falls back to the exact batch pipeline on the fully-resident events;
    if retirement already happened it reports an error rather than guess. *)

type t

type stats = {
  total_events : int;
  peak_live : int;      (** max simultaneously resident event payloads *)
  retired : int;        (** §5 GC retirements *)
  forced_retired : int; (** [max_live] evictions (may hide races) *)
  surviving : int;      (** racy events pinned for the report *)
  races : int;
}

val create : ?max_live:int -> ?tolerant:bool -> unit -> t
(** [max_live] caps the number of live race candidates; beyond it the
    oldest candidates are evicted (payload dropped, hb1 clock kept, so
    ordering stays exact but races spanning more than the window may be
    missed — see [forced_retired]).

    [tolerant] (default false) makes {!push} drop-and-count a record the
    engine would otherwise reject (duplicate or out-of-order events, so1
    after its acquire was processed, records after the end marker)
    instead of failing.  Every handler validates before it mutates, so a
    dropped record leaves the engine consistent.  Used with the salvage
    decoder; the drop count feeds the {!finish_salvaged} loss summary. *)

val push : t -> Tracing.Codec.record -> (unit, string) result
(** Feed one record.  Errors (duplicate or out-of-order events, so1
    after its target was processed, records after the end marker) leave
    the engine unusable. *)

val saw_end : t -> bool
(** An ["end N"] record was consumed: the trace is complete.  Used by
    [--follow] to stop tailing. *)

val seen_events : t -> int

val live_events : t -> int
(** Resident event payloads right now (pending + live race candidates) —
    the engine's memory footprint in events.  The serve daemon sums this
    across sessions to enforce its global live-event budget. *)

val finish : t -> (Postmortem.analysis * stats, string) result
(** End of input: resolve acquires still waiting for so1 (batch-layout
    files), verify completeness, and run the partition/report stage.
    The [analysis] prints byte-identically to the batch analysis of the
    same file, but non-racy events carry placeholder payloads — use it
    for reporting, not for payload inspection. *)

val finish_salvaged :
  t -> decode_losses:Tracing.Codec.Salvage.loss list ->
  (Postmortem.verdict * stats, string) result
(** End of {e salvaged} input (engine created with [~tolerant:true], fed
    from {!Tracing.Codec.Salvage}).  If nothing was lost — no decode
    losses, no dropped records, no missing events — this is exactly
    {!finish} and the report is byte-identical to batch.  Otherwise the
    verdict is [Degraded]: so1 edges with a lost endpoint are dropped,
    lost event ids become isolated nodes with {e no} hb1 edges, listed
    in no po row (so no ordering is ever invented through a gap), and
    the loss summary records decode losses,
    missing events, per-processor sequence gaps, and dropped records and
    edges.  Removing events and edges can only enlarge the set of
    unordered conflicting pairs, so a degraded report may over-report
    races among survivors but never under-reports them — and race
    freedom is never claimed. *)

val checkpoint : ?kind:string -> string -> t -> extra:'a -> unit
(** Atomically persist the engine plus caller state [extra] (codec
    decoder, input offset, …) to a file: marshalled payload behind a
    header carrying the format version, a [kind] token (default
    ["stream"]; lowercase [a-z0-9_-]), the payload length and its
    CRC-32, written to a temporary file and renamed, so a crash
    mid-write never leaves a half checkpoint in place.  [extra] must be
    marshallable (no closures).  Distinct producers should use distinct
    kinds so each other's files are refused on {!restore} instead of
    being unmarshalled at the wrong type.

    @raise Invalid_argument if [kind] is not a valid token. *)

val restore : ?kind:string -> string -> (t * 'a, string) result
(** Load a {!checkpoint}.  Truncated, doctored, or torn files are
    rejected via the header CRC; files written by another format version
    or another [kind] (default ["stream"]) are refused with a structured
    error naming the file.  The caller must request the same [extra]
    type it saved — marshalling is untyped beyond the kind check, as
    usual. *)

(** {1 Checkpointed reader}

    A decoder and an engine fed from one byte stream, with the byte
    offset they have consumed, saved and resumed as one checkpoint —
    the loop behind [analyze --stream/--follow/--checkpoint].  The
    caller owns the input: it reads chunks, seeks to {!Reader.offset}
    after a resume, and decides when to {!Reader.save}. *)
module Reader : sig
  type stream := t
  type t

  val create : ?max_live:int -> salvage:bool -> unit -> t
  (** A reader at byte 0: the strict decoder into a strict engine, or
      with [salvage] the {!Tracing.Codec.Salvage} decoder into a
      tolerant one. *)

  val feed : t -> string -> (unit, string) result
  (** Decode the next chunk and push its records; on success the offset
      advances by the chunk's length.  After an [Error] the reader is
      unusable. *)

  val offset : t -> int
  (** Input bytes consumed so far. *)

  val engine : t -> stream

  val save : t -> string -> unit
  (** {!checkpoint} the engine with the salvage flag, decoder state and
      offset as its [extra]. *)

  val resume : salvage:bool -> string -> (t, string) result
  (** {!restore} a {!save}d reader.  A checkpoint taken in the other
      decoding mode is refused. *)

  val close : t -> (Postmortem.verdict * stats, string) result
  (** End of input: flush the decoder, then {!finish} (strict) or
      {!finish_salvaged} with the decoder's losses. *)
end

val analyze_file :
  ?chunk_size:int -> ?max_live:int -> string ->
  (Postmortem.analysis * stats, string) result
(** {!Tracing.Codec.fold_file} → {!push} → {!finish}. *)

val analyze_string :
  ?chunk_size:int -> ?max_live:int -> string ->
  (Postmortem.analysis * stats, string) result

val analyze_salvage_string :
  ?chunk_size:int -> ?max_live:int -> string ->
  (Postmortem.verdict * stats, string) result
(** {!Tracing.Codec.fold_salvage_string} → tolerant {!push} →
    {!finish_salvaged}: never fails on damaged input short of an
    unsalvageable header. *)

val pp_stats : Format.formatter -> stats -> unit
