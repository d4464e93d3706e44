(** Trace-file serialization: a line-oriented text format.

    The on-disk content is exactly the information the paper's
    instrumentation records — per-processor event order, per-location
    synchronization order, READ/WRITE sets, and the release observed by
    each acquire.  Individual data operations are {e not} written (that is
    the point of event-level tracing), so decoding a trace yields
    computation events with empty [ops] lists.

    Two framings share the record grammar.  {b v1} is the historical
    plain-text layout.  {b v2} adds crash-consistent integrity framing,
    in the spirit of §5's warning that a racy program can overwrite its
    own trace buffers: every line after the magic carries a [ ~XXXXXXXX]
    CRC-32 suffix over its body, and periodic epoch markers
    [mark <events> <crc>] record the cumulative event count and CRC so a
    reader can both verify whole-line drops/duplicates (per-line
    checksums cannot see those) and resynchronize after damage.  A final
    mark terminates every v2 file.  Decoding auto-detects the version
    from the magic line; v1 traces decode unchanged. *)

val version : int
(** The plain v1 format (default for all encoders). *)

val version_checksummed : int
(** The checksummed v2 format. *)

val mark_period : int
(** Event lines between consecutive epoch marks in v2 output. *)

val encode : ?version:int -> Trace.t -> string
(** [?version] defaults to {!version} (v1, byte-identical to the
    historical encoder); pass {!version_checksummed} for v2 framing.
    Raises [Invalid_argument] on any other version. *)

val write_file : ?version:int -> string -> Trace.t -> unit

val decode : string -> (Trace.t, string) Result.t
(** Strict parse; the error message names the offending line.  A decoded
    trace is semantically equivalent to the encoded one for every
    analysis: same events, sets, so1 and sync order.  For v2 input every
    per-line checksum and epoch mark is verified, and a missing final
    mark (clean truncation) is an error. *)

val read_file : string -> (Trace.t, string) Result.t
(** Like {!decode} on the file's contents; decode errors are prefixed
    with the file name. *)

val equivalent : Trace.t -> Trace.t -> bool
(** Equality on the serialized information content (ignores the in-memory
    [ops] debug payload, and the order of the so1 edge list — a layout
    artifact: the stream layout interleaves so1 records topologically). *)

val write_dir : string -> Trace.t -> unit
(** Per-processor trace files, as the paper's instrumentation would write
    them: [dir/procN.trace] holds processor N's event stream, and
    [dir/sync.trace] the shared header, per-location synchronization order
    and release/acquire pairing.  Creates [dir] if needed.  Always v1:
    the v2 epoch stream has no meaningful order across split files. *)

val ensure_dir : string -> (unit, string) Result.t
(** [ensure_dir dir] creates [dir] and any missing parents (mkdir -p):
    the directory that [--witness-dir] traces and serve's
    [--checkpoint-dir] checkpoints are written into.  [Error] names the
    path that could not be created or exists but is not a directory. *)

val read_dir : string -> (Trace.t, string) Result.t
(** Merge a {!write_dir} directory back into a trace; the result is
    {!equivalent} to the original.  Decode errors are prefixed with the
    offending file's path. *)

(** {1 Streaming}

    The same record grammar, consumed incrementally: a {!decoder} turns
    arbitrarily-chunked byte input into a sequence of {!record}s without
    ever materializing the whole file, so a multi-gigabyte or growing
    trace costs O(longest line) decoder memory.  Two extra record forms
    support stream-ordered files (written by {!encode_stream}): ["so1 -
    A"] marks acquire [A] as having no incoming so1 edge, and ["end N"]
    terminates a complete trace of [N] events — the batch {!decode}
    accepts and ignores both. *)

type sizes = { n_procs : int; n_locs : int; n_events : int }

type record =
  | Magic of int  (** header line; carries the format version *)
  | Model of string
  | Truncated of bool
  | Sizes of sizes
  | Event of Event.t
  | So1 of { release : int; acquire : int }
  | So1_unpaired of int
      (** stream-ordered traces only: the named acquire has no incoming
          so1 edge, so a streaming consumer need not wait for one *)
  | Sync_order of int * int list
  | End of int
      (** terminator carrying the event count; lets a follower know the
          trace is complete *)
  | Mark of { events : int; crc : int }
      (** v2 epoch marker: cumulative event count and CRC-32 at this
          point in the stream; verified by strict decoders, used as a
          resynchronization point by the salvage decoder *)

type decoder
(** Incremental decoder state: format validation (magic line first,
    header sanity bounds, v2 checksums), record parsing, and position
    tracking for error messages.  Input may be split at arbitrary byte
    boundaries. *)

val decoder : unit -> decoder

val decoder_sizes : decoder -> sizes option
(** The procs/locs/events header, once it has been decoded. *)

val decoder_version : decoder -> int
(** Format version from the magic line ({!version} until it is read). *)

val decoder_at_mark : decoder -> bool
(** The last record decoded was an epoch mark (a complete v2 trace ends
    on one). *)

val feed :
  decoder -> string -> f:('a -> record -> ('a, string) result) -> 'a ->
  ('a, string) result
(** Append a chunk of bytes and fold [f] over every record completed by
    it.  Errors — from the parser or from [f] — name the line number and
    byte offset of the offending record, and poison the decoder: every
    later call returns the same error. *)

val finish_feed :
  decoder -> f:('a -> record -> ('a, string) result) -> 'a ->
  ('a, string) result
(** Flush a trailing line that has no final newline.  Call once at end
    of input.  For v2 input, errors if the last record was not an epoch
    mark (the file was cleanly truncated). *)

val fold_string :
  ?chunk_size:int -> string -> init:'a ->
  f:('a -> record -> ('a, string) result) -> ('a, string) result
(** [feed]/[finish_feed] over a string, split into [chunk_size] pieces
    (any size >= 1; useful for exercising chunk-boundary handling). *)

val fold_file :
  ?chunk_size:int -> string -> init:'a ->
  f:('a -> record -> ('a, string) result) -> ('a, string) result
(** Stream a trace file through [f] one record at a time, reading
    [chunk_size] bytes (default 64 KiB) per syscall; the file is never
    fully resident.  I/O failures are returned as [Error]. *)

val encode_stream : ?version:int -> Trace.t -> string
(** Stream-ordered layout: events interleaved in an hb1-topological
    order (Kahn over po + so1, smallest [(seq, proc)] first) with each
    acquire's so1 record immediately before it, unpaired acquires marked
    ["so1 -"], and a trailing ["end N"].  A streaming analyzer reading
    this layout retires events as it goes (bounded live set); {!decode}
    reads it identically to the batch layout.  If hb1 is cyclic no such
    order exists and the batch layout (plus terminator) is emitted. *)

val write_stream_file : ?version:int -> string -> Trace.t -> unit

(** {1 Salvage decoding}

    Fault-tolerant decoding for damaged traces: instead of dying on the
    first checksum or parse failure, the salvage decoder discards the
    damaged region, resynchronizes — optimistically at the next cleanly
    decoding line, authoritatively at the next epoch mark, whose
    announced event count and CRC it {e adopts} — and reports each
    discarded region as an explicit {!Salvage.loss} interval.  Consumers
    (see [Stream.finish_salvaged]) must treat any loss conservatively:
    no happens-before edges through a gap, and never a race-free verdict
    over a lossy trace. *)

module Salvage : sig
  type loss = {
    start_line : int;  (** first damaged line (1-based) *)
    start_byte : int;  (** byte offset of its start *)
    end_line : int;    (** last line of the damaged region *)
    end_byte : int;    (** byte offset just past the region *)
    lines_lost : int;  (** lines discarded by the salvage decoder *)
    events_lost : int option;
        (** writer-side events missing across the region, when the
            surrounding epoch marks pin it down exactly; [None] when
            unknowable (v1 input, or several regions in one epoch) *)
    reason : string;   (** the first decode error in the region *)
  }

  val pp_loss : Format.formatter -> loss -> unit

  type t
  (** Incremental salvage state; the damaged-input analogue of
      {!decoder}. *)

  val create : unit -> t

  val feed :
    t -> string -> f:('a -> record -> ('a, string) result) -> 'a ->
    ('a, string) result
  (** Like {!val-feed}, but decode failures become loss intervals instead
      of errors; only [f]'s own errors (and I/O) are fatal. *)

  val finish_feed :
    t -> f:('a -> record -> ('a, string) result) -> 'a ->
    ('a, string) result
  (** Flush trailing input and close any open loss region.  For v2
      input a missing final epoch mark is recorded as a tail loss. *)

  val losses : t -> loss list
  (** All loss intervals so far, in input order. *)

  val clean : t -> bool
  (** [true] iff no damage has been seen. *)

  val decoder : t -> decoder
  (** The underlying decoder (for {!decoder_sizes} / {!decoder_version}). *)
end

val fold_salvage_string :
  ?chunk_size:int -> string -> init:'a ->
  f:('a -> record -> ('a, string) result) ->
  ('a * Salvage.loss list, string) result
(** {!fold_string} through a {!Salvage.t}: never fails on damaged input,
    returning the surviving records' fold and the loss intervals. *)
