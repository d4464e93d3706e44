(** Witnesses: how a breaking schedule becomes a trusted trace.

    Triage, the variant campaign and the robustness check all find an
    execution that breaks something — it races on a candidate, it is not
    SC-explainable — and must hand back a small, replayable proof.  The
    three steps are the same for all of them:

    + {!minimize}: the shortest prefix of the schedule whose drained
      replay still breaks the property;
    + {!verify}: replaying that prefix reproduces the v2 trace byte for
      byte, the (optionally written) trace decodes back to the same
      bytes, and re-analysis of the decoded copy reports exactly the
      same races;
    + {!pp_verification}: the one-line verdict the reports print. *)

type t = {
  schedule : Memsim.Exec.decision list;  (** minimized breaking prefix *)
  exec : Memsim.Exec.t;  (** its drained replay ({!execution}) *)
  path : string option;  (** the v2 trace file, when one was written *)
  verified : (unit, string) result;  (** the outcome of {!verify} *)
}

val execution :
  model:Memsim.Model.t ->
  (unit -> Memsim.Thread_intf.source) ->
  Memsim.Exec.decision list ->
  Memsim.Exec.t
(** The execution of a schedule prefix ({!Memsim.Machine.replay}):
    marked truncated if threads remain, buffers drained. *)

val minimize :
  model:Memsim.Model.t ->
  violates:(Memsim.Exec.t -> 'a option) ->
  (unit -> Memsim.Thread_intf.source) ->
  Memsim.Exec.decision list ->
  Memsim.Exec.decision list * Memsim.Exec.t * 'a
(** [minimize ~model ~violates mk sched] scans the prefixes of [sched]
    from the shortest and returns the first whose {!execution} violates,
    together with that execution and what [violates] returned for it.
    @raise Invalid_argument when not even the full schedule violates. *)

val verify :
  model:Memsim.Model.t ->
  (unit -> Memsim.Thread_intf.source) ->
  ?path:string ->
  Memsim.Exec.decision list ->
  Memsim.Exec.t ->
  (unit, string) result
(** [verify ~model mk ?path schedule exec] checks that [exec] is what
    [schedule] replays to, encoded as a checksummed v2 trace; writes the
    trace to [path] (else round-trips it in memory); and checks that the
    decoded copy re-encodes identically and re-analyzes to the same race
    set — same endpoints, (processor, sequence) of both events, and
    locations.  [Error] describes the first mismatch; a written file is
    left in place for inspection. *)

val make :
  model:Memsim.Model.t ->
  (unit -> Memsim.Thread_intf.source) ->
  ?path:string ->
  Memsim.Exec.decision list ->
  Memsim.Exec.t ->
  t
(** The witness record, with [verified] from {!verify}. *)

val pp_verification : Format.formatter -> t -> unit
(** [", verified v2 trace at <path>"], [", replay + round-trip
    verified"] or [", VERIFICATION FAILED: <why>"]. *)

