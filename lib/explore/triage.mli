(** Candidate-directed triage: bounded dynamic verification of the
    static analyzer's race candidates.

    The static checker ({!Staticcheck.Lint}) over-approximates: every
    candidate pair may or may not correspond to a real race.  Triage
    closes the loop by exploring the program's schedules with
    {!Dpor.explore}, directed toward each candidate, and classifies it:

    - {e CONFIRMED}: some execution exhibits an hb1 race between the
      candidate's two static sites.  A minimal witness schedule is kept;
      written out as a v2 trace file, [racedet analyze] replays it to a
      report containing the same race.
    - {e REFUTED}: the exploration was {e complete} within the bounds —
      every Mazurkiewicz trace of the program was covered — and no
      execution races on the pair.  Because DPOR covers every behaviour
      class (see DESIGN.md, "DPOR soundness"), this is a proof that the
      candidate is a false positive of the static analysis, for programs
      whose executions fit the step bound.
    - {e UNKNOWN}: a bound was hit (step budget truncated some schedule,
      or the schedule limit ran out) before either of the above.

    The search is directed, not restricted: the candidate's two
    processors are preferred at every node ([?prefer] of
    {!Dpor.explore}), so racy interleavings of the pair surface early,
    and the exploration stops at the first confirming execution. *)

type status = Confirmed | Refuted | Unknown

type witness = {
  schedule : Memsim.Exec.decision list;
      (** minimal confirming schedule: no proper prefix confirms *)
  exec : Memsim.Exec.t;  (** its replay (drained, truncation marked) *)
  analysis : Racedetect.Postmortem.analysis;
  race : Racedetect.Race.t;  (** the race matching the candidate *)
}

type verdict = {
  pair : Staticcheck.Candidates.pair;
  status : status;
  witness : witness option;  (** [Some] iff {!Confirmed} *)
  schedules : int;  (** schedules explored for this candidate *)
  complete : bool;  (** the exploration covered the whole space *)
}

type report = {
  program : Minilang.Ast.program;
  lint : Staticcheck.Lint.report;
  model : Memsim.Model.t;
  max_steps : int;
  limit : int;
  data : verdict list;  (** one per data candidate, lint order *)
  sync : verdict list;  (** sync-sync candidates; [] unless requested *)
}

val match_race :
  Staticcheck.Candidates.pair ->
  Racedetect.Postmortem.analysis ->
  Racedetect.Race.t option
(** The first race of the analysis whose two events contain operations
    matching the candidate's two accesses (either orientation): same
    processor, kind and class, address within the access's abstract
    address set and within the pair's conflict set, on a conflicting
    location of the race; labels must agree when both sides carry one. *)

val triage_pair :
  ?max_steps:int ->
  ?limit:int ->
  model:Memsim.Model.t ->
  (unit -> Memsim.Thread_intf.source) ->
  Staticcheck.Candidates.pair ->
  verdict
(** Triage one candidate.  Defaults: [max_steps] 400, [limit] 2_000
    schedules — small enough that spinning programs reach UNKNOWN
    quickly; loop-free litmus programs complete far below either bound.
    The witness schedule is minimized greedily ({!Witness.minimize}): the
    shortest prefix of the confirming schedule whose replay (plus buffer
    drain) still exhibits the race. *)

val run :
  ?max_steps:int ->
  ?limit:int ->
  ?sync:bool ->
  ?jobs:int ->
  ?model:Memsim.Model.t ->
  Minilang.Ast.program ->
  report
(** Run the static analysis, then triage every data candidate (and the
    sync-sync ones when [sync] is true), fanned out over [jobs] domains
    ({!Engine.Parbatch.map}).  [model] defaults to SC: the paper defines
    data-race-freedom through the sequentially consistent executions
    (Definition 2.4), so SC verdicts are the canonical ones; weaker
    models explore the larger weak decision space. *)

val exit_code : report -> int
(** 2 when any data candidate is CONFIRMED; else 3 when any triaged
    candidate is UNKNOWN; else 0 (every data candidate refuted — or none
    existed). *)

val write_witness : report -> string -> witness -> (unit, string) result
(** [write_witness r path w] writes the witness trace of one of [r]'s
    verdicts to [path] in the checksummed v2 format and checks it with
    {!Witness.verify}: the schedule replays to the same bytes, and the
    decoded file re-analyzes to exactly the original race set.  [Error]
    describes any mismatch; the file is left in place for inspection. *)

val status_name : status -> string
(** ["CONFIRMED"], ["REFUTED"] or ["UNKNOWN"]. *)

val pp : Format.formatter -> report -> unit
