(** The hardware-variant differential campaign.

    Sweeps every interesting point of the {!Memsim.Variant} lattice —
    the six named models as canonical points plus the named off-lattice
    knob settings ({!Memsim.Variant.aliases}) — over the spin-free
    stock programs and a seed range, asserting per variant whether
    Condition 3.4 (the SC-prefix property of Theorem 3.5) is preserved
    and, separately, whether fences actually order buffered writes
    (the {e fence contract}: the fenced store-buffering litmus must
    exhibit only SC behaviours).

    Observed verdicts are compared against the lattice theory
    ({!Memsim.Variant.preserves_condition},
    {!Memsim.Variant.honors_fences}); every violating variant gets a
    greedily minimized breaking schedule emitted as a replayable v2
    witness trace and re-verified — byte-identical replay, codec round
    trip, identical re-analysis ({!Witness}). *)

type check = Cond34 | Fence_contract

type witness = {
  w_check : check;
  w_program : string;  (** stock-program name *)
  w_seed : int option;  (** [None]: found by envelope enumeration *)
  witness : Witness.t;
      (** minimized breaking prefix, its replay, and its trace file when a
          witness dir was given *)
}

type prediction = { p_cond34 : bool; p_fence : bool }

type verdict = {
  v_name : string;
  v_model : Memsim.Model.t;
  predicted : prediction;
  cond34_ok : bool;
  fence_ok : bool;
  cond34_runs : int;
  fence_runs : int;  (** size of the fenced-litmus behaviour envelope *)
  cond34_witness : witness option;
  fence_witness : witness option;
}

type report = { verdicts : verdict list; seeds : int; as_predicted : bool }

val roster : (string * Memsim.Model.t) list
(** The lattice points under test: the six named models as canonical
    variants (under their lowercased names), then every
    {!Memsim.Variant.aliases} entry. *)

val programs : Minilang.Ast.program list
(** The spin-free stock programs swept by the campaign; their SC pools
    enumerate completely, so {!Racedetect.Condition.check} is exact. *)

val prefix_explainable : sc:Memsim.Exec.t list -> Memsim.Exec.t -> bool
(** [prefix_explainable ~sc e] holds when some complete SC execution
    extends [e]: per processor the issued operations match an SC prefix
    in identity and reads saw the same values.  Judges the truncated
    replays minimization produces, where
    {!Memsim.Exec.same_program_behaviour} (equal lengths) cannot; on
    complete executions the two coincide. *)

val run :
  ?seeds:int -> ?jobs:int -> ?witness_dir:string -> unit -> report
(** Run the campaign: [seeds] (default 16) schedules per variant x
    program cell on the {!Engine.Parbatch} domain pool ([jobs] as
    there), plus the exact fence-contract envelope per variant.  When
    [witness_dir] is given (an existing directory, see
    {!Tracing.Codec.ensure_dir}), each violation's witness trace is written
    to [<dir>/<variant>-<cond34|fence>.trace].  [as_predicted] in the
    result also requires every emitted witness to have verified. *)

val pp : Format.formatter -> report -> unit
(** The verdict table: one row per lattice point ([pass] /
    [VIOLATED*] where [*] marks a theory-predicted violation), witness
    lines beneath violating rows, and the prediction summary. *)

val exit_code : report -> int
(** [0] when every verdict matches its prediction and all witnesses
    verified, [1] otherwise. *)
