(** Robustness verification: static certification with a dynamic
    closure.

    Is every behaviour the weak model admits SC-explainable?  The
    static pass ({!Staticcheck.Robust}) proves ROBUST outright when no
    critical cycle is feasible under the variant; otherwise a
    candidate-directed DPOR search ({!Dpor.explore}, preferring the
    processors on feasible cycles — the {!Triage} discipline) hunts for
    an execution the enumerated SC pool ({!Scpool}) cannot explain.
    The first hit is greedily minimized and emitted as a replay-verified
    v2 witness trace (byte-identical replay, codec round trip, identical
    re-analysis); a complete stop-free exploration proves ROBUST
    dynamically; budget exhaustion — or an SC pool that does not
    enumerate (spinning program) — is UNKNOWN. *)

type witness = Witness.t

type verdict =
  | Robust_verdict of [ `Static | `Dynamic ]
  | Not_robust of witness
  | Unknown of string

type t = {
  program : Minilang.Ast.program;
  model : Memsim.Model.t;
  static_ : Staticcheck.Robust.t;
  frontier : Staticcheck.Robust.frontier_entry list;
  verdict : verdict;
  sc_behaviours : int;  (** distinct SC behaviours; 0 when pool unbuilt *)
  schedules : int;  (** weak schedules the closure explored *)
}

val run :
  ?max_steps:int ->
  ?limit:int ->
  ?sc_limit:int ->
  ?witness_path:string ->
  model:Memsim.Model.t ->
  Minilang.Ast.program ->
  t
(** Defaults: [max_steps] 2000 per schedule, [limit] 100,000 schedules,
    [sc_limit] 100,000 SC executions.  [witness_path] writes the
    minimized non-SC witness trace there when the verdict is
    NOT-ROBUST. *)

val exit_code : t -> int
(** [0] ROBUST, [2] NOT-ROBUST (verified witness), [3] UNKNOWN; [1]
    when a witness failed verification (internal error). *)

val verdict_str : t -> string
val pp : ?explain:bool -> Format.formatter -> t -> unit
