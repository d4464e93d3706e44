(** Exhaustive and sampled exploration of sequentially consistent
    executions.

    Under SC the only scheduling freedom is which processor issues next,
    so the set of SC executions of a (terminating) program is the set of
    complete issue interleavings.  Exhaustive enumeration is the ground
    truth for every paper-level notion that quantifies over "all
    sequentially consistent executions": data-race-free programs
    (Def 2.4), races that "also occur in some SC execution" (Thm 4.2), and
    sequentially consistent prefixes (Def 3.2).

    One depth-first enumerator serves every model: {!explore_weak}
    branches over every enabled decision, and {!explore} is that search
    under SC, where the only enabled decisions are issues.  Each node
    re-executes its prefix from scratch ({!Machine.replay}).

    Enumeration is exponential; it is intended for the small litmus
    programs of the test suite.  A search stops after [limit] executions
    and reports whether the space was covered completely. *)

type result = {
  executions : Exec.t list;
  complete : bool;  (** false when [limit] or [max_steps] cut exploration short *)
}

val explore :
  ?max_steps:int -> ?limit:int -> (unit -> Thread_intf.source) -> result
(** [explore mk] is [explore_weak ~model:Model.SC mk] with its own
    defaults: a depth-first search over all SC issue interleavings of
    the program [mk ()].  [mk] is called once per explored node, so it
    must build a fresh, deterministic source each time.  [limit]
    defaults to 100_000 executions; [max_steps] (default 2_000) bounds
    each schedule's length. *)

val sample :
  ?max_steps:int -> seeds:int list -> (unit -> Thread_intf.source) -> Exec.t list
(** Random SC executions, one per seed — the fallback when the program is
    too large to enumerate. *)

val count : ?max_steps:int -> ?limit:int -> (unit -> Thread_intf.source) -> int * bool
(** Number of complete SC interleavings (and whether counting finished). *)

val explore_weak :
  ?max_steps:int -> ?limit:int -> model:Model.t -> (unit -> Thread_intf.source) -> result
(** Exhaustive exploration of {e every} schedule of a weak model: the
    search branches over issue {e and} retirement decisions, so the result
    covers the model's entire behaviour envelope for the program (as
    realized by this simulator).  The tree is much larger than the SC
    one — reserve for litmus-sized, loop-free programs.  Used to verify
    Condition 3.4 over {e all} weak executions rather than a sample.
    Defaults: [max_steps] 400 (a longer schedule is truncated, drained,
    recorded and marks the result incomplete), [limit] 500_000. *)

val behaviours : Exec.t list -> Exec.t list
(** Deduplicate executions by program behaviour
    ({!Exec.same_program_behaviour}): one representative per behaviour. *)
