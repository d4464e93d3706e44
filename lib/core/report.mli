(** Human-readable reports of an analysis, in the spirit of the paper's
    Figure 3: the first partitions (what the programmer must look at) and
    the non-first partitions (suppressed as potentially
    non-sequentially-consistent artifacts). *)

val render :
  ?loc_name:(int -> string) -> ?degraded:bool -> Buffer.t -> Postmortem.analysis -> unit
(** The report renderer: appends the report's lines to the buffer,
    without a trailing newline.  Every function below is a wrapper over
    it.  [loc_name] names a location (default [loc<n>]); [degraded]
    selects {!pp_analysis_degraded}'s wording. *)

val pp_analysis :
  ?loc_name:(int -> string) -> Format.formatter -> Postmortem.analysis -> unit
(** {!render} as one vertical box. *)

val pp_analysis_degraded :
  ?loc_name:(int -> string) -> Format.formatter -> Postmortem.analysis -> unit
(** Lossy-trace wording for a {!Postmortem.Degraded} verdict: when no
    races are found among the surviving events the Condition 3.4(1)
    sequential-consistency claim is {e not} made — a lossy trace can
    never certify race-freedom. *)

val pp_partition :
  ?loc_name:(int -> string) ->
  trace:Tracing.Trace.t ->
  Format.formatter ->
  Partition.partition ->
  unit

val to_string : ?loc_name:(int -> string) -> Postmortem.analysis -> string

val to_dot : ?loc_name:(int -> string) -> Postmortem.analysis -> string
(** Graphviz rendering of the augmented happens-before-1 graph G′ in the
    style of the paper's Figure 3: one cluster per processor, solid po
    edges, dashed so1 edges, bold red doubly-directed race edges, and
    first-partition events filled.  Render with [dot -Tpdf]. *)
