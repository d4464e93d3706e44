(** Memory operations, following §2.1 of the paper.

    An operation reads or writes one location.  Operations are partitioned
    into {e data} operations and {e synchronization} operations — the latter
    being those "recognized by the hardware as meant for synchronization".
    Synchronization operations are further classified by the role they may
    play in ordering (Definition 2.1):

    - a {e release} is a sync write that communicates the completion of the
      issuing processor's previous operations (e.g. the write of [Unset]);
    - an {e acquire} is a sync read used to conclude such completion (e.g.
      the read of [Test&Set]);
    - a {e plain} sync operation is recognized by the hardware but carries
      no ordering semantics (e.g. the write of [Test&Set], which the paper
      explicitly rules out as a release). *)

type proc = int
type loc = int
type value = int

type kind = Read | Write

type op_class =
  | Data
  | Acquire     (** synchronization read usable for ordering *)
  | Release     (** synchronization write usable for ordering *)
  | Plain_sync  (** synchronization op with no ordering role *)

type t = {
  id : int;          (** unique within an execution; global issue order *)
  proc : proc;
  pindex : int;      (** index in the issuing processor's program order *)
  loc : loc;
  kind : kind;
  cls : op_class;
  value : value;     (** the value read, or the value written *)
  label : string option;  (** static program location, for reports *)
}

val is_sync : op_class -> bool
val is_data : op_class -> bool

val conflict : t -> t -> bool
(** Same location and at least one write (§2.1). *)

val identity : t -> proc * int * loc * kind * op_class
(** The paper identifies an operation by the location it accesses and the
    part of the program that issues it — "the value it reads or writes is
    not considered".  Two executions contain "the same" operation when
    these keys coincide. *)

val pp_kind : Format.formatter -> kind -> unit
val class_name : op_class -> string
(** ["data"], ["acquire"], ["release"] or ["sync"]. *)

val pp_class : Format.formatter -> op_class -> unit
val pp : Format.formatter -> t -> unit
