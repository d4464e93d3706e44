type body =
  | Computation of {
      reads : Graphlib.Bitset.t;
      writes : Graphlib.Bitset.t;
      ops : Memsim.Op.t list;
    }
  | Sync of { op : Memsim.Op.t; slot : int }

type t = { eid : int; proc : int; seq : int; body : body }

let is_sync e = match e.body with Sync _ -> true | Computation _ -> false
let is_computation e = not (is_sync e)

let reads e ~n_locs =
  match e.body with
  | Computation { reads; _ } -> reads
  | Sync { op; _ } ->
    let s = Graphlib.Bitset.create n_locs in
    if op.Memsim.Op.kind = Memsim.Op.Read then Graphlib.Bitset.add s op.Memsim.Op.loc;
    s

let writes e ~n_locs =
  match e.body with
  | Computation { writes; _ } -> writes
  | Sync { op; _ } ->
    let s = Graphlib.Bitset.create n_locs in
    if op.Memsim.Op.kind = Memsim.Op.Write then Graphlib.Bitset.add s op.Memsim.Op.loc;
    s

let touches e loc =
  match e.body with
  | Computation { reads; writes; _ } ->
    Graphlib.Bitset.mem reads loc || Graphlib.Bitset.mem writes loc
  | Sync { op; _ } -> op.Memsim.Op.loc = loc

(* a computation's access sets against a sync op's one location *)
let sync_conflicts ~reads ~writes (op : Memsim.Op.t) =
  let l = op.Memsim.Op.loc in
  if op.Memsim.Op.kind = Memsim.Op.Write then
    Graphlib.Bitset.mem reads l || Graphlib.Bitset.mem writes l
  else Graphlib.Bitset.mem writes l

let conflict a b =
  match (a.body, b.body) with
  | Computation ca, Computation cb ->
    Graphlib.Bitset.intersects ca.writes cb.writes
    || Graphlib.Bitset.intersects ca.writes cb.reads
    || Graphlib.Bitset.intersects ca.reads cb.writes
  | Computation { reads; writes; _ }, Sync { op; _ }
  | Sync { op; _ }, Computation { reads; writes; _ } ->
    sync_conflicts ~reads ~writes op
  | Sync { op = oa; _ }, Sync { op = ob; _ } -> Memsim.Op.conflict oa ob

(* No views or intermediate sets: a sync endpoint is tested against its
   one location directly, two computations in one byte pass. *)
let conflict_locs a b =
  match (a.body, b.body) with
  | Sync { op = oa; _ }, Sync { op = ob; _ } ->
    if Memsim.Op.conflict oa ob then [ oa.Memsim.Op.loc ] else []
  | Computation { reads; writes; _ }, Sync { op; _ }
  | Sync { op; _ }, Computation { reads; writes; _ } ->
    if sync_conflicts ~reads ~writes op then [ op.Memsim.Op.loc ] else []
  | Computation ca, Computation cb ->
    Graphlib.Bitset.conflict_elements ~wa:ca.writes ~ra:ca.reads ~wb:cb.writes
      ~rb:cb.reads

let involves_data = is_computation

let pp ppf e =
  match e.body with
  | Computation { reads; writes; ops } ->
    Format.fprintf ppf "E%d[P%d.%d comp %d ops R=%a W=%a]" e.eid e.proc e.seq
      (List.length ops) Graphlib.Bitset.pp reads Graphlib.Bitset.pp writes
  | Sync { op; slot } ->
    Format.fprintf ppf "E%d[P%d.%d sync %a slot=%d]" e.eid e.proc e.seq Memsim.Op.pp
      op slot
