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

let conflict a b =
  match (a.body, b.body) with
  | Computation ca, Computation cb ->
    Graphlib.Bitset.intersects ca.writes cb.writes
    || Graphlib.Bitset.intersects ca.writes cb.reads
    || Graphlib.Bitset.intersects ca.reads cb.writes
  | Computation c, Sync { op; _ } | Sync { op; _ }, Computation c ->
    let l = op.Memsim.Op.loc in
    if op.Memsim.Op.kind = Memsim.Op.Write then
      Graphlib.Bitset.mem c.reads l || Graphlib.Bitset.mem c.writes l
    else Graphlib.Bitset.mem c.writes l
  | Sync { op = oa; _ }, Sync { op = ob; _ } -> Memsim.Op.conflict oa ob

let conflict_locs a b ~n_locs =
  match (a.body, b.body) with
  | Sync { op = oa; _ }, Sync { op = ob; _ } ->
    (* one location each: no bitset views needed *)
    if Memsim.Op.conflict oa ob then [ oa.Memsim.Op.loc ] else []
  | _ ->
    let wa = writes a ~n_locs and ra = reads a ~n_locs in
    let wb = writes b ~n_locs and rb = reads b ~n_locs in
    let open Graphlib.Bitset in
    elements (union (inter wa wb) (union (inter wa rb) (inter ra wb)))

let involves_data = is_computation

let pp ppf e =
  match e.body with
  | Computation { reads; writes; ops } ->
    Format.fprintf ppf "E%d[P%d.%d comp %d ops R=%a W=%a]" e.eid e.proc e.seq
      (List.length ops) Graphlib.Bitset.pp reads Graphlib.Bitset.pp writes
  | Sync { op; slot } ->
    Format.fprintf ppf "E%d[P%d.%d sync %a slot=%d]" e.eid e.proc e.seq Memsim.Op.pp
      op slot
