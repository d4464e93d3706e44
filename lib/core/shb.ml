type staged = { pre : Vclock.t array; full : Vclock.t array; pos : int array }

type t = {
  hb : Hb.t;
  staged : staged option;  (* [None] on cyclic hb1: shb is hb1 *)
}

(* Canonical reads-from reconstruction: walk the hb1-consistent
   linearization tracking the last writer per location; every read
   (sync and data alike — footprints don't distinguish values) observes
   it.  An event that both reads and writes a location reads the
   previous writer, then becomes the writer itself. *)
let reconstruct_rf (trace : Tracing.Trace.t) order =
  let n_locs = trace.Tracing.Trace.n_locs in
  let last_writer = Array.make n_locs (-1) in
  let rf = ref [] in
  Array.iter
    (fun u ->
      let ev = trace.Tracing.Trace.events.(u) in
      Graphlib.Bitset.iter
        (fun l ->
          let w = last_writer.(l) in
          if w >= 0 then rf := (w, u) :: !rf)
        (Tracing.Event.reads ev ~n_locs);
      Graphlib.Bitset.iter
        (fun l -> last_writer.(l) <- u)
        (Tracing.Event.writes ev ~n_locs))
    order;
  List.rev !rf

(* One forward pass computing both clock arrays.  [full.(u)] joins every
   shb predecessor (po, so1, rf); [pre.(u)] joins only the po/so1
   predecessors — [u]'s clock before its own incoming rf edges, the
   "check happens before the rf join" stage.  rf edges point forward in
   [order], so the hb1 topological order serves the shb graph too. *)
let staged_clocks (trace : Tracing.Trace.t) g rf_succ order =
  let n = Array.length trace.Tracing.Trace.events in
  let n_procs = trace.Tracing.Trace.n_procs in
  let full = Array.init n (fun _ -> Vclock.make n_procs) in
  let pre = Array.init n (fun _ -> Vclock.make n_procs) in
  let pos = Array.make n 0 in
  Array.iteri
    (fun i u ->
      pos.(u) <- i;
      let p = trace.Tracing.Trace.events.(u).Tracing.Event.proc in
      (* po/so1 predecessors were joined into both arrays and an rf
         predecessor never carries a larger own-proc component than the
         po predecessor, so both own components agree before the tick *)
      Vclock.tick_into full.(u) p;
      Vclock.tick_into pre.(u) p;
      Graphlib.Digraph.iter_succ g u (fun v ->
          Vclock.join_into pre.(v) full.(u);
          Vclock.join_into full.(v) full.(u));
      List.iter (fun v -> Vclock.join_into full.(v) full.(u)) rf_succ.(u))
    order;
  (pre, full, pos)

(* The rf linearization is Kahn's order ([Digraph.topological_order]),
   not the clock index's: the last writer a read observes, and so the
   predictions, depend on which hb1-consistent order is walked. *)
let build hb =
  let trace = Hb.trace hb in
  match Graphlib.Digraph.topological_order (Hb.graph hb) with
  | None ->
    (* cyclic hb1: no linearization, no rf; shb is hb1 itself, so every
       suppressed race counts as predicted *)
    { hb; staged = None }
  | Some order ->
    let order = Array.of_list order in
    let rf = reconstruct_rf trace order in
    let rf_succ = Array.make (Array.length trace.Tracing.Trace.events) [] in
    List.iter (fun (w, r) -> rf_succ.(w) <- r :: rf_succ.(w)) rf;
    let pre, full, pos = staged_clocks trace (Hb.graph hb) rf_succ order in
    { hb; staged = Some { pre; full; pos } }

let ordered t a b =
  match t.staged with
  | None -> Hb.ordered t.hb a b
  | Some { pre; full; pos } ->
    (* the earlier event in the linearization is the only possible
       predecessor; the later one is checked with its pre-rf clock *)
    a <> b
    &&
    let x, y = if pos.(a) <= pos.(b) then (a, b) else (b, a) in
    let trace = Hb.trace t.hb in
    let px = trace.Tracing.Trace.events.(x).Tracing.Event.proc in
    Vclock.get pre.(y) px >= Vclock.get full.(x) px

let extra_races t partitions =
  Partition.non_first_partitions partitions
  |> List.concat_map (fun (p : Partition.partition) -> p.Partition.races)
  |> List.filter (fun (r : Race.t) -> not (ordered t r.Race.a r.Race.b))
  |> List.sort (fun (r1 : Race.t) (r2 : Race.t) ->
         compare (r1.Race.a, r1.Race.b) (r2.Race.a, r2.Race.b))
