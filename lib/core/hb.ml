type t = {
  trace : Tracing.Trace.t;
  graph : Graphlib.Digraph.t;
  index : Chainclock.t;
}

let build ?(so1 = `Recorded) (trace : Tracing.Trace.t) =
  let n = Array.length trace.Tracing.Trace.events in
  let g = Graphlib.Digraph.create n in
  let rows =
    Array.map
      (Array.map (fun (ev : Tracing.Event.t) -> ev.Tracing.Event.eid))
      trace.Tracing.Trace.by_proc
  in
  (* program order: consecutive events of each processor *)
  Array.iter
    (fun row ->
      for i = 0 to Array.length row - 2 do
        Graphlib.Digraph.add_edge g row.(i) row.(i + 1)
      done)
    rows;
  let pairs =
    match so1 with
    | `Recorded -> trace.Tracing.Trace.so1
    | `Reconstructed -> Tracing.Trace.so1_reconstruct trace
  in
  List.iter (fun (rel, acq) -> Graphlib.Digraph.add_edge g rel acq) pairs;
  { trace; graph = g; index = Chainclock.build g rows }

let trace t = t.trace
let graph t = t.graph

(* the clock index's order is the processing order of the epoch race
   engine, which must see events in an hb1-consistent sequence of
   components (eids are assigned per-processor block by the tracer and
   are NOT topological) *)
let clocks t = Chainclock.clocks t.index
let order t = Chainclock.order t.index

let uses_clocks t = Chainclock.acyclic t.index

let happens_before t a b = a <> b && Chainclock.reaches t.index a b

let ordered t a b = happens_before t a b || happens_before t b a
