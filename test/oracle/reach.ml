open Graphlib

type t = {
  scc : Scc.t;
  dag : Digraph.t;
  closure : Bitset.t array;      (* per component: set of reachable components *)
}

let compute g =
  let scc = Scc.compute g in
  let nc = scc.Scc.n_components in
  let dag = Digraph.create nc in
  Digraph.iter_edges g (fun u v ->
      let cu = scc.Scc.component.(u) and cv = scc.Scc.component.(v) in
      if cu <> cv then Digraph.add_edge dag cu cv);
  let closure = Array.init nc (fun _ -> Bitset.create nc) in
  (* Components are topologically numbered, so a reverse sweep sees every
     successor's closure before it is needed. *)
  for c = nc - 1 downto 0 do
    Bitset.add closure.(c) c;
    Digraph.iter_succ dag c (fun d -> Bitset.union_into closure.(c) closure.(d))
  done;
  { scc; dag; closure }

let scc t = t.scc

let reaches t u v =
  let cu = t.scc.Scc.component.(u) and cv = t.scc.Scc.component.(v) in
  Bitset.mem t.closure.(cu) cv

let ordered t u v = reaches t u v || reaches t v u

let condensation t = t.dag

let component_reaches t cu cv = Bitset.mem t.closure.(cu) cv
