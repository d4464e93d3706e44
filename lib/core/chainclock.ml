type t = {
  clocks : Vclock.t array;  (* per node: its component's clock, shared *)
  order : int array;        (* every node, components in topological id order *)
  acyclic : bool;
  row : int array;          (* node -> its row, -1 when it is in none *)
  pos : int array;          (* node -> 1-based position in its row *)
}

let build g rows =
  let n = Graphlib.Digraph.n_nodes g in
  let width = Array.length rows in
  let row = Array.make n (-1) and pos = Array.make n 0 in
  Array.iteri
    (fun r chain ->
      Array.iteri
        (fun i u ->
          row.(u) <- r;
          pos.(u) <- i + 1)
        chain)
    rows;
  (* Components in topological id order: each one is settled — its
     members' own row positions folded in — after every predecessor has
     pushed its clock into it, then pushes its finished clock on.  An
     edge inside a component (a self loop included) is a cycle. *)
  let scc = Graphlib.Scc.compute g in
  let comp = scc.Graphlib.Scc.component in
  let k = Array.init scc.Graphlib.Scc.n_components (fun _ -> Vclock.make width) in
  let order = Array.make n 0 and next = ref 0 in
  let acyclic = ref true in
  Array.iteri
    (fun c us ->
      let kc = k.(c) in
      List.iter
        (fun u ->
          order.(!next) <- u;
          incr next;
          if row.(u) >= 0 then Vclock.max_into kc row.(u) pos.(u))
        us;
      List.iter
        (fun u ->
          Graphlib.Digraph.iter_succ g u (fun v ->
              let d = comp.(v) in
              if d <> c then Vclock.join_into k.(d) kc else acyclic := false))
        us)
    scc.Graphlib.Scc.members;
  { clocks = Array.map (fun c -> k.(c)) comp; order; acyclic = !acyclic; row; pos }

let reaches t a b =
  a = b || (t.row.(a) >= 0 && Vclock.get t.clocks.(b) t.row.(a) >= t.pos.(a))

let clocks t = t.clocks
let order t = t.order
let acyclic t = t.acyclic
