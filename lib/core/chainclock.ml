type t = {
  comp : int array option;
      (* node -> component id; [None] when the graph is acyclic and every
         node is its own component, numbered by node id *)
  clocks : Vclock.t array;  (* per component *)
  row : int array;          (* node -> its row, -1 when it is in none *)
  pos : int array;          (* node -> 1-based position in its row *)
  order : int array option; (* topological order, when acyclic *)
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
  (* Components in a topological order: each one is settled — its
     members' own row positions folded in — after every predecessor has
     pushed its clock into it, then pushes its finished clock on. *)
  match Graphlib.Digraph.topological_order g with
  | Some order ->
    let clocks = Array.init n (fun _ -> Vclock.make width) in
    List.iter
      (fun u ->
        let k = clocks.(u) in
        if row.(u) >= 0 then Vclock.max_into k row.(u) pos.(u);
        Graphlib.Digraph.iter_succ g u (fun v -> Vclock.join_into clocks.(v) k))
      order;
    { comp = None; clocks; row; pos; order = Some (Array.of_list order) }
  | None ->
    let scc = Graphlib.Scc.compute g in
    let comp = scc.Graphlib.Scc.component in
    let clocks = Array.init scc.Graphlib.Scc.n_components (fun _ -> Vclock.make width) in
    Array.iteri
      (fun c us ->
        let k = clocks.(c) in
        List.iter (fun u -> if row.(u) >= 0 then Vclock.max_into k row.(u) pos.(u)) us;
        List.iter
          (fun u ->
            Graphlib.Digraph.iter_succ g u (fun v ->
                let d = comp.(v) in
                if d <> c then Vclock.join_into clocks.(d) k))
          us)
      scc.Graphlib.Scc.members;
    { comp = Some comp; clocks; row; pos; order = None }

let reaches t a b =
  a = b
  || t.row.(a) >= 0
     &&
     let cb = match t.comp with None -> b | Some comp -> comp.(b) in
     Vclock.get t.clocks.(cb) t.row.(a) >= t.pos.(a)

let basis t = Option.map (fun order -> (t.clocks, order)) t.order
