type partition = {
  component : int;
  races : Race.t list;
  events : int list;
}

type t = {
  parts : partition list;  (** partitions containing data races *)
  first : partition list;
  non_first : partition list;
}

let compute aug =
  let g = Augment.graph aug in
  let scc = Graphlib.Scc.compute g in
  let comp = scc.Graphlib.Scc.component in
  let data = Race.data_races (Augment.races aug) in
  (* a race's endpoints share a component (its doubly-directed edge closes
     a cycle), so the component of [a] identifies the partition *)
  let by_comp = Hashtbl.create 16 in
  List.iter
    (fun (r : Race.t) ->
      let c = comp.(r.Race.a) in
      Hashtbl.replace by_comp c (r :: (Option.value ~default:[] (Hashtbl.find_opt by_comp c))))
    data;
  let parts =
    Hashtbl.fold
      (fun c races acc ->
        {
          component = c;
          races = List.rev races;
          events = scc.Graphlib.Scc.members.(c);
        }
        :: acc)
      by_comp []
    |> List.sort (fun p1 p2 -> compare p1.component p2.component)
  in
  (* Definition 4.1 in one forward pass: [below.(c)] holds once a G′
     path from another component holding a data race leads into [c].
     Component ids are topological, so [c] is final before it is read. *)
  let n = scc.Graphlib.Scc.n_components in
  let below = Array.make n false in
  for c = 0 to n - 1 do
    if below.(c) || Hashtbl.mem by_comp c then
      List.iter
        (fun u ->
          Graphlib.Digraph.iter_succ g u (fun v ->
              if comp.(v) <> c then below.(comp.(v)) <- true))
        scc.Graphlib.Scc.members.(c)
  done;
  let first, non_first = List.partition (fun p -> not below.(p.component)) parts in
  { parts; first; non_first }

let partitions t = t.parts
let first_partitions t = t.first

let non_first_partitions t = t.non_first

let reported_races t = List.concat_map (fun p -> p.races) t.first
