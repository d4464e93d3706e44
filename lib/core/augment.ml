type t = {
  hb : Hb.t;
  races : Race.t list;
  graph : Graphlib.Digraph.t;
}

(* A race edge never repeats an hb1 edge (its endpoints are hb1-unordered)
   nor another race's edge (races are deduplicated), so [extend] may skip
   [add_edge]'s duplicate scan; successor order, and so every component
   id, is what inserting the edges one by one gave. *)
let build hb races =
  let graph =
    Graphlib.Digraph.extend (Hb.graph hb) (fun add ->
        List.iter
          (fun (r : Race.t) ->
            add r.Race.a r.Race.b;
            add r.Race.b r.Race.a)
          races)
  in
  { hb; races; graph }

let hb t = t.hb
let races t = t.races
let graph t = t.graph
