type t = {
  hb : Hb.t;
  races : Race.t list;
  graph : Graphlib.Digraph.t;
}

let build hb races =
  let g = Graphlib.Digraph.copy (Hb.graph hb) in
  List.iter
    (fun (r : Race.t) ->
      Graphlib.Digraph.add_edge g r.Race.a r.Race.b;
      Graphlib.Digraph.add_edge g r.Race.b r.Race.a)
    races;
  { hb; races; graph = g }

let hb t = t.hb
let races t = t.races
let graph t = t.graph
