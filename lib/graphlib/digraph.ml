(* Successors live in per-node growable int arrays: [adj.(u).(0 ..
   deg.(u) - 1)] in insertion order, with spare capacity past [deg.(u)].
   Duplicates are found by scanning [u]'s successors, so no edge set is
   kept beside the arrays. *)
type t = {
  n : int;
  adj : int array array;
  deg : int array;
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  { n; adj = Array.make n [||]; deg = Array.make n 0; edges = 0 }

let n_nodes g = g.n
let n_edges g = g.edges

let check_node g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: node out of range"

(* newest first: a repeated insert usually repeats a recent one *)
let mem_unchecked g u v =
  let a = g.adj.(u) in
  let i = ref (g.deg.(u) - 1) in
  while !i >= 0 && a.(!i) <> v do
    decr i
  done;
  !i >= 0

let mem_edge g u v =
  check_node g u;
  check_node g v;
  mem_unchecked g u v

(* append [v] to [u]'s successors, doubling the array when it is full *)
let append g u v =
  let d = g.deg.(u) in
  let a = g.adj.(u) in
  let a =
    if d < Array.length a then a
    else begin
      let b = Array.make (max 2 (2 * d)) 0 in
      Array.blit a 0 b 0 d;
      g.adj.(u) <- b;
      b
    end
  in
  a.(d) <- v;
  g.deg.(u) <- d + 1;
  g.edges <- g.edges + 1

let add_edge g u v =
  check_node g u;
  check_node g v;
  if not (mem_unchecked g u v) then append g u v

let succ g u =
  check_node g u;
  List.init g.deg.(u) (Array.get g.adj.(u))

let out_degree g u =
  check_node g u;
  g.deg.(u)

let nth_succ g u i =
  check_node g u;
  if i < 0 || i >= g.deg.(u) then invalid_arg "Digraph.nth_succ: index out of range";
  g.adj.(u).(i)

(* The array and degree are read once, so edges that [f] adds to [u]
   are not visited. *)
let iter_succ g u f =
  check_node g u;
  let a = g.adj.(u) in
  for i = 0 to g.deg.(u) - 1 do
    f a.(i)
  done

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_succ g u (fun v -> f u v)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let of_edges n edges =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edges;
  g

(* the reverse of a duplicate-free graph is duplicate-free: no scan *)
let transpose g =
  let t = create g.n in
  iter_edges g (fun u v -> append t v u);
  t

(* Two passes over [iter]: the first counts each node's new edges, so
   every successor array is allocated once at its final size; the second
   appends them behind the blitted old successors.  [fill] is first the
   count and then the append cursor. *)
let extend g iter =
  let fill = Array.make g.n 0 in
  iter (fun u v ->
      check_node g u;
      check_node g v;
      fill.(u) <- fill.(u) + 1);
  let added = ref 0 in
  let adj =
    Array.init g.n (fun u ->
        let d = g.deg.(u) in
        let a = Array.make (d + fill.(u)) 0 in
        Array.blit g.adj.(u) 0 a 0 d;
        added := !added + fill.(u);
        fill.(u) <- d;
        a)
  in
  iter (fun u v ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1);
  { n = g.n; adj; deg = fill; edges = g.edges + !added }

let copy g = extend g ignore

(* Iterative DFS: the happens-before graph of a long execution can have one
   po-chain per processor that is tens of thousands of edges deep, which
   would blow the OCaml stack with naive recursion. *)
let has_path g src dst =
  check_node g src;
  check_node g dst;
  if src = dst then true
  else begin
    let visited = Array.make g.n false in
    let stack = ref [ src ] in
    visited.(src) <- true;
    let found = ref false in
    while not !found && !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        iter_succ g u (fun v ->
            if v = dst then found := true
            else if not visited.(v) then begin
              visited.(v) <- true;
              stack := v :: !stack
            end)
    done;
    !found
  end

let topological_order g =
  let indeg = Array.make g.n 0 in
  iter_edges g (fun _ v -> indeg.(v) <- indeg.(v) + 1);
  let queue = Queue.create () in
  Array.iteri (fun u d -> if d = 0 then Queue.add u queue) indeg;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr emitted;
    iter_succ g u (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
  done;
  if !emitted = g.n then Some (List.rev !order) else None

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph(%d nodes, %d edges)" g.n g.edges;
  iter_edges g (fun u v -> Format.fprintf ppf "@,  %d -> %d" u v);
  Format.fprintf ppf "@]"
