type t = {
  n_components : int;
  component : int array;
  members : int list array;
}

(* Iterative Tarjan.  Each DFS frame is (node, index of its next
   successor), kept in two arrays beside Tarjan's node stack; all three
   are at most [n] deep.  Tarjan emits components in reverse topological
   order, so we flip the ids at the end to obtain the documented "edges
   go small -> large" invariant. *)
let compute g =
  let n = Digraph.n_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_node = Array.make n 0 and frame_next = Array.make n 0 in
  let fp = ref 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_node.(!fp) <- v;
    frame_next.(!fp) <- 0;
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let u = frame_node.(top) in
        let i = frame_next.(top) in
        if i < Digraph.out_degree g u then begin
          frame_next.(top) <- i + 1;
          let v = Digraph.nth_succ g u i in
          if index.(v) = -1 then enter v
          else if on_stack.(v) && index.(v) < lowlink.(u) then
            lowlink.(u) <- index.(v)
        end
        else begin
          fp := top;
          if top > 0 then begin
            let parent = frame_node.(top - 1) in
            if lowlink.(u) < lowlink.(parent) then lowlink.(parent) <- lowlink.(u)
          end;
          if lowlink.(u) = index.(u) then begin
            let c = !next_comp in
            incr next_comp;
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- c;
              if w = u then continue := false
            done
          end
        end
      done
    end
  done;
  let n_components = !next_comp in
  (* Reverse ids so the condensation is topologically numbered. *)
  Array.iteri (fun u c -> comp.(u) <- n_components - 1 - c) comp;
  let members = Array.make n_components [] in
  for u = n - 1 downto 0 do
    members.(comp.(u)) <- u :: members.(comp.(u))
  done;
  { n_components; component = comp; members }

let same_component t u v = t.component.(u) = t.component.(v)

let component_sizes t = Array.map List.length t.members

let is_trivial t = Array.for_all (fun m -> List.length m = 1) t.members
