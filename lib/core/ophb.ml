type t = {
  exec : Memsim.Exec.t;
  graph : Graphlib.Digraph.t;
  rows : int array array;  (* op ids per processor, program order *)
  index : Chainclock.t;
  mutable races_cache : (int * int) list option;
  mutable aug_cache : Chainclock.t option;
}

let build (e : Memsim.Exec.t) =
  let n = Memsim.Exec.n_ops e in
  let g = Graphlib.Digraph.create n in
  let rows = Array.map (Array.map (fun (o : Memsim.Op.t) -> o.Memsim.Op.id)) e.Memsim.Exec.by_proc in
  Array.iter
    (fun row ->
      for i = 0 to Array.length row - 2 do
        Graphlib.Digraph.add_edge g row.(i) row.(i + 1)
      done)
    rows;
  List.iter
    (fun ((rel : Memsim.Op.t), (acq : Memsim.Op.t)) ->
      Graphlib.Digraph.add_edge g rel.Memsim.Op.id acq.Memsim.Op.id)
    (Memsim.Exec.so1_pairs e);
  { exec = e; graph = g; rows; index = Chainclock.build g rows; races_cache = None;
    aug_cache = None }

let exec t = t.exec
let graph t = t.graph

let happens_before t a b = a <> b && Chainclock.reaches t.index a b
let ordered t a b = happens_before t a b || happens_before t b a

let races t =
  match t.races_cache with
  | Some r -> r
  | None ->
    let ops = t.exec.Memsim.Exec.ops in
    let n = Array.length ops in
    let acc = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let x = ops.(a) and y = ops.(b) in
        if
          x.Memsim.Op.proc <> y.Memsim.Op.proc
          && Memsim.Op.conflict x y
          && not (ordered t a b)
        then acc := (a, b) :: !acc
      done
    done;
    let r = List.rev !acc in
    t.races_cache <- Some r;
    r

let is_data_race t (a, b) =
  let ops = t.exec.Memsim.Exec.ops in
  Memsim.Op.is_data ops.(a).Memsim.Op.cls || Memsim.Op.is_data ops.(b).Memsim.Op.cls

let data_races t = List.filter (is_data_race t) (races t)

(* G′ keeps hb1's po rows, so the same construction indexes it.  The
   races are distinct, unordered pairs, so their edges are new to the
   graph and go in without a duplicate scan. *)
let augmented t =
  match t.aug_cache with
  | Some r -> r
  | None ->
    let races = races t in
    let g =
      Graphlib.Digraph.extend t.graph (fun add ->
          List.iter
            (fun (a, b) ->
              add a b;
              add b a)
            races)
    in
    let r = Chainclock.build g t.rows in
    t.aug_cache <- Some r;
    r

let affects_op t (x, y) z =
  let r = augmented t in
  Chainclock.reaches r x z || Chainclock.reaches r y z

let affects t r1 (x2, y2) = affects_op t r1 x2 || affects_op t r1 y2
