(* Tests for the graph substrate: bit sets, digraphs, Tarjan SCC, and
   the chain-clock reachability index every happens-before query uses,
   checked against per-query DFS and the closure oracle. *)

open Graphlib
open Oracle

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 70 in
  Alcotest.(check bool) "fresh set empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 7;
  Bitset.add s 8;
  Bitset.add s 69;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 7" true (Bitset.mem s 7);
  Alcotest.(check bool) "mem 9" false (Bitset.mem s 9);
  Alcotest.(check bool) "mem out of range" false (Bitset.mem s 700);
  Bitset.remove s 7;
  Alcotest.(check bool) "removed" false (Bitset.mem s 7);
  Alcotest.(check (list int)) "elements sorted" [ 0; 8; 69 ] (Bitset.elements s)

let test_bitset_add_out_of_range () =
  let s = Bitset.create 4 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset.add: out of range") (fun () -> Bitset.add s 4)

let test_bitset_set_ops () =
  let a = Bitset.of_list 32 [ 1; 2; 3; 30 ] in
  let b = Bitset.of_list 32 [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 30 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check bool) "intersects" true (Bitset.intersects a b);
  Alcotest.(check bool) "disjoint" false
    (Bitset.intersects (Bitset.of_list 32 [ 0 ]) (Bitset.of_list 32 [ 1 ]));
  Alcotest.(check bool) "subset yes" true
    (Bitset.subset (Bitset.of_list 32 [ 2; 3 ]) a);
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  Alcotest.(check bool) "equal self" true (Bitset.equal a (Bitset.copy a))

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 16 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitset.inter: capacity mismatch") (fun () ->
      ignore (Bitset.inter a b))

let test_bitset_clear_copy_independent () =
  let a = Bitset.of_list 16 [ 1; 5 ] in
  let b = Bitset.copy a in
  Bitset.clear a;
  Alcotest.(check bool) "a cleared" true (Bitset.is_empty a);
  Alcotest.(check (list int)) "b untouched" [ 1; 5 ] (Bitset.elements b)

(* qcheck properties *)

let small_set_gen =
  QCheck.Gen.(
    let* n = int_range 1 128 in
    let* xs = list_size (int_bound 40) (int_bound (n - 1)) in
    return (n, xs))

let arb_set = QCheck.make ~print:(fun (n, xs) ->
    Printf.sprintf "(%d, [%s])" n (String.concat ";" (List.map string_of_int xs)))
    small_set_gen

let prop_union_commutes =
  QCheck.Test.make ~name:"bitset union commutes" ~count:200
    (QCheck.pair arb_set arb_set)
    (fun ((n1, xs), (n2, ys)) ->
      let n = max n1 n2 in
      let a = Bitset.of_list n (List.filter (fun x -> x < n) xs)
      and b = Bitset.of_list n (List.filter (fun y -> y < n) ys) in
      Bitset.equal (Bitset.union a b) (Bitset.union b a))

let prop_inter_subset =
  QCheck.Test.make ~name:"bitset inter is subset of both" ~count:200
    (QCheck.pair arb_set arb_set)
    (fun ((n1, xs), (n2, ys)) ->
      let n = max n1 n2 in
      let a = Bitset.of_list n (List.filter (fun x -> x < n) xs)
      and b = Bitset.of_list n (List.filter (fun y -> y < n) ys) in
      let i = Bitset.inter a b in
      Bitset.subset i a && Bitset.subset i b)

let prop_elements_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200 arb_set
    (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      Bitset.equal s (Bitset.of_list n (Bitset.elements s)))

(* [iter], [fold] and [elements] against [mem] over every index, at
   capacities 0..300 — including ones that are not a multiple of 8, so
   the partial last byte is exercised — and at densities from empty to
   full.  All three must yield exactly the members, ascending. *)
let iter_set_gen =
  QCheck.Gen.(
    let* n = int_range 0 300 in
    let* density = int_bound 100 in
    let* rolls = list_repeat n (int_bound 99) in
    return (n, List.concat (List.mapi (fun i r -> if r < density then [ i ] else []) rolls)))

let prop_iteration_matches_mem =
  QCheck.Test.make ~name:"bitset iter/fold/elements agree with mem, ascending"
    ~count:500
    (QCheck.make
       ~print:(fun (n, xs) ->
         Printf.sprintf "(%d, [%s])" n (String.concat ";" (List.map string_of_int xs)))
       iter_set_gen)
    (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let expected = List.filter (Bitset.mem s) (List.init n Fun.id) in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      List.rev !via_iter = expected
      && List.rev (Bitset.fold (fun i acc -> i :: acc) s []) = expected
      && Bitset.elements s = expected)

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_digraph_edges () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Alcotest.(check int) "dedup edges" 2 (Digraph.n_edges g);
  Alcotest.(check bool) "mem 0->1" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "no 1->0" false (Digraph.mem_edge g 1 0);
  Alcotest.(check (list int)) "succ order" [ 1 ] (Digraph.succ g 0)

let test_digraph_out_of_range () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "bad node" (Invalid_argument "Digraph: node out of range")
    (fun () -> Digraph.add_edge g 0 2)

let test_digraph_transpose () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "transposed edge" true (Digraph.mem_edge t 1 0);
  Alcotest.(check bool) "transposed edge 2" true (Digraph.mem_edge t 2 1);
  Alcotest.(check int) "edge count preserved" 2 (Digraph.n_edges t)

let test_digraph_paths () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check bool) "0 reaches 2" true (Digraph.has_path g 0 2);
  Alcotest.(check bool) "2 not reach 0" false (Digraph.has_path g 2 0);
  Alcotest.(check bool) "0 not reach 4" false (Digraph.has_path g 0 4);
  Alcotest.(check bool) "self" true (Digraph.has_path g 3 3)

let test_digraph_topo () =
  let g = Digraph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (match Digraph.topological_order g with
   | None -> Alcotest.fail "expected acyclic"
   | Some order ->
     let pos = Array.make 4 0 in
     List.iteri (fun i u -> pos.(u) <- i) order;
     Digraph.iter_edges g (fun u v ->
         if pos.(u) >= pos.(v) then Alcotest.fail "order violates an edge"));
  let cyc = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cyclic has no topo order" true
    (Digraph.topological_order cyc = None)

(* ------------------------------------------------------------------ *)
(* Scc + Reach                                                         *)
(* ------------------------------------------------------------------ *)

let test_scc_two_cycles () =
  let g = Digraph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "3 components" 3 scc.Scc.n_components;
  Alcotest.(check bool) "0,1,2 together" true
    (Scc.same_component scc 0 1 && Scc.same_component scc 1 2);
  Alcotest.(check bool) "3,4 together" true (Scc.same_component scc 3 4);
  Alcotest.(check bool) "0 and 3 apart" false (Scc.same_component scc 0 3);
  Alcotest.(check bool) "5 alone" true
    (not (Scc.same_component scc 5 0) && not (Scc.same_component scc 5 3));
  (* topological numbering: the {0,1,2} component feeds {3,4} *)
  Alcotest.(check bool) "topological ids" true
    (scc.Scc.component.(0) < scc.Scc.component.(3))

let test_scc_acyclic_trivial () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "n components" 4 scc.Scc.n_components;
  Alcotest.(check bool) "trivial" true (Scc.is_trivial scc)

let test_scc_self_loop () =
  let g = Digraph.of_edges 2 [ (0, 0); (0, 1) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "self loop is its own component" 2 scc.Scc.n_components

(* Tarjan's numbering depends on successor order, so component ids are
   pinned by MD5 over random graphs with self loops and duplicate
   inserts, together with each node's successor list (insertion order,
   duplicates collapsed), the edge count and the topological order.  A
   fixed linear congruential generator keeps the graphs independent of
   the standard library's [Random]. *)
let scc_pin = "3ec16ba8f3617e7e28f370d549265854"

let test_scc_digest () =
  let state = ref 12345 in
  let next bound =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    (!state lsr 8) mod bound
  in
  let buf = Buffer.create 65536 in
  let out fmt = Printf.bprintf buf fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  for _ = 1 to 300 do
    let n = 1 + next 40 in
    let g = Digraph.create n in
    for _ = 1 to next (4 * n) do
      let u = next n in
      (* self loops, and a second insert of an edge a third of the time *)
      let v = if next 8 = 0 then u else next n in
      Digraph.add_edge g u v;
      if next 3 = 0 then Digraph.add_edge g u v
    done;
    let scc = Scc.compute g in
    out "n=%d e=%d c=%d\n" n (Digraph.n_edges g) scc.Scc.n_components;
    for u = 0 to n - 1 do
      out "%d:%s;" u (ints (Digraph.succ g u))
    done;
    out "\ncomp=%s\n" (ints (Array.to_list scc.Scc.component));
    Array.iter (fun m -> out "[%s]" (ints m)) scc.Scc.members;
    out "\ntopo=%s\n"
      (match Digraph.topological_order g with
       | Some order -> ints order
       | None -> "cyclic")
  done;
  Alcotest.(check string) "SCC MD5" scc_pin
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_reach_queries () =
  let g = Digraph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] in
  let r = Reach.compute g in
  Alcotest.(check bool) "0 reaches 4 (through both cycles)" true (Reach.reaches r 0 4);
  Alcotest.(check bool) "4 does not reach 0" false (Reach.reaches r 4 0);
  Alcotest.(check bool) "node reaches itself" true (Reach.reaches r 5 5);
  Alcotest.(check bool) "0<->2 both ways" true
    (Reach.reaches r 0 2 && Reach.reaches r 2 0);
  Alcotest.(check bool) "0 and 5 unordered" false (Reach.ordered r 0 5);
  Alcotest.(check bool) "1 and 4 ordered" true (Reach.ordered r 1 4)

let test_reach_empty_graph () =
  let r = Reach.compute (Digraph.create 0) in
  let scc = Reach.scc r in
  Alcotest.(check int) "no components" 0 scc.Scc.n_components

let test_digraph_copy_independent () =
  let g = Digraph.of_edges 3 [ (0, 1) ] in
  let c = Digraph.copy g in
  Digraph.add_edge c 1 2;
  Alcotest.(check int) "copy grew" 2 (Digraph.n_edges c);
  Alcotest.(check int) "original untouched" 1 (Digraph.n_edges g)

let test_digraph_fold_edges () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sum = Digraph.fold_edges g ~init:0 ~f:(fun acc u v -> acc + u + v) in
  Alcotest.(check int) "edge endpoint sum" 9 sum;
  Alcotest.(check int) "out degree" 1 (Digraph.out_degree g 1)

let test_pp_smoke () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  let s = Format.asprintf "%a" Digraph.pp g in
  Alcotest.(check bool) "renders nodes and edge" true
    (Astring.String.is_infix ~affix:"0 -> 1" s);
  let b = Bitset.of_list 4 [ 1; 3 ] in
  Alcotest.(check string) "bitset rendering" "{1, 3}" (Format.asprintf "%a" Bitset.pp b)

let test_condensation_node_count () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 0); (1, 2); (3, 4); (4, 3) ] in
  let r = Reach.compute g in
  Alcotest.(check int) "condensation nodes = components"
    (Reach.scc r).Scc.n_components
    (Digraph.n_nodes (Reach.condensation r))

(* qcheck: Reach agrees with direct DFS on random graphs. *)

let arb_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* m = int_bound 40 in
      let* edges = list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      return (n, edges))
  in
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    gen

(* A chain-covered graph, the shape every hb1 graph and G′ has: nodes
   are dealt to up to four rows (in random order) or left isolated in
   none; each row is a chain of edges, and random cross edges join row
   members, so cycles are common. *)
let arb_chain_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* perm = shuffle_l (List.init n Fun.id) in
      let* slots = list_size (return n) (int_bound 4) in
      let* m = int_bound 30 in
      let* cross = list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      let slot = Array.of_list slots in
      let rows =
        Array.init 4 (fun r -> Array.of_list (List.filter (fun u -> slot.(u) = r) perm))
      in
      let chains =
        Array.to_list rows
        |> List.concat_map (fun row ->
               List.init (max 0 (Array.length row - 1)) (fun i -> (row.(i), row.(i + 1))))
      in
      let cross = List.filter (fun (u, v) -> slot.(u) < 4 && slot.(v) < 4) cross in
      return (n, rows, chains @ cross))
  in
  QCheck.make
    ~print:(fun (n, rows, edges) ->
      Printf.sprintf "n=%d rows=[%s] edges=[%s]" n
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun row ->
                   String.concat "," (Array.to_list (Array.map string_of_int row)))
                 rows)))
        (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    gen

let all_pairs n f =
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (f u v) then ok := false
    done
  done;
  !ok

(* Reach against DFS on arbitrary graphs; on chain-covered ones, the
   chain-clock index against both *)
let prop_reach_matches_dfs =
  QCheck.Test.make ~name:"Reach matches per-query DFS" ~count:200
    (QCheck.pair arb_graph arb_chain_graph)
    (fun ((n, edges), (cn, rows, cedges)) ->
      let g = Digraph.of_edges n edges in
      let r = Reach.compute g in
      let cg = Digraph.of_edges cn cedges in
      let cr = Reach.compute cg in
      let c = Racedetect.Chainclock.build cg rows in
      all_pairs n (fun u v -> Reach.reaches r u v = Digraph.has_path g u v)
      && all_pairs cn (fun u v ->
             let path = Digraph.has_path cg u v in
             Reach.reaches cr u v = path && Racedetect.Chainclock.reaches c u v = path))

let prop_scc_mutual_reachability =
  QCheck.Test.make ~name:"SCC iff mutually reachable" ~count:100 arb_graph
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let scc = Scc.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let mutual = Digraph.has_path g u v && Digraph.has_path g v u in
          if Scc.same_component scc u v <> mutual then ok := false
        done
      done;
      !ok)

let prop_condensation_acyclic =
  QCheck.Test.make ~name:"condensation is acyclic" ~count:100 arb_graph
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let r = Reach.compute g in
      Digraph.topological_order (Reach.condensation r) <> None)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "graphlib"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "add out of range" `Quick test_bitset_add_out_of_range;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "clear/copy independence" `Quick
            test_bitset_clear_copy_independent;
        ] );
      ("bitset-props", qsuite
          [ prop_union_commutes; prop_inter_subset; prop_elements_roundtrip;
            prop_iteration_matches_mem ]);
      ( "digraph",
        [
          Alcotest.test_case "edges" `Quick test_digraph_edges;
          Alcotest.test_case "out of range" `Quick test_digraph_out_of_range;
          Alcotest.test_case "transpose" `Quick test_digraph_transpose;
          Alcotest.test_case "paths" `Quick test_digraph_paths;
          Alcotest.test_case "topological order" `Quick test_digraph_topo;
        ] );
      ( "digraph-extra",
        [
          Alcotest.test_case "copy independence" `Quick test_digraph_copy_independent;
          Alcotest.test_case "fold edges" `Quick test_digraph_fold_edges;
          Alcotest.test_case "pretty printing" `Quick test_pp_smoke;
          Alcotest.test_case "condensation node count" `Quick test_condensation_node_count;
        ] );
      ( "scc",
        [
          Alcotest.test_case "two cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "acyclic trivial" `Quick test_scc_acyclic_trivial;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "component digest" `Quick test_scc_digest;
        ] );
      ( "reach",
        [
          Alcotest.test_case "queries" `Quick test_reach_queries;
          Alcotest.test_case "empty graph" `Quick test_reach_empty_graph;
        ] );
      ( "graph-props",
        qsuite [ prop_reach_matches_dfs; prop_scc_mutual_reachability; prop_condensation_acyclic ] );
    ]
