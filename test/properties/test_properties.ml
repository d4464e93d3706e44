(* Cross-cutting invariants, property-checked over random programs on
   random models and schedules.  These are the "laws" the rest of the
   system is entitled to assume. *)

open Racedetect
open Oracle

let arb_seed = QCheck.int_bound 1_000_000

let model_of i = List.nth Memsim.Model.all (i mod List.length Memsim.Model.all)

let random_exec ?(machine = `Buffer) (seed, mi) =
  let model = model_of mi in
  let model =
    (* the coherent machine cannot implement TSO *)
    if machine = `Cache && Memsim.Model.fifo_buffer model then Memsim.Model.WO
    else model
  in
  let p =
    match seed mod 3 with
    | 0 -> Minilang.Gen.random_racy ~seed ()
    | 1 -> Minilang.Gen.random_racefree ~seed ()
    | _ -> Minilang.Gen.random_racefree_ra ~seed ()
  in
  match machine with
  | `Buffer -> Minilang.Interp.run ~model ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p
  | `Cache ->
    Coherence.Cmachine.run_program ~model ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p

let arb_case =
  QCheck.pair arb_seed (QCheck.int_bound 4)

(* ------------------------------------------------------------------ *)
(* Execution well-formedness                                           *)
(* ------------------------------------------------------------------ *)

let exec_well_formed (e : Memsim.Exec.t) =
  let ok = ref true in
  (* ids are dense and index the ops array *)
  Array.iteri (fun idx (o : Memsim.Op.t) -> if o.Memsim.Op.id <> idx then ok := false) e.Memsim.Exec.ops;
  (* per-processor pindex is contiguous from zero *)
  Array.iter
    (fun ops ->
      Array.iteri
        (fun j (o : Memsim.Op.t) -> if o.Memsim.Op.pindex <> j then ok := false)
        ops)
    e.Memsim.Exec.by_proc;
  (* reads have rf in [-1, n); writes have -2; everything committed *)
  Array.iter
    (fun (o : Memsim.Op.t) ->
      let id = o.Memsim.Op.id in
      (match o.Memsim.Op.kind with
       | Memsim.Op.Read ->
         if e.Memsim.Exec.rf.(id) < -1 || e.Memsim.Exec.rf.(id) >= Memsim.Exec.n_ops e
         then ok := false
       | Memsim.Op.Write -> if e.Memsim.Exec.rf.(id) <> -2 then ok := false);
      if e.Memsim.Exec.commit.(id) = max_int then ok := false)
    e.Memsim.Exec.ops;
  (* rf points to a write of the same location, and its value matches *)
  Array.iter
    (fun (o : Memsim.Op.t) ->
      if o.Memsim.Op.kind = Memsim.Op.Read then begin
        let w = e.Memsim.Exec.rf.(o.Memsim.Op.id) in
        if w >= 0 then begin
          let src = e.Memsim.Exec.ops.(w) in
          if src.Memsim.Op.kind <> Memsim.Op.Write then ok := false;
          if src.Memsim.Op.loc <> o.Memsim.Op.loc then ok := false;
          if src.Memsim.Op.value <> o.Memsim.Op.value then ok := false
        end
      end)
    e.Memsim.Exec.ops;
  !ok

let prop_exec_well_formed machine name =
  QCheck.Test.make ~name ~count:150 arb_case (fun case ->
      exec_well_formed (random_exec ~machine case))

(* ------------------------------------------------------------------ *)
(* hb1 structure                                                       *)
(* ------------------------------------------------------------------ *)

let prop_hb1_acyclic_on_sc =
  QCheck.Test.make ~name:"hb1 of an SC execution is acyclic" ~count:100 arb_seed
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let e =
        Minilang.Interp.run ~model:Memsim.Model.SC
          ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p
      in
      let ophb = Ophb.build e in
      Graphlib.Digraph.topological_order (Ophb.graph ophb) <> None)

let prop_event_vs_op_races =
  (* a pair of events races iff some pair of their operations races *)
  QCheck.Test.make ~name:"event races and operation races coincide" ~count:100 arb_case
    (fun case ->
      let e = random_exec case in
      let trace = Tracing.Trace.of_execution e in
      let hb = Hb.build trace in
      let ophb = Ophb.build e in
      let event_races =
        Race.find_all hb |> Race.data_races
        |> List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b))
      in
      let ops_of eid =
        match trace.Tracing.Trace.events.(eid).Tracing.Event.body with
        | Tracing.Event.Computation { ops; _ } -> ops
        | Tracing.Event.Sync { op; _ } -> [ op ]
      in
      let op_event = Hashtbl.create 32 in
      Array.iter
        (fun (ev : Tracing.Event.t) ->
          List.iter
            (fun (o : Memsim.Op.t) -> Hashtbl.replace op_event o.Memsim.Op.id ev.Tracing.Event.eid)
            (ops_of ev.Tracing.Event.eid))
        trace.Tracing.Trace.events;
      let op_races_as_events =
        Ophb.data_races ophb
        |> List.map (fun (a, b) ->
               let ea = Hashtbl.find op_event a and eb = Hashtbl.find op_event b in
               (min ea eb, max ea eb))
        |> List.sort_uniq compare
      in
      List.sort_uniq compare event_races = op_races_as_events)

(* ------------------------------------------------------------------ *)
(* Reporting laws                                                      *)
(* ------------------------------------------------------------------ *)

let prop_every_race_affected_by_a_reported_race =
  (* the report is complete in the paper's sense: every data race either
     is reported or is affected by a reported one — fixing the first
     partitions fixes everything downstream *)
  QCheck.Test.make ~name:"every data race is affected by a reported race" ~count:100
    arb_case
    (fun case ->
      let e = random_exec case in
      let a = Postmortem.analyze_execution e in
      let reported = Postmortem.reported_races a in
      let g' = Closure.augmented a.Postmortem.augmented in
      List.for_all
        (fun r -> List.exists (fun r' -> Closure.affects g' r' r) reported)
        (Postmortem.data_races a))

let prop_first_partitions_unordered =
  QCheck.Test.make ~name:"first partitions are pairwise unordered" ~count:100 arb_case
    (fun case ->
      let e = random_exec case in
      let a = Postmortem.analyze_execution e in
      let first = Partition.first_partitions a.Postmortem.partitions in
      let g' = Closure.augmented a.Postmortem.augmented in
      List.for_all
        (fun p1 ->
          List.for_all
            (fun p2 ->
              p1 == p2
              || not (Closure.ordered_before g' p1 p2 || Closure.ordered_before g' p2 p1))
            first)
        first)

let prop_analysis_survives_codec =
  QCheck.Test.make ~name:"verdicts identical after encode/decode" ~count:100 arb_case
    (fun case ->
      let e = random_exec case in
      let t = Tracing.Trace.of_execution e in
      match Tracing.Codec.decode (Tracing.Codec.encode t) with
      | Error _ -> false
      | Ok t' ->
        let races tr =
          Postmortem.reported_races (Postmortem.analyze tr)
          |> List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b))
        in
        races t = races t')

(* ------------------------------------------------------------------ *)
(* Cost model laws                                                     *)
(* ------------------------------------------------------------------ *)

let prop_cost_weak_never_slower =
  QCheck.Test.make ~name:"buffered timing never exceeds SC timing" ~count:100 arb_case
    (fun case ->
      let e = random_exec case in
      let sc = (Memsim.Cost.estimate ~mode:Memsim.Model.SC e).Memsim.Cost.makespan in
      let wo = (Memsim.Cost.estimate ~mode:Memsim.Model.WO e).Memsim.Cost.makespan in
      let rc = (Memsim.Cost.estimate ~mode:Memsim.Model.RCsc e).Memsim.Cost.makespan in
      rc <= wo && wo <= sc)

(* ------------------------------------------------------------------ *)
(* Vector clock laws                                                   *)
(* ------------------------------------------------------------------ *)

let arb_vc =
  QCheck.make
    ~print:(fun xs -> String.concat "," (List.map string_of_int xs))
    QCheck.Gen.(list_size (return 4) (int_bound 20))

let vc_of xs =
  List.fold_left
    (fun (vc, idx) x ->
      let rec tick v n = if n = 0 then v else tick (Vclock.tick v idx) (n - 1) in
      (tick vc x, idx + 1))
    (Vclock.make 4, 0)
    xs
  |> fst

let prop_vclock_join_laws =
  QCheck.Test.make ~name:"vector clock join is a semilattice" ~count:200
    (QCheck.pair arb_vc arb_vc)
    (fun (xs, ys) ->
      let a = vc_of xs and b = vc_of ys in
      Vclock.equal (Vclock.join a b) (Vclock.join b a)
      && Vclock.equal (Vclock.join a a) a
      && Vclock.leq a (Vclock.join a b)
      && Vclock.leq b (Vclock.join a b))

let prop_vclock_leq_partial_order =
  QCheck.Test.make ~name:"vector clock leq is a partial order" ~count:200
    (QCheck.pair arb_vc arb_vc)
    (fun (xs, ys) ->
      let a = vc_of xs and b = vc_of ys in
      Vclock.leq a a
      && ((not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b))

(* ------------------------------------------------------------------ *)
(* Reachability differentials: clock index vs the closure oracle       *)
(* ------------------------------------------------------------------ *)

(* The hand-written cyclic-hb1 trace of test/cli/cyclic.t: P0's and P1's
   acquire/release pairs close the cycle E0 -> E1 -> E2 -> E3 -> E4 -> E0,
   and P2's write races P0's inside it.  Random executions never yield a
   cyclic hb1 and random traces only sometimes, so this case runs every
   differential on one. *)
let cyclic_text =
  String.concat "\n"
    [
      "weakrace-trace 1"; "model WO"; "truncated 0"; "procs 3 locs 3 events 6";
      "event 0 proc 0 seq 0 sync loc 1 kind R cls acquire value 0 slot 0 label -";
      "event 1 proc 0 seq 1 comp reads - writes 0";
      "event 2 proc 0 seq 2 sync loc 2 kind W cls release value 0 slot 0 label -";
      "event 3 proc 1 seq 0 sync loc 2 kind R cls acquire value 0 slot 0 label -";
      "event 4 proc 1 seq 1 sync loc 1 kind W cls release value 0 slot 0 label -";
      "event 5 proc 2 seq 0 comp reads - writes 0"; "so1 4 0"; "so1 2 3"; "end 6"; "";
    ]

let cyclic_trace () =
  match Tracing.Codec.decode cyclic_text with
  | Ok t -> t
  | Error e -> Alcotest.failf "cyclic fixture: %s" e

let hb_matches_closure hb =
  let c = Closure.hb1 hb in
  let n = Tracing.Trace.n_events (Hb.trace hb) in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Hb.happens_before hb a b <> Closure.happens_before c a b then ok := false
    done
  done;
  !ok

let pairs = List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b))

let same_races_as_oracle t =
  let a = Postmortem.analyze t in
  let races, first = Closure.analyze t in
  pairs (Postmortem.data_races a) = pairs (Race.data_races races)
  && pairs (Postmortem.reported_races a)
     = pairs (List.concat_map (fun (p : Partition.partition) -> p.Partition.races) first)

(* Def. 4.1 both ways: the one-pass first/non-first split equals the one
   read off the G′ closure, partition for partition *)
let partitions_match_oracle aug =
  let t = Partition.compute aug in
  let g' = Closure.augmented aug in
  let first = Closure.first_partitions g' in
  let non_first =
    List.filter (fun p -> not (List.mem p first)) (Closure.partitions g')
  in
  Partition.partitions t = Closure.partitions g'
  && Partition.first_partitions t = first
  && Partition.non_first_partitions t = non_first

let prop_vclock_index_matches_closure =
  (* random programs × models × seeds: the O(n·P) clock index must answer
     exactly as the bitset transitive closure, on every event pair *)
  QCheck.Test.make ~name:"vclock hb1 index agrees with closure on all pairs" ~count:150
    arb_case
    (fun case -> hb_matches_closure (Hb.build (Tracing.Trace.of_execution (random_exec case))))

let prop_postmortem_same_races_both_indexes =
  QCheck.Test.make ~name:"postmortem race sets identical through both hb1 indexes"
    ~count:120 arb_case
    (fun case -> same_races_as_oracle (Tracing.Trace.of_execution (random_exec case)))

let prop_partitions_match_closure =
  QCheck.Test.make ~name:"first and non-first partitions match the closure" ~count:150
    arb_case
    (fun case ->
      partitions_match_oracle (Postmortem.analyze_execution (random_exec case)).Postmortem.augmented)

(* Random event-level traces in the v1 format.  Programs from the
   generator above rarely order one data-race partition before another,
   and never yield a cyclic hb1; these do both.  Up to four processors
   run two to ten events each: computation events over data locations
   0-3 and acquire/release events on locks 4-5.  Each acquire pairs
   (so1) with a random release of its lock on another processor, or, one
   time in eight, with none — a pair that points backward in the
   processors' progress closes an hb1 cycle, in about a fifth of the
   traces. *)
let arb_trace_text =
  let bit = QCheck.Gen.(frequency [ (4, return false); (1, return true) ]) in
  let body =
    QCheck.Gen.(
      quad
        (frequency [ (1, return `Comp); (1, return `Acq); (1, return `Rel) ])
        (int_range 4 5)
        (pair (list_size (return 4) bit) (list_size (return 4) bit))
        (int_bound 7))
  in
  let gen =
    QCheck.Gen.(
      let* n_procs = int_range 2 4 in
      let* lens = list_size (return n_procs) (int_range 2 10) in
      let procs = List.concat (List.mapi (fun p k -> List.init k (fun i -> (p, i))) lens) in
      let n = List.length procs in
      let* bodies = list_size (return n) body in
      let bodies = Array.of_list bodies in
      let proc = Array.of_list (List.map fst procs) in
      let set bits =
        match List.concat (List.mapi (fun l b -> if b then [ string_of_int l ] else []) bits) with
        | [] -> "-"
        | ls -> String.concat "," ls
      in
      let events =
        List.mapi
          (fun eid (p, seq) ->
            let kind, lock, (rs, ws), _ = bodies.(eid) in
            Printf.sprintf "event %d proc %d seq %d %s" eid p seq
              (match kind with
               | `Acq -> Printf.sprintf "sync loc %d kind R cls acquire value 0 slot 0 label -" lock
               | `Rel -> Printf.sprintf "sync loc %d kind W cls release value 0 slot 0 label -" lock
               | `Comp -> Printf.sprintf "comp reads %s writes %s" (set rs) (set ws)))
          procs
      in
      let so1 =
        List.concat
          (List.init n (fun a ->
               match bodies.(a) with
               | `Acq, lock, _, pick ->
                 let rels =
                   List.filter
                     (fun r ->
                       match bodies.(r) with
                       | `Rel, l, _, _ -> l = lock && proc.(r) <> proc.(a)
                       | _ -> false)
                     (List.init n Fun.id)
                 in
                 if pick >= 7 || rels = [] then []
                 else
                   [ Printf.sprintf "so1 %d %d" (List.nth rels (pick mod List.length rels)) a ]
               | _ -> []))
      in
      let* extra = list_size (int_bound 6) (triple (int_bound (n - 1)) (int_bound (n - 1)) bool) in
      return
        ( String.concat "\n"
            ([ "weakrace-trace 1"; "model WO"; "truncated 0";
               Printf.sprintf "procs %d locs 6 events %d" n_procs n ]
             @ events @ so1 @ [ Printf.sprintf "end %d" n; "" ]),
          extra ))
  in
  QCheck.make
    ~print:(fun (text, extra) ->
      text
      ^ String.concat ""
          (List.map (fun (a, b, d) -> Printf.sprintf "extra %d %d data=%b\n" a b d) extra))
    gen

(* Every race, data and sync–sync alike, as both references find them:
   the per-location pair scan and the closure's all-pairs test. *)
let races_match_references hb =
  let races = Race.find_all hb in
  races = Pairscan.races hb && races = Closure.races (Closure.hb1 hb)

(* The property also counts the traces whose hb1 is cyclic, and the test
   fails unless at least a tenth are: the engine's cyclic path must be
   what the property exercises, not a corner it happens to skip. *)
let random_traces_match_closure =
  let total = ref 0 and cyclic = ref 0 in
  let prop =
    QCheck.Test.make ~name:"random traces: hb1, races, partitions match closure" ~count:300
      arb_trace_text
      (fun (text, extra) ->
        match Tracing.Codec.decode text with
        | Error e -> QCheck.Test.fail_report e
        | Ok t ->
          let a = Postmortem.analyze t in
          incr total;
          if not (Hb.uses_clocks a.Postmortem.hb) then incr cyclic;
          (* Def. 4.1 only needs G′'s shape: on hb1 plus a few arbitrary
             doubly-directed "race" edges, partitions are many and often
             chained, where the trace's own races tend to merge into one *)
          let extra =
            List.map (fun (x, y, is_data) -> { Race.a = x; b = y; locs = []; is_data }) extra
          in
          hb_matches_closure a.Postmortem.hb
          && races_match_references a.Postmortem.hb
          && same_races_as_oracle t
          && partitions_match_oracle a.Postmortem.augmented
          && partitions_match_oracle (Augment.build a.Postmortem.hb extra))
  in
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  ( name,
    speed,
    fun () ->
      total := 0;
      cyclic := 0;
      run ();
      if 10 * !cyclic < !total then
        Alcotest.failf "only %d of %d random traces have a cyclic hb1" !cyclic !total )

(* operation level: hb1 and the affects relation over the op-level G′ *)
let prop_ophb_matches_closure =
  QCheck.Test.make ~name:"op-level hb1 and affects match the closure" ~count:100
    arb_case
    (fun case ->
      let ophb = Ophb.build (random_exec case) in
      let g = Ophb.graph ophb in
      let g' = Graphlib.Digraph.copy g in
      List.iter
        (fun (x, y) ->
          Graphlib.Digraph.add_edge g' x y;
          Graphlib.Digraph.add_edge g' y x)
        (Ophb.races ophb);
      let r = Reach.compute g and r' = Reach.compute g' in
      let n = Graphlib.Digraph.n_nodes g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Ophb.happens_before ophb a b <> (a <> b && Reach.reaches r a b) then ok := false;
          if Ophb.affects_op ophb (a, a) b <> Reach.reaches r' a b then ok := false
        done
      done;
      !ok)

let test_cyclic_fixture_matches_oracle () =
  let t = cyclic_trace () in
  let hb = Hb.build t in
  Alcotest.(check bool) "hb1 is cyclic" true (not (Hb.uses_clocks hb));
  Alcotest.(check bool) "hb1 pairs" true (hb_matches_closure hb);
  Alcotest.(check bool) "race sets" true (same_races_as_oracle t);
  Alcotest.(check bool) "every race" true (races_match_references hb);
  Alcotest.(check bool) "partitions" true
    (partitions_match_oracle (Postmortem.analyze t).Postmortem.augmented);
  (* losing P2's event leaves the cycle plus an isolated stand-in, on
     the salvage finish's lossy cyclic branch *)
  let lossy =
    String.split_on_char '\n' cyclic_text
    |> List.filter (fun l -> not (String.starts_with ~prefix:"event 5" l))
    |> String.concat "\n"
  in
  match Stream.analyze_salvage_string lossy with
  | Error e -> Alcotest.fail e
  | Ok (v, _) ->
    let a = Postmortem.verdict_analysis v in
    Alcotest.(check int) "degraded" 3 (Postmortem.verdict_exit_code v);
    Alcotest.(check bool) "lossy hb1 pairs" true (hb_matches_closure a.Postmortem.hb);
    Alcotest.(check bool) "lossy partitions" true
      (partitions_match_oracle a.Postmortem.augmented)

(* ------------------------------------------------------------------ *)
(* Epoch / SHB differentials                                           *)
(* ------------------------------------------------------------------ *)

(* The epoch-compressed engine is an optimization, not a new analysis:
   on every input it must reproduce the reference engines' report
   exactly — the pair scan's same pairs, same conflict locations, same
   data flags, same order, same rendering, and the closure's race list. *)
let prop_epoch_matches_vector =
  QCheck.Test.make ~name:"epoch engine report identical to vector engine" ~count:500
    arb_case (fun case ->
      let e = random_exec case in
      let t = Tracing.Trace.of_execution e in
      let hb = Hb.build t in
      let ve = Pairscan.races hb in
      let ep = Race.find_all hb in
      let render rs =
        Format.asprintf "%a"
          (Format.pp_print_list ~pp_sep:Format.pp_print_cut Race.pp)
          rs
      in
      List.length ve = List.length ep
      && List.for_all2
           (fun (x : Race.t) (y : Race.t) ->
             x.Race.a = y.Race.a && x.Race.b = y.Race.b
             && x.Race.locs = y.Race.locs
             && x.Race.is_data = y.Race.is_data)
           ve ep
      && render ve = render ep
      && ep = Closure.races (Closure.hb1 hb))

(* SHB only ever adds predictions: every hb1-reported race stays
   reported, and the extras are data races from suppressed partitions
   that hb1 left unordered. *)
let prop_shb_superset_of_hb1 =
  QCheck.Test.make ~name:"shb predictions are a superset of hb1 reports" ~count:500
    arb_case (fun case ->
      let e = random_exec case in
      let a1 = Postmortem.analyze_execution ~order:`Hb1 e in
      let a2 = Postmortem.analyze_execution ~order:`Shb e in
      let key (r : Race.t) = (r.Race.a, r.Race.b) in
      let rep1 = List.map key (Postmortem.reported_races a1) in
      let rep2 = List.map key (Postmortem.reported_races a2) in
      let pred = List.map key (Postmortem.predicted_races a2) in
      rep1 = rep2
      && List.for_all (fun k -> List.mem k pred) rep1
      && List.for_all
           (fun (r : Race.t) ->
             r.Race.is_data
             && (not (Hb.ordered a2.Postmortem.hb r.Race.a r.Race.b))
             && not (List.mem (key r) rep1))
           a2.Postmortem.shb_extra)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let prop_analysis_deterministic =
  QCheck.Test.make ~name:"analysis is deterministic" ~count:60 arb_case (fun case ->
      let e = random_exec case in
      let races a =
        Postmortem.reported_races a |> List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b))
      in
      races (Postmortem.analyze_execution e) = races (Postmortem.analyze_execution e))

let prop_onthefly_deterministic =
  QCheck.Test.make ~name:"on-the-fly detection is deterministic" ~count:60 arb_case
    (fun case ->
      let e = random_exec case in
      Onthefly.race_pairs (Onthefly.detect e) = Onthefly.race_pairs (Onthefly.detect e))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "properties"
    [
      ( "executions",
        qsuite
          [
            prop_exec_well_formed `Buffer "store-buffer executions well formed";
            prop_exec_well_formed `Cache "coherent executions well formed";
            prop_hb1_acyclic_on_sc;
          ] );
      ("granularity", qsuite [ prop_event_vs_op_races ]);
      ( "reporting",
        qsuite
          [
            prop_every_race_affected_by_a_reported_race;
            prop_first_partitions_unordered;
            prop_analysis_survives_codec;
          ] );
      ("cost", qsuite [ prop_cost_weak_never_slower ]);
      ("vclock", qsuite [ prop_vclock_join_laws; prop_vclock_leq_partial_order ]);
      ( "differential",
        qsuite
          [
            prop_epoch_matches_vector;
            prop_shb_superset_of_hb1;
            prop_vclock_index_matches_closure;
            prop_postmortem_same_races_both_indexes;
            prop_partitions_match_closure;
          ]
        @ [ random_traces_match_closure ]
        @ qsuite [ prop_ophb_matches_closure ]
        @ [
            Alcotest.test_case "cyclic fixture matches the closure" `Quick
              test_cyclic_fixture_matches_oracle;
          ] );
      ("determinism", qsuite [ prop_analysis_deterministic; prop_onthefly_deterministic ]);
    ]
