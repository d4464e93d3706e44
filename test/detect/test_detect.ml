(* The paper's core machinery: hb1, races, augmented graph, partitions,
   first-partition reporting (Figures 2/3), SCPs, Condition 3.4
   (Theorem 3.5) and Theorems 4.1/4.2, plus the on-the-fly detector. *)

open Racedetect
open Oracle

let run ?(model = Memsim.Model.WO) ~seed p =
  Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p

let analyze ?model ~seed p = Postmortem.analyze_execution (run ?model ~seed p)

let sc_pool ?limit p =
  let r = Memsim.Enumerate.explore ?limit (fun () -> Minilang.Interp.source p) in
  if not r.Memsim.Enumerate.complete then Alcotest.fail "SC enumeration incomplete";
  r.Memsim.Enumerate.executions

(* ------------------------------------------------------------------ *)
(* Figure 1: races present / absent                                     *)
(* ------------------------------------------------------------------ *)

let test_fig1a_has_data_races () =
  List.iter
    (fun model ->
      let a = analyze ~model ~seed:1 Minilang.Programs.fig1a in
      let races = Postmortem.data_races a in
      Alcotest.(check bool) "data races found" true (races <> []);
      (* both conflicting pairs (x and y) are unordered: one race between
         P1's computation event and P2's, on both locations *)
      match races with
      | [ r ] -> Alcotest.(check (list int)) "locations x,y" [ 0; 1 ] r.Race.locs
      | _ -> Alcotest.failf "expected exactly one event-level race, got %d"
               (List.length races))
    Memsim.Model.all

let test_fig1b_race_free_all_models_and_seeds () =
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let a = analyze ~model ~seed Minilang.Programs.fig1b in
          Alcotest.(check bool) "no races" true (Postmortem.data_races a = []);
          Alcotest.(check bool) "race_free verdict" true (Postmortem.race_free a))
        (List.init 40 (fun s -> s)))
    Memsim.Model.all

let test_sync_sync_race_is_not_data_race () =
  (* mp_release_acquire: the release/acquire pair on flag can be unordered
     (acquire reads the initial value) — a race, but not a data race *)
  let pool = sc_pool Minilang.Programs.mp_release_acquire in
  List.iter
    (fun e ->
      let a = Postmortem.analyze_execution e in
      Alcotest.(check bool) "no data races" true (Postmortem.data_races a = []);
      Alcotest.(check bool) "race_free" true (Postmortem.race_free a))
    pool;
  (* and at least one SC execution has the sync-sync race *)
  let some_sync_race =
    List.exists
      (fun e ->
        let a = Postmortem.analyze_execution e in
        List.exists (fun (r : Race.t) -> not r.Race.is_data) a.Postmortem.races)
      pool
  in
  Alcotest.(check bool) "sync-sync race exists somewhere" true some_sync_race

(* ------------------------------------------------------------------ *)
(* hb1 structure                                                        *)
(* ------------------------------------------------------------------ *)

let test_hb_po_ordering () =
  let e = run ~model:Memsim.Model.SC ~seed:0 Minilang.Programs.fig1a in
  let t = Tracing.Trace.of_execution e in
  let hb = Hb.build t in
  Array.iter
    (fun evs ->
      let n = Array.length evs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Alcotest.(check bool) "po implies hb" true
            (Hb.happens_before hb evs.(i).Tracing.Event.eid evs.(j).Tracing.Event.eid)
        done
      done)
    t.Tracing.Trace.by_proc

let test_hb_so1_cross_processor () =
  let e = run ~model:Memsim.Model.WO ~seed:2 Minilang.Programs.fig1b in
  let t = Tracing.Trace.of_execution e in
  let hb = Hb.build t in
  (* P1's computation event must happen before P2's final computation *)
  let p1_comp = t.Tracing.Trace.by_proc.(0).(0) in
  let p2_events = t.Tracing.Trace.by_proc.(1) in
  let p2_last = p2_events.(Array.length p2_events - 1) in
  Alcotest.(check bool) "write-xy hb read-xy" true
    (Hb.happens_before hb p1_comp.Tracing.Event.eid p2_last.Tracing.Event.eid);
  Alcotest.(check bool) "not symmetric" false
    (Hb.happens_before hb p2_last.Tracing.Event.eid p1_comp.Tracing.Event.eid)

let test_hb_reconstructed_equals_recorded_under_discipline () =
  let e = run ~model:Memsim.Model.RCsc ~seed:5 Minilang.Programs.counter_locked in
  let t = Tracing.Trace.of_execution e in
  let hb_rec = Hb.build ~so1:`Recorded t in
  let hb_rcn = Hb.build ~so1:`Reconstructed t in
  let n = Array.length t.Tracing.Trace.events in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      Alcotest.(check bool) "same ordering" (Hb.happens_before hb_rec a b)
        (Hb.happens_before hb_rcn a b)
    done
  done

(* ------------------------------------------------------------------ *)
(* Figure 2 / Figure 3: the queue bug end to end                        *)
(* ------------------------------------------------------------------ *)

let region = 8

let find_stale_execution () =
  let p = Minilang.Programs.queue_bug ~region () in
  let stale = max 1 (37 * region / 100) in
  let rec go seed =
    if seed > 3000 then Alcotest.fail "no stale-dequeue execution found"
    else
      let e = run ~model:Memsim.Model.WO ~seed p in
      let dequeued =
        Array.to_list e.Memsim.Exec.ops
        |> List.find_opt (fun (o : Memsim.Op.t) -> o.Memsim.Op.label = Some "P2:dequeue")
      in
      match dequeued with
      | Some o when o.Memsim.Op.value = stale -> e
      | _ -> go (seed + 1)
  in
  go 0

let test_queue_bug_stale_dequeue_exists () =
  let e = find_stale_execution () in
  Alcotest.(check bool) "execution exists" true (Memsim.Exec.n_ops e > 0)

let test_queue_bug_partitions_match_figure3 () =
  let e = find_stale_execution () in
  let a = Postmortem.analyze_execution e in
  let first = Postmortem.first_partitions a in
  let non_first = Partition.non_first_partitions a.Postmortem.partitions in
  Alcotest.(check int) "one first partition" 1 (List.length first);
  Alcotest.(check bool) "non-first partitions exist" true (non_first <> []);
  (* the first partition is the Q/QEmpty race between P1 and P2 (the paper's
     "first data races"); the work-region races (P2 vs P3) are non-first *)
  let q = 3 * region and qempty = (3 * region) + 1 in
  let first_locs =
    List.concat_map (fun (p : Partition.partition) ->
        List.concat_map (fun (r : Race.t) -> r.Race.locs) p.Partition.races)
      first
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "first races are on Q and QEmpty" [ q; qempty ] first_locs;
  let non_first_locs =
    List.concat_map (fun (p : Partition.partition) ->
        List.concat_map (fun (r : Race.t) -> r.Race.locs) p.Partition.races)
      non_first
  in
  Alcotest.(check bool) "work-region races are non-first" true
    (List.for_all (fun l -> l < 3 * region) non_first_locs && non_first_locs <> [])

let test_queue_bug_unaffected_races_are_first () =
  let e = find_stale_execution () in
  let a = Postmortem.analyze_execution e in
  let unaffected =
    Closure.unaffected_data_races (Closure.augmented a.Postmortem.augmented)
  in
  Alcotest.(check bool) "unaffected races exist" true (unaffected <> []);
  let reported = Postmortem.reported_races a in
  List.iter
    (fun r ->
      Alcotest.(check bool) "unaffected race is reported" true
        (List.exists (Race.equal r) reported))
    unaffected

(* ------------------------------------------------------------------ *)
(* Affects relation (Def 3.3)                                           *)
(* ------------------------------------------------------------------ *)

let test_affects_reflexive_like_and_downstream () =
  let e = find_stale_execution () in
  let a = Postmortem.analyze_execution e in
  let aug = Closure.augmented a.Postmortem.augmented in
  let data = Race.data_races a.Postmortem.races in
  List.iter
    (fun r ->
      Alcotest.(check bool) "a race affects itself (clause 1)" true
        (Closure.affects aug r r);
      Alcotest.(check bool) "a race affects its own endpoints" true
        (Closure.affects_event aug r r.Race.a && Closure.affects_event aug r r.Race.b))
    data;
  (* the Q/QEmpty race affects the downstream region races but not
     conversely *)
  let q = 3 * region in
  let is_queue_race (r : Race.t) = List.exists (fun l -> l >= q) r.Race.locs in
  let queue_races, region_races = List.partition is_queue_race data in
  Alcotest.(check bool) "both kinds present" true (queue_races <> [] && region_races <> []);
  List.iter
    (fun qr ->
      List.iter
        (fun rr ->
          Alcotest.(check bool) "queue race affects region race" true
            (Closure.affects aug qr rr);
          Alcotest.(check bool) "region race does not affect queue race" false
            (Closure.affects aug rr qr))
        region_races)
    queue_races

(* ------------------------------------------------------------------ *)
(* Theorem 4.1                                                          *)
(* ------------------------------------------------------------------ *)

let prop_theorem_4_1 =
  QCheck.Test.make ~name:"Thm 4.1: first partitions iff data races" ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, mi) ->
      let model = List.nth Memsim.Model.all (mi mod List.length Memsim.Model.all) in
      let p =
        if seed mod 2 = 0 then Minilang.Gen.random_racy ~seed ()
        else Minilang.Gen.random_racefree ~seed ()
      in
      let a = analyze ~model ~seed:(seed + 13) p in
      let has_races = Postmortem.data_races a <> [] in
      let has_first = Postmortem.first_partitions a <> [] in
      has_races = has_first)

(* ------------------------------------------------------------------ *)
(* Partition order properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_partition_order_is_strict =
  QCheck.Test.make ~name:"partition order is a strict partial order" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let a = analyze ~seed:(seed + 7) p in
      let parts = Partition.partitions a.Postmortem.partitions in
      let t = Closure.augmented a.Postmortem.augmented in
      List.for_all
        (fun p1 ->
          (not (Closure.ordered_before t p1 p1))
          && List.for_all
               (fun p2 ->
                 not (Closure.ordered_before t p1 p2 && Closure.ordered_before t p2 p1))
               parts)
        parts)

let prop_first_partitions_are_minimal =
  QCheck.Test.make ~name:"first partitions have no data-race predecessor" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let a = analyze ~seed:(seed + 3) p in
      let t = a.Postmortem.partitions in
      let parts = Partition.partitions t in
      let g' = Closure.augmented a.Postmortem.augmented in
      List.for_all
        (fun f -> not (List.exists (fun q -> Closure.ordered_before g' q f) parts))
        (Partition.first_partitions t))

let prop_unaffected_races_live_in_first_partitions =
  QCheck.Test.make ~name:"unaffected data races are reported" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let a = analyze ~seed:(seed + 29) p in
      let reported = Postmortem.reported_races a in
      List.for_all
        (fun r -> List.exists (Race.equal r) reported)
        (Closure.unaffected_data_races (Closure.augmented a.Postmortem.augmented)))

(* ------------------------------------------------------------------ *)
(* SCP machinery                                                        *)
(* ------------------------------------------------------------------ *)

let test_prefix_definition () =
  let e = run ~model:Memsim.Model.SC ~seed:0 Minilang.Programs.fig1b in
  let ophb = Ophb.build e in
  let all_ids = List.init (Memsim.Exec.n_ops e) (fun i -> i) in
  Alcotest.(check bool) "whole execution is a prefix" true (Scp.is_prefix ophb all_ids);
  Alcotest.(check bool) "empty set is a prefix" true (Scp.is_prefix ophb []);
  (* P2's reads depend (hb1) on P1's unset; excluding the unset while
     keeping the reads is not a prefix *)
  let unset_id =
    Array.to_list e.Memsim.Exec.ops
    |> List.find (fun (o : Memsim.Op.t) -> o.Memsim.Op.label = Some "P1:unset-s")
  in
  let bad = List.filter (fun i -> i <> unset_id.Memsim.Op.id) all_ids in
  Alcotest.(check bool) "dropping a cause is not a prefix" false (Scp.is_prefix ophb bad)

let test_scp_of_sc_execution_is_everything () =
  (* an SC execution is its own SCP in full *)
  let pool = sc_pool Minilang.Programs.unguarded_handoff in
  List.iter
    (fun e ->
      let ophb = Ophb.build e in
      let sc = List.map Ophb.build pool in
      let all_ids = List.init (Memsim.Exec.n_ops e) (fun i -> i) in
      Alcotest.(check bool) "full prefix is an SCP" true (Scp.is_scp ~sc ophb all_ids))
    pool

let test_common_prefix_scp_is_scp () =
  let p = Minilang.Programs.fig1a in
  let pool = sc_pool p in
  let sc = List.map Ophb.build pool in
  List.iter
    (fun seed ->
      let e = run ~model:Memsim.Model.WO ~seed p in
      let ophb = Ophb.build e in
      List.iter
        (fun sc_exec ->
          let s = Scp.common_prefix_scp ~weak:ophb ~sc_exec in
          Alcotest.(check bool) "candidate is a prefix" true (Scp.is_prefix ophb s);
          Alcotest.(check bool) "candidate is an SCP" true (Scp.is_scp ~sc ophb s))
        sc)
    (List.init 15 (fun s -> s))

(* ------------------------------------------------------------------ *)
(* Condition 3.4 (Theorem 3.5) Monte-Carlo                              *)
(* ------------------------------------------------------------------ *)

let check_condition ~seeds ~programs () =
  List.iter
    (fun p ->
      let pool = sc_pool ~limit:200_000 p in
      List.iter
        (fun model ->
          List.iter
            (fun seed ->
              let e = Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p in
              let v = Condition.check ~sc:pool e in
              if not v.Condition.holds then
                Alcotest.failf "Condition 3.4 violated: %s %s seed=%d: %s"
                  p.Minilang.Ast.name (Memsim.Model.name model) seed
                  (Format.asprintf "%a" Condition.pp_verdict v))
            seeds)
        Memsim.Model.weak)
    programs

let test_condition_34_stock_programs () =
  check_condition
    ~seeds:(List.init 12 (fun s -> s))
    ~programs:
      [
        Minilang.Programs.fig1a;
        Minilang.Programs.dekker;
        Minilang.Programs.mp_data_flag;
        Minilang.Programs.unguarded_handoff;
        Minilang.Programs.guarded_handoff;
        Minilang.Programs.mp_release_acquire;
        Minilang.Programs.disjoint;
      ]
    ()

let test_condition_34_random_racefree () =
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racefree ~seed () in
      let pool = sc_pool ~limit:200_000 p in
      List.iter
        (fun model ->
          let e =
            Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
          in
          let v = Condition.check ~sc:pool e in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s holds" seed (Memsim.Model.name model))
            true v.Condition.holds;
          (* race-free programs: clause (1) must be the one that applies *)
          if v.Condition.n_data_races = 0 then
            Alcotest.(check bool) "clause 1 applies" true (v.Condition.cond1 = Condition.Holds))
        Memsim.Model.weak)
    (List.init 10 (fun s -> s))

let test_condition_34_random_racy () =
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let pool = sc_pool ~limit:200_000 p in
      List.iter
        (fun model ->
          let e =
            Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
          in
          let v = Condition.check ~sc:pool e in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s holds" seed (Memsim.Model.name model))
            true v.Condition.holds)
        Memsim.Model.weak)
    (List.init 10 (fun s -> s))

(* race-free programs are sequentially consistent on weak hardware:
   Condition 3.4(1) in behavioural terms *)
let test_racefree_executions_behaviourally_sc () =
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racefree ~seed () in
      let pool = sc_pool ~limit:200_000 p in
      List.iter
        (fun model ->
          let e =
            Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
          in
          Alcotest.(check bool) "matches some SC execution" true
            (List.exists (Memsim.Exec.same_program_behaviour e) pool))
        Memsim.Model.weak)
    (List.init 15 (fun s -> s))

(* ------------------------------------------------------------------ *)
(* Theorem 4.2                                                          *)
(* ------------------------------------------------------------------ *)

(* In each first partition at least one data race belongs to an SCP: some
   lower-level op race of some event race of the partition lies inside the
   Condition 3.4 witness prefix. *)
let event_race_has_op_race_in ~(trace : Tracing.Trace.t) ~ophb ~scp (r : Race.t) =
  let module Iset = Set.Make (Int) in
  let s = Iset.of_list scp in
  let ops_of eid =
    match trace.Tracing.Trace.events.(eid).Tracing.Event.body with
    | Tracing.Event.Computation { ops; _ } -> ops
    | Tracing.Event.Sync { op; _ } -> [ op ]
  in
  List.exists
    (fun (x : Memsim.Op.t) ->
      List.exists
        (fun (y : Memsim.Op.t) ->
          Memsim.Op.conflict x y
          && (Memsim.Op.is_data x.Memsim.Op.cls || Memsim.Op.is_data y.Memsim.Op.cls)
          && (not (Ophb.ordered ophb x.Memsim.Op.id y.Memsim.Op.id))
          && Iset.mem x.Memsim.Op.id s
          && Iset.mem y.Memsim.Op.id s)
        (ops_of r.Race.b))
    (ops_of r.Race.a)

let test_theorem_4_2 () =
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let pool = sc_pool ~limit:200_000 p in
      List.iter
        (fun model ->
          let e =
            Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
          in
          let a = Postmortem.analyze_execution e in
          match Postmortem.first_partitions a with
          | [] -> ()
          | first ->
            let v = Condition.check ~sc:pool e in
            (match v.Condition.scp_witness with
             | None -> Alcotest.fail "races exist but no SCP witness"
             | Some scp ->
               let ophb = Ophb.build e in
               List.iter
                 (fun (part : Partition.partition) ->
                   Alcotest.(check bool)
                     (Printf.sprintf "seed %d %s: first partition has an SCP race" seed
                        (Memsim.Model.name model))
                     true
                     (List.exists
                        (event_race_has_op_race_in ~trace:a.Postmortem.trace ~ophb ~scp)
                        part.Partition.races))
                 first))
        Memsim.Model.weak)
    (List.init 8 (fun s -> s))

(* ------------------------------------------------------------------ *)
(* On-the-fly detector                                                  *)
(* ------------------------------------------------------------------ *)

let prop_onthefly_sound =
  QCheck.Test.make ~name:"on-the-fly reports only true hb1 data races" ~count:120
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, mi) ->
      let model = List.nth Memsim.Model.all (mi mod List.length Memsim.Model.all) in
      let p = Minilang.Gen.random_racy ~seed () in
      let e = Minilang.Interp.run ~model ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p in
      let ophb = Ophb.build e in
      let truth = Ophb.data_races ophb in
      List.for_all (fun pr -> List.mem pr truth) (Onthefly.race_pairs (Onthefly.detect e)))

let prop_onthefly_finds_something_when_races_exist =
  QCheck.Test.make ~name:"on-the-fly finds a race when post-mortem does" ~count:120
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, mi) ->
      let model = List.nth Memsim.Model.all (mi mod List.length Memsim.Model.all) in
      let p = Minilang.Gen.random_racy ~seed () in
      let e = Minilang.Interp.run ~model ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p in
      let truth = Ophb.data_races (Ophb.build e) in
      truth = [] || Onthefly.detect e <> [])

let test_onthefly_live_hook_matches_posthoc () =
  (* attaching the incremental detector to the machine's on_op hook
     produces exactly the post-hoc reports: detection truly happens
     during execution *)
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let src = Minilang.Interp.source p in
      let det = Onthefly.create ~n_procs:2 ~n_locs:src.Memsim.Thread_intf.n_locs in
      let e =
        Memsim.Machine.run
          ~on_op:(fun o -> ignore (Onthefly.observe det o))
          ~model:Memsim.Model.WO
          ~sched:(Memsim.Sched.random ~seed)
          src
      in
      Alcotest.(check (list (pair int int))) "live = post-hoc"
        (Onthefly.race_pairs (Onthefly.detect e))
        (Onthefly.race_pairs (Onthefly.reports det)))
    (List.init 40 (fun s -> s + 1))

let test_onthefly_racefree_silent () =
  List.iter
    (fun (p, seed) ->
      List.iter
        (fun model ->
          let e =
            Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
          in
          Alcotest.(check (list (pair int int))) "no reports" []
            (Onthefly.race_pairs (Onthefly.detect e)))
        Memsim.Model.all)
    [
      (Minilang.Programs.fig1b, 1);
      (Minilang.Programs.counter_locked, 2);
      (Minilang.Programs.guarded_handoff, 3);
      (Minilang.Programs.mp_release_acquire, 4);
      (Minilang.Programs.disjoint, 5);
    ]

(* ------------------------------------------------------------------ *)
(* Report rendering                                                     *)
(* ------------------------------------------------------------------ *)

let test_report_race_free () =
  let a = analyze ~model:Memsim.Model.WO ~seed:1 Minilang.Programs.fig1b in
  let s = Report.to_string a in
  Alcotest.(check bool) "mentions sequential consistency" true
    (Astring.String.is_infix ~affix:"sequentially consistent" s)

let test_report_racy () =
  let e = find_stale_execution () in
  let a = Postmortem.analyze_execution e in
  let p = Minilang.Programs.queue_bug ~region () in
  let s = Report.to_string ~loc_name:(Minilang.Ast.loc_name p) a in
  Alcotest.(check bool) "names Q" true (Astring.String.is_infix ~affix:"Q" s);
  Alcotest.(check bool) "mentions non-first suppression" true
    (Astring.String.is_infix ~affix:"non-first" s)

(* The report bytes over a generated corpus, pinned by MD5: generated
   racy and race-free programs (symbolic location names) and the stock
   programs (labels) under every model and scheduler, plus the queue
   bug's stale dequeue (Figure 3's non-first partitions).  Each analysis
   is rendered the ways the CLI prints it: the hb1 report with and
   without location names, the SHB report, the degraded wording, and
   every partition in full as [detect --all] shows it.  The counters make
   sure the corpus really reaches multi-location races, non-first
   partitions and SHB extras. *)
let report_corpus_pin = "955ce701cb4b4d11b49090f695dda350"

let test_report_corpus_digest () =
  let gen_config =
    { Minilang.Gen.n_procs = 4; n_shared = 5; n_locks = 2; ops_per_proc = 10;
      sync_freq = 3 }
  in
  let scheds ~loop_free seed =
    [ Memsim.Sched.adversarial ~seed (); Memsim.Sched.random ~seed;
      Memsim.Sched.eager ~seed ]
    (* round robin never drains a spinning processor's buffer *)
    @ if loop_free then [ Memsim.Sched.round_robin () ] else []
  in
  let runs ~loop_free seed p =
    List.concat_map
      (fun model ->
        List.map
          (fun sched -> (p, Minilang.Interp.run ~model ~sched p))
          (scheds ~loop_free seed))
      Memsim.Model.all
  in
  let corpus =
    List.concat_map
      (fun seed ->
        List.concat_map (runs ~loop_free:true seed)
          [
            Minilang.Gen.random_racy ~seed ();
            Minilang.Gen.random_racy ~config:gen_config ~seed ();
            Minilang.Gen.random_racefree ~config:gen_config ~seed ();
          ])
      (List.init 4 Fun.id)
    @ List.concat (List.mapi (fun i (_, p) -> runs ~loop_free:false i p)
                     Minilang.Programs.all)
    @ [ (Minilang.Programs.queue_bug ~region (), find_stale_execution ()) ]
  in
  let buf = Buffer.create 65536 in
  let add_report pp a = Buffer.add_string buf (Format.asprintf "%a@." pp a) in
  let multi_loc = ref 0 and non_first = ref 0 and shb_extra = ref 0 in
  List.iter
    (fun (p, e) ->
      let loc_name = Minilang.Ast.loc_name p in
      let a = Postmortem.analyze_execution e in
      let shb = Postmortem.with_order `Shb a in
      let parts = a.Postmortem.partitions in
      if List.exists (fun (r : Race.t) -> List.length r.Race.locs > 1) a.Postmortem.races
      then incr multi_loc;
      non_first := !non_first + List.length (Partition.non_first_partitions parts);
      shb_extra := !shb_extra + List.length shb.Postmortem.shb_extra;
      Buffer.add_string buf (Report.to_string ~loc_name a);
      add_report (Report.pp_analysis ?loc_name:None) a;
      add_report (Report.pp_analysis ~loc_name) shb;
      add_report (Report.pp_analysis_degraded ~loc_name) a;
      List.iter
        (add_report (Report.pp_partition ~loc_name ~trace:a.Postmortem.trace))
        (Partition.partitions parts))
    corpus;
  Alcotest.(check bool) "multi-location races covered" true (!multi_loc > 0);
  Alcotest.(check bool) "non-first partitions covered" true (!non_first > 0);
  Alcotest.(check bool) "SHB extras covered" true (!shb_extra > 0);
  let text = Buffer.contents buf in
  Alcotest.(check bool) "labels covered" true
    (Astring.String.is_infix ~affix:" P1:write-x)" text);
  Alcotest.(check string) "report corpus MD5" report_corpus_pin
    (Digest.to_hex (Digest.string text))

(* ------------------------------------------------------------------ *)
(* Epoch engine fallback transitions                                    *)
(* ------------------------------------------------------------------ *)

let mk_prog name procs =
  { Minilang.Ast.name; n_locs = 1; init = []; procs; symbols = [] }

let check_epoch_matches_vector ~expect_races e =
  let t = Tracing.Trace.of_execution e in
  let hb = Hb.build t in
  Alcotest.(check bool) "hb1 is acyclic" true (Hb.uses_clocks hb);
  let ve = Pairscan.races hb in
  let ep = Race.find_all hb in
  Alcotest.(check int) "race count" expect_races (List.length ve);
  Alcotest.(check (list (pair int int))) "same pairs"
    (List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b)) ve)
    (List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b)) ep);
  List.iter2
    (fun (x : Race.t) (y : Race.t) ->
      Alcotest.(check (list int)) "same locs" x.Race.locs y.Race.locs;
      Alcotest.(check bool) "same data flag" x.Race.is_data y.Race.is_data)
    ve ep

let test_epoch_fallback_write_write () =
  (* two unsynchronized writers: the second write processed fails its
     last-write epoch check, demoting the location to the exact scan *)
  let p =
    mk_prog "ww"
      [|
        [ Minilang.Ast.Store { addr = Int 0; value = Int 1; label = None } ];
        [ Minilang.Ast.Store { addr = Int 0; value = Int 2; label = None } ];
      |]
  in
  check_epoch_matches_vector ~expect_races:1 (run ~model:Memsim.Model.SC ~seed:0 p)

let test_epoch_fallback_read_share () =
  (* two concurrent readers promote the read window from a single epoch
     to a per-processor vector; the unsynchronized writer then fails the
     window-coverage check and must scan both reads *)
  let p =
    mk_prog "rshare"
      [|
        [ Minilang.Ast.Load { reg = "a"; addr = Int 0; label = None } ];
        [ Minilang.Ast.Load { reg = "b"; addr = Int 0; label = None } ];
        [ Minilang.Ast.Store { addr = Int 0; value = Int 1; label = None } ];
      |]
  in
  check_epoch_matches_vector ~expect_races:2 (run ~model:Memsim.Model.SC ~seed:0 p)

(* The same transitions on cyclic hb1 (§3.1), where every member of a
   strongly connected component shares its component's clock.  Races
   are checked against both references: the pair scan and the closure's
   all-pairs test. *)
let check_cyclic_matches_oracles ~expect lines =
  let t =
    match
      Tracing.Codec.decode
        (String.concat "\n" ([ "weakrace-trace 1"; "model WO"; "truncated 0" ] @ lines))
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "fixture: %s" e
  in
  let hb = Hb.build t in
  Alcotest.(check bool) "hb1 is cyclic" false (Hb.uses_clocks hb);
  let pairs = List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b)) in
  let ep = Race.find_all hb in
  Alcotest.(check (list (pair int int))) "races" expect (pairs ep);
  Alcotest.(check bool) "pair scan agrees" true (ep = Pairscan.races hb);
  Alcotest.(check bool) "closure agrees" true (ep = Closure.races (Closure.hb1 hb))

let test_epoch_cyclic_read_share () =
  (* two concurrent hb1 cycles, P0/P1 (locks 1, 2) and P2/P3 (locks 3,
     4), each read x inside: whichever cycle is processed second
     promotes x's read window.  P3's read after its cycle overwrites
     P3's tick in the promoted window; P0's write after the first cycle
     is ordered after that cycle's reads and races the other's three *)
  check_cyclic_matches_oracles ~expect:[ (3, 8); (3, 11); (3, 13) ]
    [
      "procs 4 locs 5 events 14";
      "event 0 proc 0 seq 0 sync loc 1 kind R cls acquire value 0 slot 0 label -";
      "event 1 proc 0 seq 1 comp reads 0 writes -";
      "event 2 proc 0 seq 2 sync loc 2 kind W cls release value 0 slot 0 label -";
      "event 3 proc 0 seq 3 comp reads - writes 0";
      "event 4 proc 1 seq 0 sync loc 2 kind R cls acquire value 0 slot 0 label -";
      "event 5 proc 1 seq 1 comp reads 0 writes -";
      "event 6 proc 1 seq 2 sync loc 1 kind W cls release value 0 slot 0 label -";
      "event 7 proc 2 seq 0 sync loc 3 kind R cls acquire value 0 slot 0 label -";
      "event 8 proc 2 seq 1 comp reads 0 writes -";
      "event 9 proc 2 seq 2 sync loc 4 kind W cls release value 0 slot 0 label -";
      "event 10 proc 3 seq 0 sync loc 4 kind R cls acquire value 0 slot 0 label -";
      "event 11 proc 3 seq 1 comp reads 0 writes -";
      "event 12 proc 3 seq 2 sync loc 3 kind W cls release value 0 slot 0 label -";
      "event 13 proc 3 seq 3 comp reads 0 writes -";
      "so1 6 0"; "so1 2 4"; "so1 12 7"; "so1 9 10"; "end 14"; "";
    ]

let test_epoch_cyclic_dirty_boundary () =
  (* x is written and read inside one P0/P1 cycle, so it stays clean
     there; the two writes after the cycle are concurrent, and whichever
     comes second turns x dirty and scans the cycle's accesses, whose
     component clock runs past their own row position *)
  check_cyclic_matches_oracles ~expect:[ (3, 7) ]
    [
      "procs 2 locs 3 events 8";
      "event 0 proc 0 seq 0 sync loc 1 kind R cls acquire value 0 slot 0 label -";
      "event 1 proc 0 seq 1 comp reads - writes 0";
      "event 2 proc 0 seq 2 sync loc 2 kind W cls release value 0 slot 0 label -";
      "event 3 proc 0 seq 3 comp reads - writes 0";
      "event 4 proc 1 seq 0 sync loc 2 kind R cls acquire value 0 slot 0 label -";
      "event 5 proc 1 seq 1 comp reads 0 writes -";
      "event 6 proc 1 seq 2 sync loc 1 kind W cls release value 0 slot 0 label -";
      "event 7 proc 1 seq 3 comp reads - writes 0";
      "so1 6 0"; "so1 2 4"; "end 8"; "";
    ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "detect"
    [
      ( "figure1",
        [
          Alcotest.test_case "fig1a has data races" `Quick test_fig1a_has_data_races;
          Alcotest.test_case "fig1b race free" `Quick test_fig1b_race_free_all_models_and_seeds;
          Alcotest.test_case "sync-sync race is not data" `Quick
            test_sync_sync_race_is_not_data_race;
        ] );
      ( "hb1",
        [
          Alcotest.test_case "po ordering" `Quick test_hb_po_ordering;
          Alcotest.test_case "so1 crosses processors" `Quick test_hb_so1_cross_processor;
          Alcotest.test_case "reconstructed so1" `Quick
            test_hb_reconstructed_equals_recorded_under_discipline;
        ] );
      ( "figure2-3",
        [
          Alcotest.test_case "stale dequeue exists" `Quick test_queue_bug_stale_dequeue_exists;
          Alcotest.test_case "partitions match figure 3" `Quick
            test_queue_bug_partitions_match_figure3;
          Alcotest.test_case "unaffected races are first" `Quick
            test_queue_bug_unaffected_races_are_first;
        ] );
      ( "affects",
        [ Alcotest.test_case "Def 3.3 on the queue bug" `Quick
            test_affects_reflexive_like_and_downstream ] );
      ( "partition-props",
        qsuite
          [
            prop_theorem_4_1;
            prop_partition_order_is_strict;
            prop_first_partitions_are_minimal;
            prop_unaffected_races_live_in_first_partitions;
          ] );
      ( "scp",
        [
          Alcotest.test_case "prefix definition" `Quick test_prefix_definition;
          Alcotest.test_case "SC execution is its own SCP" `Quick
            test_scp_of_sc_execution_is_everything;
          Alcotest.test_case "common prefix is an SCP" `Quick test_common_prefix_scp_is_scp;
        ] );
      ( "condition-3.4",
        [
          Alcotest.test_case "stock programs" `Slow test_condition_34_stock_programs;
          Alcotest.test_case "random race-free" `Slow test_condition_34_random_racefree;
          Alcotest.test_case "random racy" `Slow test_condition_34_random_racy;
          Alcotest.test_case "race-free is behaviourally SC" `Slow
            test_racefree_executions_behaviourally_sc;
        ] );
      ("theorem-4.2", [ Alcotest.test_case "first partitions contain SCP races" `Slow test_theorem_4_2 ]);
      ( "onthefly",
        qsuite [ prop_onthefly_sound; prop_onthefly_finds_something_when_races_exist ]
        @ [ Alcotest.test_case "silent on race-free programs" `Quick
              test_onthefly_racefree_silent;
            Alcotest.test_case "live hook matches post-hoc" `Quick
              test_onthefly_live_hook_matches_posthoc ] );
      ( "report",
        [
          Alcotest.test_case "race free" `Quick test_report_race_free;
          Alcotest.test_case "racy with names" `Quick test_report_racy;
          Alcotest.test_case "corpus digest" `Quick test_report_corpus_digest;
        ] );
      (* the epoch engine's two demotion points: a concurrent second
         write, and a write meeting a promoted (shared) read window, on
         acyclic and on cyclic hb1 *)
      ( "epoch-fallback",
        [
          Alcotest.test_case "write-write transition" `Quick
            test_epoch_fallback_write_write;
          Alcotest.test_case "read-share transition" `Quick
            test_epoch_fallback_read_share;
          Alcotest.test_case "read-share inside hb1 cycles" `Quick
            test_epoch_cyclic_read_share;
          Alcotest.test_case "dirty across a cycle boundary" `Quick
            test_epoch_cyclic_dirty_boundary;
        ] );
    ]
