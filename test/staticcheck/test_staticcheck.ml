(* Tests for the static analyzer (lib/staticcheck).

   The load-bearing property is SOUNDNESS: the static candidate set may
   over-approximate but must never miss — every race the dynamic hb1
   detector finds in any execution of any model must be covered by a
   static candidate pair of the same processors and location.  The
   qcheck differential below enforces this over the three Gen
   populations and all six models; a unit test repeats it over the
   stock programs (which, unlike Gen's, contain loops). *)

module Ast = Minilang.Ast
module Gen = Minilang.Gen
module Interp = Minilang.Interp
module Programs = Minilang.Programs
module Model = Memsim.Model
module A = Staticcheck.Absdom
module Lint = Staticcheck.Lint
module Candidates = Staticcheck.Candidates
module Postmortem = Racedetect.Postmortem

let lint p = Lint.analyze p

(* -- coverage: dynamic race -> static candidate ----------------------- *)

let covered (r : Lint.report) trace (race : Racedetect.Race.t) =
  let ev eid = trace.Tracing.Trace.events.(eid) in
  let pa = (ev race.Racedetect.Race.a).Tracing.Event.proc in
  let pb = (ev race.Racedetect.Race.b).Tracing.Event.proc in
  let pa, pb = (min pa pb, max pa pb) in
  let candidates = r.Lint.data_candidates @ r.Lint.sync_candidates in
  List.for_all
    (fun l ->
      List.exists
        (fun (c : Candidates.pair) ->
          c.Candidates.a.Staticcheck.Absint.proc = pa
          && c.Candidates.b.Staticcheck.Absint.proc = pb
          && A.contains c.Candidates.locs l)
        candidates)
    race.Racedetect.Race.locs

let check_execution ?(max_steps = 50_000) r p model seed =
  let e =
    Interp.run ~max_steps ~model
      ~sched:(Memsim.Sched.adversarial ~seed ())
      p
  in
  let a = Postmortem.analyze_execution e in
  List.iter
    (fun race ->
      if not (covered r a.Postmortem.trace race) then
        Alcotest.failf
          "%s, %s, seed %d: dynamic race %a not covered by any static \
           candidate"
          p.Ast.name (Model.name model) seed Racedetect.Race.pp race)
    a.Postmortem.races

(* -- qcheck differential over generated programs --------------------- *)

let generated_program seed =
  let config =
    {
      Gen.default_config with
      Gen.n_procs = 2 + (seed mod 2);
      ops_per_proc = 4 + (seed mod 3);
    }
  in
  match seed mod 3 with
  | 0 -> Gen.random_racy ~config ~seed ()
  | 1 -> Gen.random_racefree ~config ~seed ()
  | _ -> Gen.random_racefree_ra ~config ~seed ()

let differential_generated =
  QCheck.Test.make ~count:500 ~name:"static candidates cover dynamic races"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generated_program seed in
      let r = lint p in
      List.iter (fun model -> check_execution r p model seed) Model.all;
      true)

(* race-free generated programs must also come out clean statically: the
   generator's two safe patterns are exactly what the ordering arguments
   recognize, so this guards the analysis' precision, not its soundness *)
let precision_generated =
  QCheck.Test.make ~count:200 ~name:"generated race-free programs lint clean"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then Gen.random_racefree ~seed ()
        else Gen.random_racefree_ra ~seed ()
      in
      (lint p).Lint.data_candidates = [])

(* -- differential over the stock programs (loops included) ------------ *)

let test_stock_differential () =
  List.iter
    (fun (_, p) ->
      let r = lint p in
      List.iter
        (fun model ->
          List.iter
            (fun seed -> check_execution ~max_steps:200_000 r p model seed)
            [ 0; 1; 2 ])
        [ Model.SC; Model.WO; Model.RCsc ])
    Programs.all

(* -- expected verdicts on the stock programs -------------------------- *)

let statically_clean =
  [
    "fig1b";
    "mp_release_acquire";
    "handoff_update";
    "guarded_handoff";
    "read_own_write";
    "counter_locked";
    "disjoint";
  ]

let statically_flagged =
  [
    "fig1a";
    "dekker";
    (* fences constrain the hardware, not the happens-before analysis:
       the x/y accesses remain unsynchronized data races *)
    "dekker_fenced";
    "mp_data_flag";
    "unguarded_handoff";
    "counter_racy";
    "queue_bug";
    "lazy_init";
    "peterson";
    (* over-approximation: dynamically race-free, but the barrier counts
       releases, which is beyond the static ordering arguments *)
    "barrier_phases";
  ]

let test_stock_verdicts () =
  List.iter
    (fun name ->
      let p = Option.get (Programs.find name) in
      match (lint p).Lint.data_candidates with
      | [] -> ()
      | c :: _ ->
        Alcotest.failf "%s: expected clean, got %d candidates (first on P%d/P%d)"
          name
          (List.length (lint p).Lint.data_candidates)
          c.Candidates.a.Staticcheck.Absint.proc
          c.Candidates.b.Staticcheck.Absint.proc)
    statically_clean;
  List.iter
    (fun name ->
      let p = Option.get (Programs.find name) in
      if (lint p).Lint.data_candidates = [] then
        Alcotest.failf "%s: expected data candidates, got none" name)
    statically_flagged;
  (* every stock program is one or the other *)
  List.iter
    (fun (name, _) ->
      if not (List.mem name (statically_clean @ statically_flagged)) then
        Alcotest.failf "%s: not classified in the verdict lists" name)
    Programs.all

(* queue_bug: the candidate must expose Figure 2's region overlap — the
   consumer works on [Q .. Q+100) with Q in {37 (stale), 100}, the third
   processor initializes [0 .. 100), so mem[50] lies in the overlap *)
let test_queue_bug_overlap () =
  let p = Option.get (Programs.find "queue_bug") in
  let r = lint p in
  let overlap =
    List.exists
      (fun (c : Candidates.pair) ->
        c.Candidates.a.Staticcheck.Absint.proc = 1
        && c.Candidates.b.Staticcheck.Absint.proc = 2
        && A.contains c.Candidates.locs 50)
      r.Lint.data_candidates
  in
  Alcotest.(check bool) "P2/P3 candidate covering mem[50]" true overlap

(* -- sync-discipline findings ----------------------------------------- *)

let build ?(locs = [ "x"; "l" ]) ?init procs =
  Minilang.Build.program ~name:"t" ~locs ?init procs

let msgs p =
  List.map (fun f -> f.Staticcheck.Syncdisc.w_msg) (lint p).Lint.findings

let has_msg p fragment =
  List.exists
    (fun m ->
      let fl = String.length fragment and ml = String.length m in
      let rec go i = i + fl <= ml && (String.sub m i fl = fragment || go (i + 1)) in
      go 0)
    (msgs p)

let test_discipline_findings () =
  let open Minilang.Build in
  (* release with no acquire anywhere else *)
  let p = build [ [ release_store "l" (i 1) ]; [ load "r" "x" ] ] in
  Alcotest.(check bool) "unpaired release" true (has_msg p "orders nothing");
  (* acquire with no sync write at all *)
  let p = build [ [ acquire_load "r" "l" ]; [ load "r" "x" ] ] in
  Alcotest.(check bool) "unpaired acquire" true (has_msg p "can never pair");
  (* acquire that can only observe a Test&Set write: DRF1-specific *)
  let p = build [ [ test_and_set "t" "l" ]; [ acquire_load "r" "l" ] ] in
  Alcotest.(check bool) "plain-sync-only pairing" true
    (has_msg p "no so1 pairing under DRF1");
  (match
     List.find_opt
       (fun (f : Staticcheck.Syncdisc.finding) ->
         f.Staticcheck.Syncdisc.w_models = [ Model.DRF1 ])
       (lint p).Lint.findings
   with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a DRF1-tagged finding");
  (* fence with nothing before it *)
  let p = build [ [ fence (); store "x" (i 1) ]; [ load "r" "x" ] ] in
  Alcotest.(check bool) "fence drains nothing" true
    (has_msg p "fence drains nothing");
  (* unreachable sync *)
  let p = build [ [ if_ (i 0) [ unset "l" ] [] ]; [ load "r" "x" ] ] in
  Alcotest.(check bool) "unreachable sync" true
    (has_msg p "unreachable synchronization");
  (* Test&Set whose result never guards anything *)
  let p = build [ [ test_and_set "t" "l"; store "x" (i 1) ]; [ load "r" "x" ] ] in
  Alcotest.(check bool) "unchecked test&set" true
    (has_msg p "never guards anything");
  (* mixed data/sync use of one location *)
  let p = build [ [ unset "l"; load "r" "l" ]; [ acquire_load "s" "l" ] ] in
  Alcotest.(check bool) "mixed labeling" true (has_msg p "not well-labeled")

(* -- lockset baseline vs lint (satellite: where each one is wrong) ---- *)

let executions p =
  List.map
    (fun seed ->
      Interp.run ~max_steps:50_000 ~model:Model.SC
        ~sched:(Memsim.Sched.random ~seed)
        p)
    (List.init 40 Fun.id)

let test_lockset_vs_lint () =
  (* handoff_update: release/acquire handoff where the consumer writes.
     hb1 proves every execution race-free; lint proves the program
     race-free; the lockset baseline false-alarms whenever the handoff
     happens (no lock ever protects "data").  This is the
     flag-synchronization blind spot the paper's §5 accuracy discussion
     attributes to discipline checkers. *)
  let p = Option.get (Programs.find "handoff_update") in
  let es = executions p in
  Alcotest.(check bool) "lockset false-alarms on handoff_update" true
    (List.exists (fun e -> Oracle.Lockset.check e <> []) es);
  List.iter
    (fun e ->
      let a = Postmortem.analyze_execution e in
      Alcotest.(check bool) "hb1 finds no data race" true
        (Postmortem.data_races a = []))
    es;
  Alcotest.(check bool) "lint proves it race-free" true
    ((lint p).Lint.data_candidates = []);
  Alcotest.(check bool) "lint's sync-pairing check stays quiet" true
    ((lint p).Lint.findings = []);
  (* mp_release_acquire: same story with a read-only consumer *)
  let p = Option.get (Programs.find "mp_release_acquire") in
  Alcotest.(check bool) "lint clean on mp_release_acquire" true
    ((lint p).Lint.data_candidates = [] && (lint p).Lint.findings = []);
  (* unguarded_handoff: the complementary failure — when the writer goes
     first, the consumer's unguarded load looks like harmless read
     sharing, so the lockset discipline declares the execution clean even
     though hb1 exhibits the race in that very execution; lint flags the
     program statically *)
  let p = Option.get (Programs.find "unguarded_handoff") in
  Alcotest.(check bool) "lockset blesses a racy unguarded_handoff run" true
    (List.exists
       (fun e ->
         Oracle.Lockset.check e = []
         && Postmortem.data_races (Postmortem.analyze_execution e) <> [])
       (executions p));
  Alcotest.(check bool) "lint flags unguarded_handoff" true
    ((lint p).Lint.data_candidates <> [])

(* -- interval domain soundness ---------------------------------------- *)

(* concrete expression evaluation, mirroring Interp.eval *)
let rec ceval env (e : Ast.expr) =
  let truthy v = v <> 0 in
  match e with
  | Ast.Int n -> n
  | Ast.Reg r -> List.assoc r env
  | Ast.Neg e -> -ceval env e
  | Ast.Not e -> if truthy (ceval env e) then 0 else 1
  | Ast.Bin (op, a, b) -> (
    let x = ceval env a and y = ceval env b in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> if y = 0 then 0 else x / y
    | Ast.Mod -> if y = 0 then 0 else x mod y
    | Ast.Eq -> if x = y then 1 else 0
    | Ast.Ne -> if x <> y then 1 else 0
    | Ast.Lt -> if x < y then 1 else 0
    | Ast.Le -> if x <= y then 1 else 0
    | Ast.Gt -> if x > y then 1 else 0
    | Ast.Ge -> if x >= y then 1 else 0
    | Ast.And -> if truthy x && truthy y then 1 else 0
    | Ast.Or -> if truthy x || truthy y then 1 else 0)

let rec aeval env (e : Ast.expr) =
  match e with
  | Ast.Int n -> A.of_int n
  | Ast.Reg r -> List.assoc r env
  | Ast.Neg e -> A.neg (aeval env e)
  | Ast.Not e -> A.lognot (aeval env e)
  | Ast.Bin (op, a, b) -> (
    let x = aeval env a and y = aeval env b in
    match op with
    | Ast.Add -> A.add x y
    | Ast.Sub -> A.sub x y
    | Ast.Mul -> A.mul x y
    | Ast.Div -> A.div x y
    | Ast.Mod -> A.md x y
    | _ -> A.cmp op x y)

let arb_expr =
  let open QCheck.Gen in
  let regs = [ "a"; "b"; "c" ] in
  let ops =
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Ne; Ast.Lt;
      Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or ]
  in
  let rec expr depth =
    if depth = 0 then
      oneof [ map (fun n -> Ast.Int n) (int_range (-20) 20);
              map (fun r -> Ast.Reg r) (oneofl regs) ]
    else
      frequency
        [ (1, map (fun n -> Ast.Int n) (int_range (-20) 20));
          (2, map (fun r -> Ast.Reg r) (oneofl regs));
          (1, map (fun e -> Ast.Neg e) (expr (depth - 1)));
          (1, map (fun e -> Ast.Not e) (expr (depth - 1)));
          (4,
           map3 (fun op a b -> Ast.Bin (op, a, b)) (oneofl ops)
             (expr (depth - 1)) (expr (depth - 1))) ]
  in
  QCheck.make
    (QCheck.Gen.pair (expr 4)
       (flatten_l
          (List.map
             (fun r ->
               map
                 (fun (v, lo, hi) -> (r, v, v - lo, v + hi))
                 (triple (int_range (-50) 50) (int_range 0 10) (int_range 0 10)))
             regs)))

let absdom_soundness =
  QCheck.Test.make ~count:2000 ~name:"abstract eval contains concrete eval"
    arb_expr
    (fun (e, regs) ->
      let cenv = List.map (fun (r, v, _, _) -> (r, v)) regs in
      let aenv = List.map (fun (r, _, lo, hi) -> (r, A.interval lo hi)) regs in
      A.contains (aeval aenv e) (ceval cenv e))

(* -- delay-set analysis and repair ------------------------------------ *)

module Delayset = Staticcheck.Delayset
module Repair = Staticcheck.Repair

let delays_of p =
  let r = lint p in
  Delayset.analyze p r.Lint.results

(* the four classic litmus shapes, built inline so the test does not
   depend on the example files' location *)
let litmus_sb =
  let open Minilang.Build in
  program ~name:"sb_t" ~locs:[ "x"; "y" ]
    [ [ store "x" (i 1); load "r" "y" ]; [ store "y" (i 1); load "r" "x" ] ]

let litmus_mp =
  let open Minilang.Build in
  program ~name:"mp_t" ~locs:[ "data"; "flag" ]
    [
      [ store "data" (i 42); store "flag" (i 1) ];
      [ load "f" "flag"; if_ (r "f" =: i 1) [ load "d" "data" ] [] ];
    ]

let litmus_mp_partial =
  let open Minilang.Build in
  program ~name:"mp_partial_t" ~locs:[ "data"; "flag" ]
    [
      [ store "data" (i 42); release_store "flag" (i 1) ];
      [ load "f" "flag"; if_ (r "f" =: i 1) [ load "d" "data" ] [] ];
    ]

let litmus_lb =
  let open Minilang.Build in
  program ~name:"lb_t" ~locs:[ "x"; "y" ]
    [ [ load "r" "y"; store "x" (i 1) ]; [ load "r" "x"; store "y" (i 1) ] ]

let test_delayset_litmus () =
  let check name p exp_cycles exp_delays =
    let ds = delays_of p in
    Alcotest.(check int)
      (name ^ " cycles") exp_cycles
      (List.length ds.Delayset.cycles);
    Alcotest.(check int)
      (name ^ " delays") exp_delays
      (List.length ds.Delayset.delays)
  in
  (* each classic litmus test has exactly one critical cycle through all
     four accesses, giving one delay pair per processor *)
  check "sb" litmus_sb 1 2;
  check "mp" litmus_mp 1 2;
  check "lb" litmus_lb 1 2;
  (* mp_partial's release already splits P0, but the consumer side still
     cycles through the plain flag load *)
  let ds = delays_of litmus_mp_partial in
  Alcotest.(check bool) "mp_partial has a cycle" true (ds.Delayset.cycles <> []);
  (* classic delay-set analysis sees only po and conflicts, so even the
     properly synchronized mp_release_acquire keeps its cycle — the
     repair layer, not the cycle enumeration, credits the sync ordering *)
  let p = Option.get (Programs.find "mp_release_acquire") in
  Alcotest.(check bool) "mp_release_acquire keeps its cycle" true
    ((delays_of p).Delayset.cycles <> []);
  (* but a program whose processors share nothing has no conflict edge,
     hence no cycle *)
  let p = Option.get (Programs.find "disjoint") in
  let ds = delays_of p in
  Alcotest.(check int) "disjoint conflicts" 0 (List.length ds.Delayset.conflicts);
  Alcotest.(check int) "disjoint cycles" 0 (List.length ds.Delayset.cycles)

(* cycles identical up to rotation/reversal must be reported once: the
   loop-carried work region of queue_bug used to enumerate each mirror
   orientation as its own "cycle" *)
let test_delayset_dedup () =
  let check name p exp_cycles exp_delays =
    let ds = delays_of p in
    Alcotest.(check int)
      (name ^ " cycles") exp_cycles
      (List.length ds.Delayset.cycles);
    Alcotest.(check int)
      (name ^ " delays") exp_delays
      (List.length ds.Delayset.delays)
  in
  check "sb" litmus_sb 1 2;
  let qb = Option.get (Programs.find "queue_bug") in
  check "queue_bug" qb 2 4;
  (* no two reported cycles are the same up to rotation+reversal *)
  List.iter
    (fun (pname, p) ->
      let ds = delays_of p in
      let canon (c : Delayset.cycle) =
        let nodes = Array.to_list c in
        let best_rot arr =
          let n = Array.length arr in
          let rot k = List.init n (fun i -> arr.((i + k) mod n)) in
          List.fold_left min (rot 0) (List.init n rot)
        in
        min
          (best_rot (Array.of_list nodes))
          (best_rot (Array.of_list (List.rev nodes)))
      in
      let keys = List.map canon ds.Delayset.cycles in
      Alcotest.(check int)
        (pname ^ " unique cycles")
        (List.length keys)
        (List.length (List.sort_uniq compare keys)))
    Programs.all

let test_repair_shapes () =
  (* sb: both pairs promote — four promotions, or two fences if one only
     wants SC without DRF *)
  let plan = Repair.plan ~model:Model.WO litmus_sb in
  Alcotest.(check int) "sb promotions" 4 (List.length plan.Repair.promotions);
  Alcotest.(check int) "sb residual fences" 0 (List.length plan.Repair.fences);
  (match plan.Repair.fence_only with
  | Some sites -> Alcotest.(check int) "sb fence-only sites" 2 (List.length sites)
  | None -> Alcotest.fail "sb: expected a fence-only alternative");
  Alcotest.(check bool) "sb repaired statically DRF" true
    (Repair.statically_drf plan);
  (* mp: the greedy step finds the flag handoff — exactly one pair
     promoted, reproducing mp's hand-fixed variant *)
  let plan = Repair.plan ~model:Model.WO litmus_mp in
  Alcotest.(check int) "mp promotions" 2 (List.length plan.Repair.promotions);
  Alcotest.(check bool) "mp repaired statically DRF" true
    (Repair.statically_drf plan);
  (* mp_partial: only the consumer's flag load is missing — one promotion *)
  let plan = Repair.plan ~model:Model.WO litmus_mp_partial in
  Alcotest.(check int) "mp_partial promotions" 1
    (List.length plan.Repair.promotions);
  Alcotest.(check bool) "mp_partial repaired statically DRF" true
    (Repair.statically_drf plan);
  (* lb: all four accesses promote, no fences *)
  let plan = Repair.plan ~model:Model.WO litmus_lb in
  Alcotest.(check int) "lb promotions" 4 (List.length plan.Repair.promotions);
  Alcotest.(check int) "lb residual fences" 0 (List.length plan.Repair.fences);
  (* an already-DRF program needs nothing *)
  let p = Option.get (Programs.find "mp_release_acquire") in
  let plan = Repair.plan ~model:Model.WO p in
  Alcotest.(check int) "clean program promotions" 0
    (List.length plan.Repair.promotions);
  Alcotest.(check int) "clean program fences" 0 (List.length plan.Repair.fences)

(* every stock program must reach a statically data-race-free repair: the
   forced-promotion fallback guarantees the fixpoint terminates with a
   conforming program, whatever the discipline violations were *)
let test_repair_stock_converges () =
  List.iter
    (fun (name, p) ->
      let plan = Repair.plan ~model:Model.WO p in
      if not (Repair.statically_drf plan) then
        Alcotest.failf "%s: repair did not converge to statically DRF" name)
    Programs.all

(* the dynamic closing of the loop, in-process: the repaired sb must
   REFUTE both former candidates under every canonical buffering model
   and pass Condition 3.4 *)
let test_repaircheck_sb () =
  let plan = Repair.plan ~model:Model.WO litmus_sb in
  let c = Explore.Repaircheck.run ~seeds:8 ~jobs:1 plan in
  Alcotest.(check int) "exit code" 0 (Explore.Repaircheck.exit_code c);
  Alcotest.(check bool) "verified" true (Explore.Repaircheck.verified c)

(* -- qcheck: the repair property over random programs ----------------- *)

(* Over random racy programs and every canonical buffering model:

   1. the repair converges to a statically data-race-free program, so
      (by the soundness differential above) no execution of any model
      exhibits a dynamic hb1 race;
   2. spot-check 1 dynamically: adversarial runs of the repaired program
      under the repairing model are hb1-race-free;
   3. the repair never invents behaviour: promotions keep every value
      and branch, so each SC final memory of the repaired program is an
      SC final memory of the original. *)

let final_mems ?(limit = 4_000) p =
  let r = Memsim.Enumerate.explore ~limit (fun () -> Interp.source p) in
  if not r.Memsim.Enumerate.complete then None
  else
    Some
      (List.map
         (fun e -> Array.to_list e.Memsim.Exec.final_mem)
         r.Memsim.Enumerate.executions)

let repair_property =
  QCheck.Test.make ~count:300
    ~name:"repair: statically DRF, dynamically race-free, SC-preserving"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let config =
        {
          Gen.default_config with
          Gen.n_procs = 2 + (seed mod 2);
          ops_per_proc = 3 + (seed mod 3);
        }
      in
      let p = Gen.random_racy ~config ~seed () in
      let originals = final_mems p in
      List.for_all
        (fun model ->
          let plan = Repair.plan ~model p in
          if not (Repair.statically_drf plan) then
            QCheck.Test.fail_reportf "seed %d, %s: repair not statically DRF"
              seed (Model.name model);
          let q = plan.Repair.repaired in
          (* dynamic spot check: no hb1 race materializes *)
          List.iter
            (fun s ->
              let e =
                Interp.run ~max_steps:20_000 ~model
                  ~sched:(Memsim.Sched.adversarial ~seed:s ())
                  q
              in
              if Postmortem.data_races (Postmortem.analyze_execution e) <> []
              then
                QCheck.Test.fail_reportf
                  "seed %d, %s: repaired program races dynamically" seed
                  (Model.name model))
            [ 0; 1; 2 ];
          (* SC preservation: promotions add ordering, never outcomes *)
          (match (originals, final_mems plan.Repair.repaired) with
          | Some orig, Some rep ->
            List.iter
              (fun m ->
                if not (List.mem m orig) then
                  QCheck.Test.fail_reportf
                    "seed %d, %s: repaired SC final memory not reachable by \
                     the original"
                    seed (Model.name model))
              rep
          | _ -> ());
          true)
        [ Model.TSO; Model.WO; Model.RCsc ])

(* -- driver ------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "staticcheck"
    [
      ("absdom", qsuite [ absdom_soundness ]);
      ( "differential",
        qsuite [ differential_generated; precision_generated ]
        @ [ Alcotest.test_case "stock programs, all loops" `Slow
              test_stock_differential ] );
      ( "verdicts",
        [
          Alcotest.test_case "stock clean/flagged split" `Quick
            test_stock_verdicts;
          Alcotest.test_case "queue_bug region overlap" `Quick
            test_queue_bug_overlap;
        ] );
      ("discipline", [ Alcotest.test_case "findings" `Quick test_discipline_findings ]);
      ( "delayset",
        [
          Alcotest.test_case "litmus cycle counts" `Quick test_delayset_litmus;
          Alcotest.test_case "rotation+reversal dedup" `Quick
            test_delayset_dedup;
          Alcotest.test_case "repair shapes" `Quick test_repair_shapes;
          Alcotest.test_case "stock repairs converge" `Quick
            test_repair_stock_converges;
          Alcotest.test_case "sb repair verifies dynamically" `Quick
            test_repaircheck_sb;
        ]
        @ qsuite [ repair_property ] );
      ( "lockset-vs-lint",
        [ Alcotest.test_case "complementary failures" `Quick test_lockset_vs_lint ]
      );
    ]
