module Exec = Memsim.Exec
module Model = Memsim.Model
module Enumerate = Memsim.Enumerate
module Gen = Minilang.Gen
module Interp = Minilang.Interp
module Programs = Minilang.Programs
module Dpor = Explore.Dpor
module Triage = Explore.Triage
module Postmortem = Racedetect.Postmortem
module Race = Racedetect.Race

let mk p () = Interp.source p

let behaviours_equal a b =
  Dpor.behaviours_covered a b && Dpor.behaviours_covered b a

(* -- qcheck differential: DPOR = naive enumeration, SC ---------------- *)

(* Program sizes are capped so the *naive* enumeration stays tractable:
   its schedule count is multinomial in the per-processor op counts, and
   the race-free generators append hand-off code on top of [ops_per_proc]. *)
let generated_program seed =
  let n_procs = 2 + (seed mod 2) in
  let config =
    {
      Gen.default_config with
      Gen.n_procs;
      n_locks = 1;
      ops_per_proc = (if n_procs = 3 then 2 else 3 + (seed mod 3));
    }
  in
  match seed mod 3 with
  | 0 -> Gen.random_racy ~config ~seed ()
  | 1 -> Gen.random_racefree ~config ~seed ()
  | _ -> Gen.random_racefree_ra ~config ~seed ()

let differential_sc =
  QCheck.Test.make ~count:500 ~name:"DPOR behaviours = naive behaviours (SC)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generated_program seed in
      let naive = Enumerate.explore ~limit:2_000_000 (mk p) in
      let dpor = Dpor.explore ~limit:2_000_000 ~model:Model.SC (mk p) in
      if not (naive.Enumerate.complete && dpor.Dpor.complete) then
        QCheck.Test.fail_reportf "%s (seed %d): incomplete exploration"
          p.Minilang.Ast.name seed;
      if dpor.Dpor.schedules > List.length naive.Enumerate.executions then
        QCheck.Test.fail_reportf
          "%s (seed %d): DPOR explored %d schedules, naive only %d"
          p.Minilang.Ast.name seed dpor.Dpor.schedules
          (List.length naive.Enumerate.executions);
      if
        not
          (behaviours_equal
             (Enumerate.behaviours naive.Enumerate.executions)
             (Enumerate.behaviours dpor.Dpor.executions))
      then
        QCheck.Test.fail_reportf "%s (seed %d): behaviour sets differ"
          p.Minilang.Ast.name seed;
      true)

(* -- qcheck differential under a weak model --------------------------- *)

let differential_weak =
  QCheck.Test.make ~count:300 ~name:"DPOR behaviours = naive behaviours (WO)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let config =
        {
          Gen.default_config with
          Gen.n_procs = 2;
          n_locks = 1;
          ops_per_proc = 2;
        }
      in
      let p =
        match seed mod 3 with
        | 0 -> Gen.random_racy ~config ~seed ()
        | 1 -> Gen.random_racefree ~config ~seed ()
        | _ -> Gen.random_racefree_ra ~config ~seed ()
      in
      let naive =
        Enumerate.explore_weak ~limit:4_000_000 ~model:Model.WO (mk p)
      in
      let dpor =
        Dpor.explore ~max_steps:400 ~limit:4_000_000 ~model:Model.WO (mk p)
      in
      if not (naive.Enumerate.complete && dpor.Dpor.complete) then
        QCheck.Test.fail_reportf "%s (seed %d): incomplete exploration"
          p.Minilang.Ast.name seed;
      if
        not
          (behaviours_equal
             (Enumerate.behaviours naive.Enumerate.executions)
             (Enumerate.behaviours dpor.Dpor.executions))
      then
        QCheck.Test.fail_reportf "%s (seed %d): weak behaviour sets differ"
          p.Minilang.Ast.name seed;
      true)

(* -- stock programs, every model -------------------------------------- *)

(* Spinning programs never enumerate to completion (every unsatisfied
   spin schedule truncates), so the exhaustive differential covers the
   loop-free stock programs; triage tests exercise the spinning ones. *)
let rec has_loop instrs =
  List.exists
    (function
      | Minilang.Ast.While _ -> true
      | Minilang.Ast.If (_, a, b) -> has_loop a || has_loop b
      | _ -> false)
    instrs

let loop_free =
  List.filter
    (fun (_, p) ->
      not (Array.exists has_loop p.Minilang.Ast.procs))
    Programs.all

let test_stock_differential () =
  List.iter
    (fun (name, p) ->
      let naive = Enumerate.explore ~limit:500_000 (mk p) in
      let dpor = Dpor.explore ~limit:500_000 ~model:Model.SC (mk p) in
      if not (naive.Enumerate.complete && dpor.Dpor.complete) then
        Alcotest.failf "%s: incomplete enumeration" name;
      if
        not
          (behaviours_equal
             (Enumerate.behaviours naive.Enumerate.executions)
             (Enumerate.behaviours dpor.Dpor.executions))
      then Alcotest.failf "%s: SC behaviour sets differ" name;
      if dpor.Dpor.schedules > List.length naive.Enumerate.executions then
        Alcotest.failf "%s: DPOR explored more schedules than naive" name)
    loop_free

let test_stock_weak () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun model ->
          let naive =
            Enumerate.explore_weak ~limit:500_000 ~model (mk p)
          in
          let dpor = Dpor.explore ~max_steps:400 ~limit:500_000 ~model (mk p) in
          if not (naive.Enumerate.complete && dpor.Dpor.complete) then
            Alcotest.failf "%s under %s: incomplete enumeration" name
              (Model.name model);
          if
            not
              (behaviours_equal
                 (Enumerate.behaviours naive.Enumerate.executions)
                 (Enumerate.behaviours dpor.Dpor.executions))
          then
            Alcotest.failf "%s under %s: behaviour sets differ" name
              (Model.name model))
        [ Model.TSO; Model.WO ])
    [
      ("fig1a", Programs.fig1a);
      ("mp_data_flag", Programs.mp_data_flag);
      ("unguarded_handoff", Programs.unguarded_handoff);
      ("disjoint", Programs.disjoint);
    ]

(* DPOR must be a strict improvement somewhere: on the disjoint program
   the processors touch disjoint locations, so DPOR should explore
   exponentially fewer schedules than the naive enumerator. *)
let test_reduction () =
  let p = Programs.disjoint in
  let naive = Enumerate.explore ~limit:500_000 (mk p) in
  let dpor = Dpor.explore ~limit:500_000 ~model:Model.SC (mk p) in
  Alcotest.(check bool) "naive complete" true naive.Enumerate.complete;
  Alcotest.(check bool) "dpor complete" true dpor.Dpor.complete;
  let n = List.length naive.Enumerate.executions in
  if dpor.Dpor.schedules * 2 > n then
    Alcotest.failf "expected >=2x reduction: naive %d, dpor %d" n
      dpor.Dpor.schedules

(* -- candidate triage --------------------------------------------------- *)

(* [dune runtest] runs the binary in the stanza directory; [dune exec]
   runs it wherever the user stands — try both roots. *)
let parse_example file =
  let candidates =
    [
      Filename.concat "../../examples/programs" file;
      Filename.concat "examples/programs" file;
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "example %s not found" file
  in
  match Minilang.Parser.parse_file path with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %s: %s" path e

(* mp.race: plain message passing, both static candidates are real races.
   Every verdict must be CONFIRMED, the witness race must match its
   candidate, and every witness must survive the on-disk round trip
   (write as a v2 trace, decode, re-analyze, same race endpoints). *)
let test_triage_confirmed () =
  let p = parse_example "mp.race" in
  let r = Triage.run ~jobs:1 p in
  Alcotest.(check int) "exit code" 2 (Triage.exit_code r);
  Alcotest.(check bool) "has data candidates" true (r.Triage.data <> []);
  List.iter
    (fun v ->
      if v.Triage.status <> Triage.Confirmed then
        Alcotest.failf "mp.race candidate not confirmed";
      let w = Option.get v.Triage.witness in
      Alcotest.(check bool)
        "witness race matches the candidate" true
        (Triage.match_race v.Triage.pair w.Triage.analysis <> None);
      let path = Filename.temp_file "witness" ".trace" in
      (match Triage.write_witness r path w with
      | Ok () -> ()
      | Error e -> Alcotest.failf "witness round trip: %s" e);
      Sys.remove path)
    r.Triage.data

(* Witness minimality: no proper prefix of the schedule still exhibits
   the race when replayed (with buffers drained). *)
let test_witness_minimal () =
  let p = parse_example "sb.race" in
  let r = Triage.run ~jobs:1 p in
  List.iter
    (fun v ->
      let w = Option.get v.Triage.witness in
      let sched = w.Triage.schedule in
      let n = List.length sched in
      for k = 0 to n - 1 do
        let prefix = List.filteri (fun i _ -> i < k) sched in
        let m = Memsim.Machine.create ~model:Model.SC (mk p ()) in
        List.iter (Memsim.Machine.perform m) prefix;
        if not (Memsim.Machine.finished m) then
          Memsim.Machine.set_truncated m;
        Memsim.Machine.force_drain m;
        let a =
          Postmortem.analyze_execution (Memsim.Machine.to_execution m)
        in
        if Triage.match_race v.Triage.pair a <> None then
          Alcotest.failf "a %d-step prefix of the %d-step witness confirms"
            k n
      done)
    r.Triage.data

(* mp_fixed.race: lint proves it race-free, so triage has nothing to do
   and the exit code is 0. *)
let test_triage_nothing () =
  let p = parse_example "mp_fixed.race" in
  let r = Triage.run ~jobs:1 p in
  Alcotest.(check int) "no data candidates" 0 (List.length r.Triage.data);
  Alcotest.(check int) "exit code" 0 (Triage.exit_code r)

(* queue_bug carries the paper's real bug (CONFIRMED pairs) and two
   stale-address candidates the abstract interpreter cannot rule out;
   the exploration is complete within the default bounds, so those come
   back REFUTED. *)
let test_triage_refuted () =
  let r = Triage.run ~jobs:1 (Programs.queue_bug ()) in
  let statuses = List.map (fun v -> v.Triage.status) r.Triage.data in
  Alcotest.(check bool) "some confirmed" true
    (List.mem Triage.Confirmed statuses);
  Alcotest.(check bool) "some refuted" true
    (List.mem Triage.Refuted statuses);
  List.iter
    (fun v ->
      if v.Triage.status = Triage.Refuted && not v.Triage.complete then
        Alcotest.failf "REFUTED verdict from an incomplete exploration")
    r.Triage.data;
  Alcotest.(check int) "exit code" 2 (Triage.exit_code r)

(* Differential: triage verdicts against exhaustive naive ground truth.
   On loop-free generated programs the exploration always completes, so
   triage must exit 2 exactly on the dynamically racy programs and 0 on
   the race-free ones, and every REFUTED pair must indeed race in no
   execution at all. *)
let triage_differential =
  QCheck.Test.make ~count:100
    ~name:"triage agrees with exhaustive ground truth"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = generated_program seed in
      let naive = Enumerate.explore ~limit:2_000_000 (mk p) in
      if not naive.Enumerate.complete then
        QCheck.Test.fail_reportf "%s (seed %d): naive incomplete"
          p.Minilang.Ast.name seed;
      let analyses =
        List.map Postmortem.analyze_execution naive.Enumerate.executions
      in
      let racy =
        List.exists
          (fun a ->
            List.exists (fun r -> r.Race.is_data) a.Postmortem.races)
          analyses
      in
      let rep = Triage.run ~jobs:1 ~max_steps:2_000 ~limit:200_000 p in
      let code = Triage.exit_code rep in
      if racy && code <> 2 then
        QCheck.Test.fail_reportf "%s (seed %d): racy but triage exit %d"
          p.Minilang.Ast.name seed code;
      if (not racy) && code <> 0 then
        QCheck.Test.fail_reportf
          "%s (seed %d): race-free but triage exit %d" p.Minilang.Ast.name
          seed code;
      List.iter
        (fun v ->
          if v.Triage.status = Triage.Refuted then
            List.iter
              (fun a ->
                if Triage.match_race v.Triage.pair a <> None then
                  QCheck.Test.fail_reportf
                    "%s (seed %d): REFUTED pair races in some execution"
                    p.Minilang.Ast.name seed)
              analyses)
        rep.Triage.data;
      true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "explore"
    [
      ( "differential",
        qsuite [ differential_sc; differential_weak ]
        @ [
            Alcotest.test_case "stock SC" `Quick test_stock_differential;
            Alcotest.test_case "stock weak" `Quick test_stock_weak;
            Alcotest.test_case "reduction" `Quick test_reduction;
          ] );
      ( "triage",
        qsuite [ triage_differential ]
        @ [
            Alcotest.test_case "mp confirmed" `Quick test_triage_confirmed;
            Alcotest.test_case "witness minimal" `Quick test_witness_minimal;
            Alcotest.test_case "mp_fixed nothing to triage" `Quick
              test_triage_nothing;
            Alcotest.test_case "queue_bug refuted" `Quick test_triage_refuted;
          ] );
    ]
