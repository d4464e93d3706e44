(* Benchmark & figure-reproduction harness.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig2 perf  -- selected sections

   One section per paper artifact (DESIGN.md's experiment index):
     fig1a    E1  Figure 1a — data races let weak hardware violate SC
     fig1b    E2  Figure 1b — data-race-free executions are SC everywhere
     fig2     E3  Figure 2  — the queue bug's non-SC data races
     fig3     E4  Figure 3  — first / non-first race partitions
     cond34   E5  Condition 3.4 & Theorem 3.5 Monte-Carlo
     thm41-42 E6  Theorems 4.1 and 4.2 Monte-Carlo
     overhead E7  §5 overhead claims (traces, buffers, SC-mode cost, accuracy)
     envelope     exhaustive schedule/behaviour spaces per model (incl. TSO)
     ablation     schedulers, detector baselines, so1 reconstruction
     coherence    everything again on the delayed-invalidation machine
     perf         bechamel microbenchmarks of the analysis pipeline

   The paper has no quantitative tables; the tables printed here are the
   mechanical counterparts of its worked figures and theorem statements.
   EXPERIMENTS.md records paper-vs-measured for each. *)

let section_header title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

(* Monte-Carlo sections fan their seed ranges out over this many domains
   (-j/--jobs; 1 = serial).  Workers only compute — all aggregation and
   printing stays in the main domain — so the output is identical for
   every job count. *)
let jobs = ref 1

(* --quick: CI smoke mode — shorter bechamel quotas, and the perf section
   fails (exit 1) if the epoch race engine regresses below the vector
   baseline instead of merely recording the ratio *)
let quick = ref false

let run_weak ?(sched = `Adversarial) ~model ~seed p =
  let sched =
    match sched with
    | `Adversarial -> Memsim.Sched.adversarial ~seed ()
    | `Random -> Memsim.Sched.random ~seed
  in
  Minilang.Interp.run ~model ~sched p

let value_of_label (e : Memsim.Exec.t) label =
  Array.to_list e.Memsim.Exec.ops
  |> List.find_map (fun (o : Memsim.Op.t) ->
         if o.Memsim.Op.label = Some label then Some o.Memsim.Op.value else None)

(* ================================================================== *)
(* E1: Figure 1a                                                       *)
(* ================================================================== *)

let fig1a () =
  section_header
    "E1 (Figure 1a): P1 writes x then y; P2 reads y then x; no synchronization";
  Format.printf
    "paper: the execution has data races; on a weak system the new y can@.\
     propagate before the new x, so P2 may read (y=1, x=0) — impossible under SC.@.@.";
  let p = Minilang.Programs.fig1a in
  let outcome e = (value_of_label e "P2:read-y", value_of_label e "P2:read-x") in
  (* SC: enumerate everything *)
  let sc = Memsim.Enumerate.explore (fun () -> Minilang.Interp.source p) in
  let sc_outcomes =
    List.map outcome sc.Memsim.Enumerate.executions |> List.sort_uniq compare
  in
  Format.printf "%-6s %-28s %s@." "model" "outcomes (y,x) over schedules" "(1,0) seen?";
  let show_outcomes os =
    String.concat " "
      (List.map
         (function
           | Some a, Some b -> Printf.sprintf "(%d,%d)" a b
           | _ -> "(?)")
         os)
  in
  Format.printf "%-6s %-28s %b   [%d interleavings, exhaustive]@." "SC"
    (show_outcomes sc_outcomes)
    (List.mem (Some 1, Some 0) sc_outcomes)
    (List.length sc.Memsim.Enumerate.executions);
  List.iter
    (fun model ->
      let outcomes =
        List.init 300 (fun seed -> outcome (run_weak ~model ~seed p))
        |> List.sort_uniq compare
      in
      Format.printf "%-6s %-28s %b%s@." (Memsim.Model.name model) (show_outcomes outcomes)
        (List.mem (Some 1, Some 0) outcomes)
        (if model = Memsim.Model.TSO then "   [comparator: FIFO buffer forbids it]"
         else ""))
    (Memsim.Model.TSO :: Memsim.Model.weak);
  (* and the detector flags the race on every model *)
  let detected =
    List.for_all
      (fun model ->
        not
          (Racedetect.Postmortem.race_free
             (Racedetect.Postmortem.analyze_execution (run_weak ~model ~seed:1 p))))
      Memsim.Model.all
  in
  Format.printf "@.data race reported on every model: %b@." detected

(* ================================================================== *)
(* E2: Figure 1b                                                       *)
(* ================================================================== *)

let fig1b () =
  section_header
    "E2 (Figure 1b): the same writes published with Unset / spinning Test&Set";
  Format.printf
    "paper: the execution is data-race-free, so every weak model must appear@.\
     sequentially consistent: P2 always reads (y=1, x=1) after acquiring s.@.@.";
  let p = Minilang.Programs.fig1b in
  Format.printf "%-6s %-22s %-12s %s@." "model" "outcomes (600 runs)" "race-free?"
    "always SC?";
  List.iter
    (fun model ->
      let runs =
        Engine.Parbatch.map_seeds ~jobs:!jobs 600 (fun seed ->
            let e = run_weak ~model ~seed p in
            ( (value_of_label e "P2:read-y", value_of_label e "P2:read-x"),
              Racedetect.Postmortem.race_free (Racedetect.Postmortem.analyze_execution e) ))
      in
      let os = Array.to_list runs |> List.map fst |> List.sort_uniq compare in
      let race_free = Array.for_all snd runs in
      Format.printf "%-6s %-22s %-12b %b@." (Memsim.Model.name model)
        (String.concat " "
           (List.map
              (function
                | Some a, Some b -> Printf.sprintf "(%d,%d)" a b
                | _ -> "(?)")
              os))
        race_free
        (os = [ (Some 1, Some 1) ]))
    Memsim.Model.all

(* ================================================================== *)
(* E3: Figure 2                                                        *)
(* ================================================================== *)

let region = 100
let stale = 37

let find_stale_execution ~model =
  let p = Minilang.Programs.queue_bug ~region ~stale () in
  let rec go seed =
    if seed > 50_000 then None
    else
      let e = run_weak ~model ~seed p in
      if
        value_of_label e "P2:read-qempty" = Some 0
        && value_of_label e "P2:dequeue" = Some stale
      then Some (seed, e)
      else go (seed + 1)
  in
  go 0

let fig2 () =
  section_header "E3 (Figure 2): the queue program with the missing Test&Set";
  Format.printf
    "paper: on a weak system P2 can find QEmpty reset yet dequeue the stale@.\
     address 37 instead of 100, so its work region overlaps P3's and many@.\
     non-sequentially-consistent data races appear.@.@.";
  List.iter
    (fun model ->
      match find_stale_execution ~model with
      | None -> Format.printf "%-6s anomaly not found in 50k schedules@." (Memsim.Model.name model)
      | Some (seed, e) ->
        let a = Racedetect.Postmortem.analyze_execution e in
        let all = Racedetect.Postmortem.data_races a in
        let reported = Racedetect.Postmortem.reported_races a in
        let op_level =
          List.length (Racedetect.Ophb.data_races (Racedetect.Ophb.build e))
        in
        Format.printf
          "%-6s seed %-6d dequeued %d; naive: %d event / %d op-level data races; reported: %d first-partition race(s)@."
          (Memsim.Model.name model) seed
          (Option.value ~default:(-1) (value_of_label e "P2:dequeue"))
          (List.length all) op_level (List.length reported))
    Memsim.Model.weak;
  (* the paper's point of comparison: under SC the stale dequeue can never
     happen (QEmpty=0 implies Q=100) *)
  let p = Minilang.Programs.queue_bug ~region:3 ~stale:1 () in
  let sc = Memsim.Enumerate.explore ~limit:5_000_000 (fun () -> Minilang.Interp.source p) in
  let stale_seen =
    List.exists
      (fun e ->
        value_of_label e "P2:read-qempty" = Some 0
        && value_of_label e "P2:dequeue" = Some 1)
      sc.Memsim.Enumerate.executions
  in
  Format.printf
    "@.SC check (region=3, exhaustive %d interleavings%s): stale dequeue possible: %b@."
    (List.length sc.Memsim.Enumerate.executions)
    (if sc.Memsim.Enumerate.complete then "" else ", truncated")
    stale_seen

(* ================================================================== *)
(* E4: Figure 3                                                        *)
(* ================================================================== *)

let fig3 () =
  section_header "E4 (Figure 3): augmented hb1 graph, first and non-first partitions";
  match find_stale_execution ~model:Memsim.Model.WO with
  | None -> Format.printf "anomaly not found@."
  | Some (_, e) ->
    let a = Racedetect.Postmortem.analyze_execution e in
    let p = Minilang.Programs.queue_bug ~region ~stale () in
    Format.printf "%a@."
      (Racedetect.Report.pp_analysis ~loc_name:(Minilang.Ast.loc_name p))
      a;
    let parts = Racedetect.Partition.partitions a.Racedetect.Postmortem.partitions in
    let first = Racedetect.Partition.first_partitions a.Racedetect.Postmortem.partitions in
    let g' = Oracle.Closure.augmented a.Racedetect.Postmortem.augmented in
    Format.printf
      "@.partitions with data races: %d; first: %d; ordering edges (Def 4.1):@."
      (List.length parts) (List.length first);
    List.iter
      (fun p1 ->
        List.iter
          (fun p2 ->
            if Oracle.Closure.ordered_before g' p1 p2 then
              Format.printf "  partition #%d  P  partition #%d@."
                p1.Racedetect.Partition.component p2.Racedetect.Partition.component)
          parts)
      parts;
    Format.printf
      "@.paper: the Q/QEmpty races form the first partition; the work-region@.\
       races of P2 x P3 are ordered after it and suppressed.  Reproduced.@."

(* ================================================================== *)
(* E5: Condition 3.4 / Theorem 3.5                                     *)
(* ================================================================== *)

let cond34 () =
  section_header "E5 (Condition 3.4 / Theorem 3.5): weak hardware obeys it for free";
  Format.printf
    "paper: every weak implementation provides an SCP covering the first data@.\
     races, and race-free executions are sequentially consistent.  We verify@.\
     both clauses against exhaustive SC enumeration.@.@.";
  let programs =
    List.map (fun s -> ("racefree", Minilang.Gen.random_racefree ~seed:s ())) [ 1; 2; 3; 4; 5 ]
    @ List.map (fun s -> ("rfree-ra", Minilang.Gen.random_racefree_ra ~seed:s ())) [ 1; 2; 3 ]
    @ List.map (fun s -> ("racy", Minilang.Gen.random_racy ~seed:s ())) [ 1; 2; 3; 4; 5 ]
    @ [ ("stock", Minilang.Programs.fig1a); ("stock", Minilang.Programs.dekker);
        ("stock", Minilang.Programs.unguarded_handoff);
        ("stock", Minilang.Programs.guarded_handoff);
        ("stock", Minilang.Programs.mp_data_flag) ]
  in
  let seeds = List.init 6 (fun s -> s) in
  Format.printf "%-9s %-12s %8s %8s %8s %8s@." "kind" "program" "checks" "holds"
    "clause1" "clause2";
  let grand_total = ref 0 and grand_holds = ref 0 in
  List.iter
    (fun (kind, p) ->
      let pool =
        (Memsim.Enumerate.explore ~limit:500_000 (fun () -> Minilang.Interp.source p))
          .Memsim.Enumerate.executions
      in
      let cases =
        Array.of_list
          (List.concat_map
             (fun model -> List.map (fun seed -> (model, seed)) seeds)
             Memsim.Model.weak)
      in
      let verdicts =
        Engine.Parbatch.map ~jobs:!jobs
          (fun (model, seed) -> Racedetect.Condition.check ~sc:pool (run_weak ~model ~seed p))
          cases
      in
      let count f = Array.fold_left (fun acc v -> if f v then acc + 1 else acc) 0 verdicts in
      let total = Array.length verdicts in
      let holds = count (fun v -> v.Racedetect.Condition.holds) in
      let c1 = count (fun v -> v.Racedetect.Condition.cond1 = Racedetect.Condition.Holds) in
      let c2 = count (fun v -> v.Racedetect.Condition.cond2 = Racedetect.Condition.Holds) in
      grand_total := !grand_total + total;
      grand_holds := !grand_holds + holds;
      let short n = if String.length n > 12 then String.sub n 0 12 else n in
      Format.printf "%-9s %-12s %8d %8d %8d %8d@." kind (short p.Minilang.Ast.name)
        total holds c1 c2)
    programs;
  Format.printf "@.Condition 3.4 held on %d / %d weak executions@." !grand_holds
    !grand_total

(* ================================================================== *)
(* E6: Theorems 4.1 and 4.2                                            *)
(* ================================================================== *)

let thm41_42 () =
  section_header "E6 (Theorems 4.1 / 4.2): first partitions";
  Format.printf
    "4.1: no first partitions with data races iff no data races occurred.@.\
     4.2: every first partition contains a data race belonging to an SCP.@.@.";
  let module Iset = Set.Make (Int) in
  (* stage 1: SC ground-truth pools, one per random program, in parallel *)
  let pools =
    Engine.Parbatch.map_list ~jobs:!jobs
      (fun pseed ->
        let p =
          if pseed mod 2 = 0 then Minilang.Gen.random_racy ~seed:pseed ()
          else Minilang.Gen.random_racefree ~seed:pseed ()
        in
        let pool =
          (Memsim.Enumerate.explore ~limit:500_000 (fun () -> Minilang.Interp.source p))
            .Memsim.Enumerate.executions
        in
        (p, pool))
      (List.init 8 (fun s -> s + 1))
  in
  (* stage 2: every (program, model, seed) check is independent *)
  let cases =
    Array.of_list
      (List.concat_map
         (fun (p, pool) ->
           List.concat_map
             (fun model ->
               List.map (fun seed -> (p, pool, model, seed)) (List.init 5 (fun s -> s)))
             Memsim.Model.weak)
         pools)
  in
  let tallies =
    Engine.Parbatch.map ~jobs:!jobs
      (fun (p, pool, model, seed) ->
        let e = run_weak ~model ~seed p in
        let a = Racedetect.Postmortem.analyze_execution e in
        let races = Racedetect.Postmortem.data_races a <> [] in
        let first = Racedetect.Postmortem.first_partitions a in
        let t41 = if races = (first <> []) then 1 else 0 in
        if first = [] then (t41, 0, 0)
        else
          let v = Racedetect.Condition.check ~sc:pool e in
          match v.Racedetect.Condition.scp_witness with
          | None -> (t41, List.length first, 0)
          | Some scp ->
            let s = Iset.of_list scp in
            let ophb = Racedetect.Ophb.build e in
            let trace = a.Racedetect.Postmortem.trace in
            let ops_of eid =
              match trace.Tracing.Trace.events.(eid).Tracing.Event.body with
              | Tracing.Event.Computation { ops; _ } -> ops
              | Tracing.Event.Sync { op; _ } -> [ op ]
            in
            let ok =
              List.fold_left
                (fun acc (part : Racedetect.Partition.partition) ->
                  let has_scp_race =
                    List.exists
                      (fun (race : Racedetect.Race.t) ->
                        List.exists
                          (fun (x : Memsim.Op.t) ->
                            List.exists
                              (fun (y : Memsim.Op.t) ->
                                Memsim.Op.conflict x y
                                && (Memsim.Op.is_data x.Memsim.Op.cls
                                    || Memsim.Op.is_data y.Memsim.Op.cls)
                                && (not
                                      (Racedetect.Ophb.ordered ophb x.Memsim.Op.id
                                         y.Memsim.Op.id))
                                && Iset.mem x.Memsim.Op.id s
                                && Iset.mem y.Memsim.Op.id s)
                              (ops_of race.Racedetect.Race.b))
                          (ops_of race.Racedetect.Race.a))
                      part.Racedetect.Partition.races
                  in
                  if has_scp_race then acc + 1 else acc)
                0 first
            in
            (t41, List.length first, ok))
      cases
  in
  let checks = ref 0 and t41 = ref 0 and t42_parts = ref 0 and t42_ok = ref 0 in
  Array.iter
    (fun (a, parts, ok) ->
      incr checks;
      t41 := !t41 + a;
      t42_parts := !t42_parts + parts;
      t42_ok := !t42_ok + ok)
    tallies;
  Format.printf "Theorem 4.1: held on %d / %d executions@." !t41 !checks;
  Format.printf "Theorem 4.2: %d / %d first partitions contained an SCP race@." !t42_ok
    !t42_parts

(* ================================================================== *)
(* E7: overheads (§5)                                                  *)
(* ================================================================== *)

let overhead () =
  section_header "E7 (§5): overheads — tracing, analysis, and the cost of an SC mode";
  (* 1. trace size: event-level vs op-level *)
  Format.printf "trace size: event-level (bit-vector READ/WRITE sets) vs op-level@.@.";
  Format.printf "%-10s %10s %12s %12s %8s@." "region" "ops" "event-bytes" "op-bytes"
    "ratio";
  List.iter
    (fun region ->
      let p = Minilang.Programs.queue_bug ~region () in
      let e = run_weak ~model:Memsim.Model.WO ~seed:3 p in
      let t = Tracing.Trace.of_execution e in
      let ev = Tracing.Trace.stats_bytes_event_level t in
      let op = Tracing.Trace.stats_bytes_op_level t in
      Format.printf "%-10d %10d %12d %12d %7.1fx@." region (Memsim.Exec.n_ops e) ev op
        (float_of_int op /. float_of_int ev))
    [ 25; 50; 100; 200; 400 ];
  (* 2. the cost of a slow SC debug mode *)
  Format.printf
    "@.simulated cycles for the same instruction streams (write latency 20):@.@.";
  Format.printf "%-18s %10s %10s %10s %10s@." "workload" "SC-mode" "WO" "RCsc"
    "SC/WO";
  List.iter
    (fun (name, p, model, seed) ->
      let e = run_weak ~model ~seed p in
      let sc = (Memsim.Cost.estimate ~mode:Memsim.Model.SC e).Memsim.Cost.makespan in
      let wo = (Memsim.Cost.estimate ~mode:Memsim.Model.WO e).Memsim.Cost.makespan in
      let rc = (Memsim.Cost.estimate ~mode:Memsim.Model.RCsc e).Memsim.Cost.makespan in
      Format.printf "%-18s %10d %10d %10d %9.1fx@." name sc wo rc
        (float_of_int sc /. float_of_int wo))
    [
      ("queue_bug(100)", Minilang.Programs.queue_bug ~region:100 (), Memsim.Model.WO, 3);
      ("queue_bug(400)", Minilang.Programs.queue_bug ~region:400 (), Memsim.Model.WO, 3);
      ("counter_locked", Minilang.Programs.counter_locked, Memsim.Model.RCsc, 1);
      ("fig1b", Minilang.Programs.fig1b, Memsim.Model.WO, 1);
    ];
  (* 3. store-buffer behaviour under increasingly adversarial schedules *)
  Format.printf
    "@.store-buffer statistics on queue_bug(100), WO, by retirement bias:@.@.";
  Format.printf "%-22s %10s %12s %12s@." "scheduler" "peak-buf" "avg-delay" "retires";
  List.iter
    (fun (name, mk) ->
      let peak = ref 0 and delay = ref 0 and retires = ref 0 and buffered = ref 0 in
      for seed = 0 to 39 do
        let _, st =
          Memsim.Machine.run_with_stats ~model:Memsim.Model.WO ~sched:(mk seed)
            (Minilang.Interp.source (Minilang.Programs.queue_bug ~region:100 ()))
        in
        peak := max !peak st.Memsim.Machine.max_buffer;
        delay := !delay + st.Memsim.Machine.delay_total;
        retires := !retires + st.Memsim.Machine.retires;
        buffered := !buffered + st.Memsim.Machine.buffered_writes
      done;
      Format.printf "%-22s %10d %12.1f %12d@." name !peak
        (float_of_int !delay /. float_of_int (max 1 !buffered))
        !retires)
    [
      ("eager", fun seed -> Memsim.Sched.eager ~seed);
      ("random", fun seed -> Memsim.Sched.random ~seed);
      ("adversarial bias=4", fun seed -> Memsim.Sched.adversarial ~retire_bias:4 ~seed ());
      ("adversarial bias=16", fun seed -> Memsim.Sched.adversarial ~retire_bias:16 ~seed ());
    ];

  (* 4. post-mortem vs on-the-fly accuracy *)
  Format.printf
    "@.accuracy: op-level hb1 races vs on-the-fly (last-access buffering):@.@.";
  Format.printf "%-8s %10s %12s %10s %8s@." "config" "execs" "hb1-races" "otf-found"
    "missed";
  List.iter
    (fun (tag, cfg) ->
      let execs = ref 0 and truth = ref 0 and found = ref 0 in
      for seed = 1 to 60 do
        let p = Minilang.Gen.random_racy ~config:cfg ~seed () in
        let e = run_weak ~sched:`Random ~model:Memsim.Model.WO ~seed p in
        let t = Racedetect.Ophb.data_races (Racedetect.Ophb.build e) in
        let o = Oracle.Onthefly.race_pairs (Oracle.Onthefly.detect e) in
        incr execs;
        truth := !truth + List.length t;
        found := !found + List.length (List.filter (fun pr -> List.mem pr t) o)
      done;
      Format.printf "%-8s %10d %12d %10d %8d@." tag !execs !truth !found
        (!truth - !found))
    [
      ("small", Minilang.Gen.default_config);
      ( "medium",
        { Minilang.Gen.n_procs = 3; n_shared = 4; n_locks = 2; ops_per_proc = 8;
          sync_freq = 4 } );
      ( "large",
        { Minilang.Gen.n_procs = 4; n_shared = 6; n_locks = 3; ops_per_proc = 16;
          sync_freq = 5 } );
    ];
  Format.printf
    "@.(every on-the-fly report is a true race — soundness is checked by the@.\
    \ test suite; the missed ones are overwritten accesses, the accuracy loss@.\
    \ the paper attributes to on-the-fly buffering)@."

(* ================================================================== *)
(* envelope: exhaustive behaviour spaces                               *)
(* ================================================================== *)

let envelope () =
  section_header
    "envelope: exhaustive schedule/behaviour counts per model (litmus programs)";
  Format.printf
    "every schedule of every model is enumerated; 'behaviours' dedups by@.per-processor operation sequences and read values.@.@.";
  Format.printf "%-18s %-6s %10s %12s %10s@." "program" "model" "schedules"
    "behaviours" "racy-bhv";
  List.iter
    (fun p ->
      let rows model =
        let r =
          match model with
          | Memsim.Model.SC ->
            Memsim.Enumerate.explore ~limit:2_000_000 (fun () -> Minilang.Interp.source p)
          | m ->
            Memsim.Enumerate.explore_weak ~limit:2_000_000 ~model:m (fun () ->
                Minilang.Interp.source p)
        in
        let behaviours = Memsim.Enumerate.behaviours r.Memsim.Enumerate.executions in
        let racy =
          List.filter
            (fun e ->
              Racedetect.Postmortem.data_races (Racedetect.Postmortem.analyze_execution e)
              <> [])
            behaviours
        in
        Format.printf "%-18s %-6s %9d%s %12d %10d@." p.Minilang.Ast.name
          (Memsim.Model.name model)
          (List.length r.Memsim.Enumerate.executions)
          (if r.Memsim.Enumerate.complete then "" else "+")
          (List.length behaviours) (List.length racy)
      in
      List.iter rows [ Memsim.Model.SC; Memsim.Model.TSO; Memsim.Model.WO; Memsim.Model.RCsc ])
    [
      Minilang.Programs.fig1a;
      Minilang.Programs.dekker;
      Minilang.Programs.unguarded_handoff;
      Minilang.Programs.guarded_handoff;
      Minilang.Programs.mp_data_flag;
      Minilang.Programs.mp_release_acquire;
      Minilang.Programs.disjoint;
    ];
  Format.printf
    "@.(WO and RCsc admit more behaviours than SC exactly on the racy programs;@.the data-race-free ones collapse to their SC behaviour sets — the DRF@.guarantee, verified over the entire envelope)@."

(* ================================================================== *)
(* ablation: design-choice studies                                     *)
(* ================================================================== *)

let ablation () =
  section_header "ablation: schedulers, detectors, and so1 reconstruction";

  (* 1. how schedule adversarialness drives anomaly discovery *)
  Format.printf
    "anomaly discovery rate on WO vs scheduling strategy (400 seeds each):@.@.";
  Format.printf "%-22s %16s %18s@." "scheduler" "fig1a (1,0)" "queue stale-deq";
  let queue_p = Minilang.Programs.queue_bug ~region:20 ~stale:7 () in
  let fig1a_hit e =
    (value_of_label e "P2:read-y", value_of_label e "P2:read-x") = (Some 1, Some 0)
  in
  let queue_hit e =
    value_of_label e "P2:read-qempty" = Some 0 && value_of_label e "P2:dequeue" = Some 7
  in
  List.iter
    (fun (name, mk) ->
      let count p hit =
        List.length
          (List.filter
             (fun seed ->
               hit
                 (Minilang.Interp.run ~model:Memsim.Model.WO ~sched:(mk seed) p))
             (List.init 400 (fun s -> s)))
      in
      Format.printf "%-22s %12d/400 %14d/400@." name
        (count Minilang.Programs.fig1a fig1a_hit)
        (count queue_p queue_hit))
    [
      ("eager", fun seed -> Memsim.Sched.eager ~seed);
      ("random", fun seed -> Memsim.Sched.random ~seed);
      ("adversarial bias=16", fun seed -> Memsim.Sched.adversarial ~retire_bias:16 ~seed ());
      ("adversarial bias=4", fun seed -> Memsim.Sched.adversarial ~retire_bias:4 ~seed ());
      ("adversarial bias=2", fun seed -> Memsim.Sched.adversarial ~retire_bias:2 ~seed ());
    ];

  (* 2. detector comparison: exact hb1 vs on-the-fly vs lockset *)
  Format.printf
    "@.detector comparison (executions flagged, 60 WO schedules each):@.@.";
  let ra_pingpong =
    let open Minilang.Build in
    program ~name:"ra_pingpong" ~locs:[ "data"; "flag" ]
      [
        [ store "data" (i 1); release_store "flag" (i 1) ];
        [
          acquire_load "f" "flag";
          if_ (r "f" =: i 1) [ store "data" (i 2) ] [];
        ];
      ]
  in
  Format.printf "%-18s %12s %12s %12s   %s@." "program" "hb1" "on-the-fly" "lockset"
    "ground truth";
  List.iter
    (fun (p, truth) ->
      let hb = ref 0 and otf = ref 0 and ls = ref 0 in
      for seed = 0 to 59 do
        let e = run_weak ~model:Memsim.Model.WO ~seed p in
        let a = Racedetect.Postmortem.analyze_execution e in
        if Racedetect.Postmortem.data_races a <> [] then incr hb;
        if Oracle.Onthefly.detect e <> [] then incr otf;
        if Oracle.Lockset.check e <> [] then incr ls
      done;
      Format.printf "%-18s %9d/60 %9d/60 %9d/60   %s@." p.Minilang.Ast.name !hb !otf
        !ls truth)
    [
      (Minilang.Programs.counter_locked, "race-free");
      (Minilang.Programs.barrier_phases (), "race-free");
      (ra_pingpong, "race-free (flag sync; lockset false alarms)");
      (Minilang.Programs.counter_racy, "racy");
      (Minilang.Programs.peterson, "racy");
      (Minilang.Programs.lazy_init, "racy");
      (Minilang.Programs.mp_data_flag, "racy (only when branch taken)");
    ];

  (* 3. so1: recorded pairing vs post-mortem reconstruction *)
  Format.printf "@.so1 reconstruction from the per-location sync order alone:@.@.";
  let agree = ref 0 and total = ref 0 in
  for seed = 1 to 200 do
    let p = Minilang.Gen.random_racy ~seed () in
    let e = run_weak ~model:Memsim.Model.WO ~seed p in
    let t = Tracing.Trace.of_execution e in
    let races so1 =
      Racedetect.Race.find_all (Racedetect.Hb.build ~so1 t)
      |> List.map (fun (r : Racedetect.Race.t) -> (r.Racedetect.Race.a, r.Racedetect.Race.b))
    in
    incr total;
    if races `Recorded = races `Reconstructed then incr agree
  done;
  Format.printf
    "lock-disciplined random programs: identical race sets on %d / %d executions@."
    !agree !total;
  (* the counterexample requiring the recorded pairing: a data write to a
     synchronization location can alias the release's value *)
  let mixed =
    let open Minilang.Build in
    program ~name:"mixed" ~locs:[ "x"; "f" ] ~init:[ ("f", 1) ]
      [
        [ store "x" (i 1); unset "f" ];
        [ store "f" (i 0) ];  (* data write of the same value! *)
        [ test_and_set "t" "f"; load "rx" "x" ];
      ]
  in
  let diverged = ref 0 in
  for seed = 0 to 199 do
    let e = run_weak ~model:Memsim.Model.WO ~seed mixed in
    let t = Tracing.Trace.of_execution e in
    if
      List.sort compare t.Tracing.Trace.so1
      <> List.sort compare (Tracing.Trace.so1_reconstruct t)
    then incr diverged
  done;
  Format.printf
    "mixed data/sync writes to one location: reconstruction diverged on %d / 200@.(why real tracers record which release each acquire observed)@."
    !diverged

(* ================================================================== *)
(* coherence: the delayed-invalidation machine                         *)
(* ================================================================== *)

let coherence () =
  section_header
    "coherence: the same results on a cache-coherent machine (delayed invalidations)";
  Format.printf
    "weakness here is reader-side: invalidations queue at sharers and apply@.when the scheduler says so — a different 1991 hardware mechanism than@.store buffers.  The paper's results must not care.@.@.";
  let run_c ?n_lines ?warm ~model ~seed p =
    Coherence.Cmachine.run_program ?n_lines ?warm ~model
      ~sched:(Memsim.Sched.adversarial ~seed ()) p
  in
  (* 1. figure 1a outcome envelope *)
  Format.printf "%-6s %-30s %s@." "model" "fig1a outcomes (300 seeds)" "(1,0) seen?";
  List.iter
    (fun model ->
      let outcomes =
        Engine.Parbatch.map_seeds ~jobs:!jobs 300 (fun seed ->
            let e = run_c ~model ~seed Minilang.Programs.fig1a in
            (value_of_label e "P2:read-y", value_of_label e "P2:read-x"))
        |> Array.to_list |> List.sort_uniq compare
      in
      Format.printf "%-6s %-30s %b@." (Memsim.Model.name model)
        (String.concat " "
           (List.map
              (function Some a, Some b -> Printf.sprintf "(%d,%d)" a b | _ -> "(?)")
              outcomes))
        (List.mem (Some 1, Some 0) outcomes))
    (List.filter (fun m -> not (Memsim.Model.fifo_buffer m)) Memsim.Model.all);
  (* 2. queue bug *)
  let p = Minilang.Programs.queue_bug ~region:8 ~stale:3 () in
  let hits =
    Engine.Parbatch.map_seeds ~jobs:!jobs 2000 (fun seed ->
        let e = run_c ~model:Memsim.Model.WO ~seed p in
        value_of_label e "P2:read-qempty" = Some 0
        && value_of_label e "P2:dequeue" = Some 3)
    |> Array.fold_left (fun acc hit -> if hit then acc + 1 else acc) 0
  in
  Format.printf "@.queue_bug stale dequeue: %d / 2000 adversarial schedules@." hits;
  (* 3. Condition 3.4 spot check *)
  let programs =
    [ Minilang.Programs.fig1a; Minilang.Programs.unguarded_handoff;
      Minilang.Gen.random_racy ~seed:9 () ]
  in
  let total = ref 0 and holds = ref 0 in
  List.iter
    (fun p ->
      let pool =
        (Memsim.Enumerate.explore ~limit:500_000 (fun () -> Minilang.Interp.source p))
          .Memsim.Enumerate.executions
      in
      let cases =
        Array.of_list
          (List.concat_map
             (fun model -> List.map (fun seed -> (model, seed)) (List.init 6 (fun s -> s)))
             Memsim.Model.weak)
      in
      let oks =
        Engine.Parbatch.map ~jobs:!jobs
          (fun (model, seed) ->
            (Racedetect.Condition.check ~sc:pool (run_c ~model ~seed p))
              .Racedetect.Condition.holds)
          cases
      in
      total := !total + Array.length oks;
      Array.iter (fun ok -> if ok then incr holds) oks)
    programs;
  Format.printf "Condition 3.4 on the coherent machine: %d / %d weak executions@."
    !holds !total;
  (* 4. capacity sweep: small caches evict stale lines, hiding the bug *)
  Format.printf
    "@.capacity sweep (fig1a anomaly rate over 400 seeds; smaller caches@.evict stale copies sooner, masking the weakness):@.@.";
  Format.printf "%-14s %12s %12s@." "cache lines" "(1,0) rate" "hit rate";
  List.iter
    (fun n_lines ->
      let runs =
        Engine.Parbatch.map_seeds ~jobs:!jobs 400 (fun seed ->
            let src = Minilang.Interp.source Minilang.Programs.fig1a in
            let m = Coherence.Cmachine.create ~n_lines ~model:Memsim.Model.WO src in
            let sched = Memsim.Sched.adversarial ~seed () in
            let rec loop () =
              match Coherence.Cmachine.enabled m with
              | [] -> ()
              | ds -> Coherence.Cmachine.perform m (Memsim.Sched.choose sched ds); loop ()
            in
            loop ();
            let e = Coherence.Cmachine.to_execution m in
            let hit =
              (value_of_label e "P2:read-y", value_of_label e "P2:read-x")
              = (Some 1, Some 0)
            in
            let ch = ref 0 and cm = ref 0 in
            Array.iter
              (fun (st : Coherence.Cache.stats) ->
                ch := !ch + st.Coherence.Cache.hits;
                cm := !cm + st.Coherence.Cache.misses)
              (Coherence.Cmachine.cache_stats m);
            (hit, !ch, !cm))
      in
      let hits = ref 0 and ch = ref 0 and cm = ref 0 in
      Array.iter
        (fun (hit, h, m) ->
          if hit then incr hits;
          ch := !ch + h;
          cm := !cm + m)
        runs;
      Format.printf "%-14d %9d/400 %11.2f@." n_lines !hits
        (float_of_int !ch /. float_of_int (max 1 (!ch + !cm))))
    [ 2; 1 ]

(* ================================================================== *)
(* perf: bechamel microbenchmarks                                      *)
(* ================================================================== *)

(* machine-readable perf trajectory: BENCH_perf.json, diffable across PRs *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.4f" v else "null"

let write_bench_json ~micro ~speedups ~streaming ~parallel ~exploration ~triage
    ~serve ~robust path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": 5,\n  \"microbench_ns_per_run\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
        (json_escape name) (json_float ns) (json_float r2)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  ],\n  \"speedups\": {\n";
  List.iteri
    (fun i (name, v) ->
      out "    \"%s\": %s%s\n" (json_escape name) (json_float v)
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  out "  },\n";
  let rows, vm_hwm_kb = streaming in
  out "  \"streaming\": {\n    \"vm_hwm_kb\": %s,\n    \"workloads\": [\n"
    (match vm_hwm_kb with Some kb -> string_of_int kb | None -> "null");
  List.iteri
    (fun i (name, events, batch_ns_ev, stream_ns_ev, peak, retired, forced) ->
      out
        "      {\"name\": \"%s\", \"events\": %d, \"batch_ns_per_event\": %s, \
         \"stream_ns_per_event\": %s, \"peak_live\": %d, \"retired\": %d, \
         \"forced\": %d}%s\n"
        (json_escape name) events (json_float batch_ns_ev) (json_float stream_ns_ev)
        peak retired forced
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "    ]\n  },\n";
  out "  \"exploration\": [\n";
  List.iteri
    (fun i (name, naive_n, naive_s, dpor_n, dpor_s) ->
      out
        "    {\"name\": \"enumerate-naive/%s\", \"schedules\": %d, \"wall_s\": %s},\n"
        (json_escape name) naive_n (json_float naive_s);
      out
        "    {\"name\": \"enumerate-dpor/%s\", \"schedules\": %d, \"wall_s\": %s, \"reduction\": %s}%s\n"
        (json_escape name) dpor_n (json_float dpor_s)
        (json_float (float_of_int naive_n /. float_of_int (max 1 dpor_n)))
        (if i = List.length exploration - 1 then "" else ","))
    exploration;
  out "  ],\n  \"triage\": [\n";
  List.iteri
    (fun i (name, data, confirmed, refuted, unknown, wall_s) ->
      out
        "    {\"name\": \"triage/%s\", \"data_candidates\": %d, \"confirmed\": %d, \
         \"refuted\": %d, \"unknown\": %d, \"wall_s\": %s}%s\n"
        (json_escape name) data confirmed refuted unknown (json_float wall_s)
        (if i = List.length triage - 1 then "" else ","))
    triage;
  out "  ],\n  \"serve\": [\n";
  let agg, lag, resume = serve in
  let sessions, events, wall_s, eps = agg in
  out
    "    {\"name\": \"serve/agg-throughput\", \"sessions\": %d, \"events\": %d, \
     \"wall_s\": %s, \"events_per_sec\": %s},\n"
    sessions events (json_float wall_s) (json_float eps);
  out "    {\"name\": \"serve/checkpoint-lag\", \"events_hwm\": %d},\n" lag;
  let resumed_from, resume_s = resume in
  out
    "    {\"name\": \"serve/resume-cost\", \"resumed_from_bytes\": %d, \"wall_s\": %s}\n"
    resumed_from (json_float resume_s);
  out "  ],\n  \"robust\": [\n";
  List.iteri
    (fun i (name, verdict, wall_s, schedules, witness_steps) ->
      out
        "    {\"name\": \"robust/%s\", \"verdict\": \"%s\", \"wall_s\": %s, \
         \"schedules\": %d, \"witness_steps\": %s}%s\n"
        (json_escape name) (json_escape verdict) (json_float wall_s) schedules
        (match witness_steps with Some n -> string_of_int n | None -> "null")
        (if i = List.length robust - 1 then "" else ","))
    robust;
  out "  ],\n";
  let batch, njobs, serial_s, parallel_s = parallel in
  out "  \"parallel_montecarlo\": {\"batch\": %d, \"jobs\": %d, \"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s}\n}\n"
    batch njobs (json_float serial_s) (json_float parallel_s)
    (json_float (serial_s /. parallel_s));
  close_out oc

(* peak resident set of this process, from the kernel's high-water mark *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          String.sub line 6 (String.length line - 6)
          |> String.split_on_char '\t'
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun s -> s <> "")
          |> (function n :: _ -> int_of_string_opt n | [] -> None)
        else scan ()
    in
    let r = (try scan () with Failure _ -> None) in
    close_in_noerr ic;
    r

(* a long, fully synchronized workload in the stream-ordered layout: a
   token ring where each round acquires the token, does owned work, and
   releases it.  hb1 totally orders the rounds, so §5 retirement keeps
   the live set O(procs) while the trace grows without bound. *)
let token_ring_stream ~procs ~rounds =
  let buf = Buffer.create (rounds * 96) in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt
  in
  let n_events = 3 * rounds in
  line "weakrace-trace 1";
  line "model SC";
  line "truncated 0";
  line "procs %d locs %d events %d" procs (1 + procs) n_events;
  let seq = Array.make procs 0 in
  let eid = ref 0 and slot = ref 0 in
  let prev_release = ref (-1) in
  let sync_eids = ref [] in
  for r = 0 to rounds - 1 do
    let h = r mod procs in
    let next () = let e = !eid in incr eid; e in
    let nseq () = let s = seq.(h) in seq.(h) <- s + 1; s in
    let a = next () in
    if !prev_release < 0 then line "so1 - %d" a else line "so1 %d %d" !prev_release a;
    line "event %d proc %d seq %d sync loc 0 kind R cls acquire value 1 slot %d label -"
      a h (nseq ()) !slot;
    incr slot;
    sync_eids := a :: !sync_eids;
    line "event %d proc %d seq %d comp reads - writes %d" (next ()) h (nseq ()) (1 + h);
    let rl = next () in
    line "event %d proc %d seq %d sync loc 0 kind W cls release value 1 slot %d label -"
      rl h (nseq ()) !slot;
    incr slot;
    sync_eids := rl :: !sync_eids;
    prev_release := rl
  done;
  line "syncorder 0 %s" (String.concat "," (List.rev_map string_of_int !sync_eids));
  line "end %d" n_events;
  Buffer.contents buf

let perf () =
  section_header "perf: analysis pipeline microbenchmarks (bechamel, OLS ns/run)";
  let open Bechamel in
  let mk_exec region =
    run_weak ~model:Memsim.Model.WO ~seed:3 (Minilang.Programs.queue_bug ~region ())
  in
  let exec_of_config cfg seed =
    run_weak ~sched:`Random ~model:Memsim.Model.WO ~seed
      (Minilang.Gen.random_racy ~config:cfg ~seed ())
  in
  let big_cfg =
    { Minilang.Gen.n_procs = 4; n_shared = 6; n_locks = 3; ops_per_proc = 24; sync_freq = 5 }
  in
  let huge_cfg =
    { Minilang.Gen.n_procs = 8; n_shared = 12; n_locks = 4; ops_per_proc = 100;
      sync_freq = 6 }
  in
  let xl_cfg =
    { Minilang.Gen.n_procs = 8; n_shared = 16; n_locks = 4; ops_per_proc = 400;
      sync_freq = 8 }
  in
  let e100 = mk_exec 100 and e400 = mk_exec 400 in
  let t100 = Tracing.Trace.of_execution e100 in
  let t400 = Tracing.Trace.of_execution e400 in
  let text400 = Tracing.Codec.encode t400 in
  let text400v2 =
    Tracing.Codec.encode ~version:Tracing.Codec.version_checksummed t400
  in
  let ebig = exec_of_config big_cfg 5 in
  let ehuge = exec_of_config huge_cfg 7 in
  let thuge = Tracing.Trace.of_execution ehuge in
  let txl = Tracing.Trace.of_execution (exec_of_config xl_cfg 11) in
  let hb400v = Racedetect.Hb.build t400 in
  let hb400c = Oracle.Closure.hb1 hb400v in
  let hbhugev = Racedetect.Hb.build thuge in
  let hbhugec = Oracle.Closure.hb1 hbhugev in
  let hbxlv = Racedetect.Hb.build txl in
  (* rand-8x400 plus one backward so1 pair, which closes an hb1 cycle:
     P0's first acquire paired back from the first release of another
     processor that the acquire already reaches *)
  let txl_cyclic =
    let events = txl.Tracing.Trace.events in
    let sync_kind (ev : Tracing.Event.t) =
      match ev.Tracing.Event.body with
      | Tracing.Event.Sync { op; _ } -> Some op.Memsim.Op.kind
      | Tracing.Event.Computation _ -> None
    in
    let acq =
      Array.to_list txl.Tracing.Trace.by_proc.(0)
      |> List.find (fun ev -> sync_kind ev = Some Memsim.Op.Read)
    in
    let a = acq.Tracing.Event.eid in
    let rel =
      Array.to_list events
      |> List.find (fun (ev : Tracing.Event.t) ->
             ev.Tracing.Event.proc <> 0
             && sync_kind ev = Some Memsim.Op.Write
             && Racedetect.Hb.happens_before hbxlv a ev.Tracing.Event.eid)
    in
    { txl with Tracing.Trace.so1 = (rel.Tracing.Event.eid, a) :: txl.Tracing.Trace.so1 }
  in
  let hbxlcyc = Racedetect.Hb.build txl_cyclic in
  (* the post-race stages on their own: G′ + partitions from a fixed race
     list, and the report from a finished analysis.  The spin-lock trace
     (4 processors x 20 Test&Set critical sections, WO, adversarial seed
     0: 2,032 events, ~2x10^5 sync-sync races) is the race-list-heavy
     case; rand-8x400 the data-race-heavy one. *)
  let spinlock =
    Minilang.Build.program ~name:"spinlock-4x20" ~locs:[ "counter"; "lock" ]
      (List.init 4 (fun p ->
           List.concat
             (List.init 20 (fun _ ->
                  Minilang.Programs.critical_increment
                    ~who:(Printf.sprintf "P%d" (p + 1))))))
  in
  let tspin =
    Tracing.Trace.of_execution (run_weak ~model:Memsim.Model.WO ~seed:0 spinlock)
  in
  let axl = Racedetect.Postmortem.analyze txl in
  let aspin = Racedetect.Postmortem.analyze tspin in
  let augment_partition (a : Racedetect.Postmortem.analysis) =
    Racedetect.Partition.compute
      (Racedetect.Augment.build a.Racedetect.Postmortem.hb a.Racedetect.Postmortem.races)
  in
  (* the *-closure rows time the test oracle: hb1 = the bitset closure
     of the po/so1 graph, races = its all-pairs scan, analyze = both plus
     the closure of G′ *)
  let closure_hb1 t = Oracle.Closure.hb1 (Racedetect.Hb.build t) in
  (* The queue400 races-* rows feed the epoch-vs-vector gate below.  One
     call takes tens of µs, so those fits were the gate's noisiest and
     its ratio crossed the threshold from run to run.  Each sample of
     these rows runs [races_batch] back-to-back calls; the row is divided
     back to ns per call, so it stays comparable with earlier files.
     Larger batches raise the process's peak RSS (64 added ~80 MB in full
     mode); 16 leaves the streaming section's VmHWM row where it was. *)
  let races_batch = 16 in
  let batched = Hashtbl.create 4 in
  let batched_test name f =
    Hashtbl.replace batched name races_batch;
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to races_batch do
             ignore (f ())
           done))
  in
  (* fence pipeline inputs: the delay-set rows reuse a precomputed lint
     report so they time the critical-cycle enumeration alone; the plan
     rows run the whole synthesis (lint fixpoint + delay set + greedy
     promotion rounds, each of which re-lints) *)
  let qb = Minilang.Programs.queue_bug () in
  let qb_lint = Staticcheck.Lint.analyze qb in
  let pet = Minilang.Programs.peterson in
  let pet_lint = Staticcheck.Lint.analyze pet in
  Format.printf
    "hb1 acyclic: %b (queue400), %b (random-8x100, %d events), %b (rand-8x400-cyclic); xl \
     trace: %d events@."
    (Racedetect.Hb.uses_clocks hb400v) (Racedetect.Hb.uses_clocks hbhugev)
    (Tracing.Trace.n_events thuge) (Racedetect.Hb.uses_clocks hbxlcyc)
    (Tracing.Trace.n_events txl);
  Format.printf "spin-lock trace: %d events, %d races (%d data)@."
    (Tracing.Trace.n_events tspin) (List.length aspin.Racedetect.Postmortem.races)
    (List.length (Racedetect.Postmortem.data_races aspin));
  let tests =
    [
      Test.make ~name:"simulate/queue100" (Staged.stage (fun () -> ignore (mk_exec 100)));
      Test.make ~name:"segment/queue400"
        (Staged.stage (fun () -> ignore (Tracing.Trace.of_execution e400)));
      Test.make ~name:"hb1-vclock/queue400"
        (Staged.stage (fun () -> ignore (Racedetect.Hb.build t400)));
      Test.make ~name:"hb1-closure/queue400"
        (Staged.stage (fun () -> ignore (closure_hb1 t400)));
      Test.make ~name:"hb1-vclock/rand-8x100"
        (Staged.stage (fun () -> ignore (Racedetect.Hb.build thuge)));
      Test.make ~name:"hb1-closure/rand-8x100"
        (Staged.stage (fun () -> ignore (closure_hb1 thuge)));
      Test.make ~name:"hb1-vclock/rand-8x400"
        (Staged.stage (fun () -> ignore (Racedetect.Hb.build txl)));
      Test.make ~name:"hb1-closure/rand-8x400"
        (Staged.stage (fun () -> ignore (closure_hb1 txl)));
      (* races-vclock = the test oracle's per-location pair scan over
         the clock index; races-epoch = Race.find_all, the
         epoch-compressed engine, on acyclic and cyclic hb1 alike *)
      batched_test "races-vclock/queue400" (fun () ->
          Oracle.Pairscan.races hb400v);
      batched_test "races-epoch/queue400" (fun () -> Racedetect.Race.find_all hb400v);
      batched_test "races-closure/queue400" (fun () -> Oracle.Closure.races hb400c);
      Test.make ~name:"races-vclock/rand-8x100"
        (Staged.stage (fun () -> ignore (Oracle.Pairscan.races hbhugev)));
      Test.make ~name:"races-epoch/rand-8x100"
        (Staged.stage (fun () -> ignore (Racedetect.Race.find_all hbhugev)));
      Test.make ~name:"races-closure/rand-8x100"
        (Staged.stage (fun () -> ignore (Oracle.Closure.races hbhugec)));
      Test.make ~name:"races-vclock/rand-8x400"
        (Staged.stage (fun () -> ignore (Oracle.Pairscan.races hbxlv)));
      Test.make ~name:"races-epoch/rand-8x400"
        (Staged.stage (fun () -> ignore (Racedetect.Race.find_all hbxlv)));
      Test.make ~name:"races-vclock/rand-8x400-cyclic"
        (Staged.stage (fun () -> ignore (Oracle.Pairscan.races hbxlcyc)));
      Test.make ~name:"races-epoch/rand-8x400-cyclic"
        (Staged.stage (fun () -> ignore (Racedetect.Race.find_all hbxlcyc)));
      Test.make ~name:"analyze/queue100"
        (Staged.stage (fun () -> ignore (Racedetect.Postmortem.analyze t100)));
      Test.make ~name:"analyze/queue400"
        (Staged.stage (fun () -> ignore (Racedetect.Postmortem.analyze t400)));
      Test.make ~name:"analyze/rand-8x100"
        (Staged.stage (fun () -> ignore (Racedetect.Postmortem.analyze thuge)));
      Test.make ~name:"analyze-closure/rand-8x100"
        (Staged.stage (fun () ->
             ignore (Oracle.Closure.analyze thuge)));
      Test.make ~name:"augment+partition/rand-8x400"
        (Staged.stage (fun () -> ignore (augment_partition axl)));
      Test.make ~name:"report-render/rand-8x400"
        (Staged.stage (fun () -> ignore (Racedetect.Report.to_string axl)));
      Test.make ~name:"augment+partition/spinlock-4x20"
        (Staged.stage (fun () -> ignore (augment_partition aspin)));
      (* a race-free report: microseconds, so batched like the
         queue400 races-* rows *)
      batched_test "report-render/spinlock-4x20" (fun () ->
          Racedetect.Report.to_string aspin);
      (* full pipeline under the SHB reporting order: hb1 analysis plus rf
         reconstruction and the staged-clock extras pass *)
      Test.make ~name:"shb/queue400"
        (Staged.stage (fun () ->
             ignore (Racedetect.Postmortem.analyze ~order:`Shb t400)));
      Test.make ~name:"shb/rand-8x100"
        (Staged.stage (fun () ->
             ignore (Racedetect.Postmortem.analyze ~order:`Shb thuge)));
      Test.make ~name:"onthefly/queue400"
        (Staged.stage (fun () -> ignore (Oracle.Onthefly.detect e400)));
      Test.make ~name:"onthefly/random-big"
        (Staged.stage (fun () -> ignore (Oracle.Onthefly.detect ebig)));
      Test.make ~name:"codec-encode/queue400"
        (Staged.stage (fun () -> ignore (Tracing.Codec.encode t400)));
      Test.make ~name:"codec-decode/queue400"
        (Staged.stage (fun () -> ignore (Tracing.Codec.decode text400)));
      (* v2 framing: CRC per line + epoch marks, strict vs salvage decode
         (both on undamaged input, so the costs are the framing itself) *)
      Test.make ~name:"codec-decode-v2/queue400"
        (Staged.stage (fun () -> ignore (Tracing.Codec.decode text400v2)));
      Test.make ~name:"salvage-decode/queue400"
        (Staged.stage (fun () ->
             ignore
               (Tracing.Codec.fold_salvage_string text400v2 ~init:()
                  ~f:(fun () _ -> Ok ()))));
      Test.make ~name:"ophb-races/random-big"
        (Staged.stage (fun () ->
             ignore (Racedetect.Ophb.data_races (Racedetect.Ophb.build ebig))));
      (* the static analyzer never executes anything: whole-program memory
         fixpoint + per-proc abstract interpretation + candidate pairing *)
      Test.make ~name:"lint/queue_bug"
        (Staged.stage (fun () ->
             ignore (Staticcheck.Lint.analyze (Minilang.Programs.queue_bug ()))));
      Test.make ~name:"lint/peterson"
        (Staged.stage (fun () ->
             ignore (Staticcheck.Lint.analyze Minilang.Programs.peterson)));
      Test.make ~name:"lint/barrier_phases"
        (Staged.stage (fun () ->
             ignore
               (Staticcheck.Lint.analyze (Minilang.Programs.barrier_phases ()))));
      Test.make ~name:"fence/delayset/queue_bug"
        (Staged.stage (fun () ->
             ignore (Staticcheck.Delayset.analyze qb qb_lint.Staticcheck.Lint.results)));
      Test.make ~name:"fence/delayset/peterson"
        (Staged.stage (fun () ->
             ignore
               (Staticcheck.Delayset.analyze pet pet_lint.Staticcheck.Lint.results)));
      Test.make ~name:"fence/plan/queue_bug"
        (Staged.stage (fun () -> ignore (Staticcheck.Repair.plan qb)));
      Test.make ~name:"fence/plan/peterson"
        (Staged.stage (fun () -> ignore (Staticcheck.Repair.plan pet)));
      (* knobs no named model sets (bounded buffers, stall-on-conflict
         reads), against simulate/queue100 (WO) *)
      Test.make ~name:"variants/simulate-bounded2/queue100"
        (Staged.stage (fun () ->
             ignore
               (run_weak
                  ~model:
                    (Memsim.Model.Custom
                       { Memsim.Variant.wo with depth = Memsim.Variant.Bounded 2 })
                  ~seed:3
                  (Minilang.Programs.queue_bug ~region:100 ()))));
      Test.make ~name:"variants/simulate-stall/queue100"
        (Staged.stage (fun () ->
             ignore
               (run_weak
                  ~model:
                    (Memsim.Model.Custom
                       { Memsim.Variant.wo with read = Memsim.Variant.Stall })
                  ~seed:3
                  (Minilang.Programs.queue_bug ~region:100 ()))));
      Test.make ~name:"variants/spec-parse"
        (Staged.stage (fun () ->
             ignore
               (Memsim.Model.of_spec "sb:depth=2,read=stall,retire=fifo,fence=nop")));
    ]
  in
  (* full mode runs long enough that the noisy rows (segment/queue400,
     hb1-vclock/queue400 historically fit at r² ≈ 0.85) reach r² ≥ 0.95;
     --quick trades fit quality for CI wall-clock *)
  let cfg =
    if !quick then Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
    else Benchmark.cfg ~limit:10000 ~quota:(Time.second 2.0) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Format.printf "%-24s %14s %10s@." "benchmark" "ns/run" "r^2";
  let micro =
    List.concat_map
      (fun test ->
        List.map
          (fun elt ->
            let m = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
            let est = Analyze.one ols Toolkit.Instance.monotonic_clock m in
            let calls =
              Option.value ~default:1 (Hashtbl.find_opt batched (Test.Elt.name elt))
            in
            let ns =
              match Analyze.OLS.estimates est with
              | Some (v :: _) -> v /. float_of_int calls
              | _ -> nan
            in
            let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
            Format.printf "%-24s %14.0f %10.4f@." (Test.Elt.name elt) ns r2;
            (Test.Elt.name elt, ns, r2))
          (Test.elements test))
      tests
  in
  let ns_of name =
    match List.find_opt (fun (n, _, _) -> n = name) micro with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  let speedups =
    [
      ("hb1_closure_over_vclock/queue400",
       ns_of "hb1-closure/queue400" /. ns_of "hb1-vclock/queue400");
      ("hb1_closure_over_vclock/rand-8x100",
       ns_of "hb1-closure/rand-8x100" /. ns_of "hb1-vclock/rand-8x100");
      ("hb1_closure_over_vclock/rand-8x400",
       ns_of "hb1-closure/rand-8x400" /. ns_of "hb1-vclock/rand-8x400");
      ("races_closure_over_vclock/rand-8x100",
       ns_of "races-closure/rand-8x100" /. ns_of "races-vclock/rand-8x100");
      ("analyze_closure_over_vclock/rand-8x100",
       ns_of "analyze-closure/rand-8x100" /. ns_of "analyze/rand-8x100");
      ("races_vclock_over_epoch/queue400",
       ns_of "races-vclock/queue400" /. ns_of "races-epoch/queue400");
      ("races_vclock_over_epoch/rand-8x100",
       ns_of "races-vclock/rand-8x100" /. ns_of "races-epoch/rand-8x100");
      ("races_vclock_over_epoch/rand-8x400",
       ns_of "races-vclock/rand-8x400" /. ns_of "races-epoch/rand-8x400");
      ("races_vclock_over_epoch/rand-8x400-cyclic",
       ns_of "races-vclock/rand-8x400-cyclic" /. ns_of "races-epoch/rand-8x400-cyclic");
    ]
  in
  Format.printf "@.closure-vs-vclock (hb1 index; >1 means the vclock path wins):@.";
  List.iter (fun (n, v) -> Format.printf "  %-40s %8.2fx@." n v) speedups;
  (* epoch-vs-vector regression gate: the epoch engine must not be slower
     than the reference pair scan it replaced, on acyclic or cyclic hb1
     (the races-vclock rows time the test oracle's copy of that scan);
     --quick turns a regression
     into a CI failure.  The queue400 rows are batched (see
     [races_batch]) so their fits resolve even at the --quick quota; the
     10% slack covers what jitter remains — a real regression from losing
     the O(1) fast path is 2x+, far outside it *)
  let epoch_rows = [ "queue400"; "rand-8x100"; "rand-8x400"; "rand-8x400-cyclic" ] in
  let regressed =
    List.filter
      (fun row ->
        let ratio =
          ns_of ("races-vclock/" ^ row) /. ns_of ("races-epoch/" ^ row)
        in
        Float.is_finite ratio && ratio < 0.9)
      epoch_rows
  in
  if regressed <> [] then begin
    Format.eprintf "bench: races-epoch regressed below races-vclock on: %s@."
      (String.concat ", " regressed);
    if !quick then exit 1
  end;
  (* serial vs domain-parallel Monte-Carlo: the fig1b-style loop that every
     bench section now runs through Engine.Parbatch *)
  let batch = 48 in
  let montecarlo j =
    Engine.Parbatch.map_seeds ~jobs:j batch (fun seed ->
        let e = exec_of_config big_cfg seed in
        List.length
          (Racedetect.Postmortem.data_races (Racedetect.Postmortem.analyze_execution e)))
  in
  ignore (montecarlo 1 : int array) (* warm up *);
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* at least two domains so the parallel path is exercised even on a
     single-core box (where the speedup will honestly be ~1x) *)
  let njobs = max 2 (Engine.Parbatch.default_jobs ()) in
  let serial_r, serial_s = wall (fun () -> montecarlo 1) in
  let par_r, par_s = wall (fun () -> montecarlo njobs) in
  Format.printf
    "@.Monte-Carlo batch (%d simulate+analyze runs): serial %.3fs, %d domains %.3fs — %.2fx; identical results: %b@."
    batch serial_s njobs par_s (serial_s /. par_s) (serial_r = par_r);
  (* streaming vs batch analysis: same report, §5 event GC bounds memory.
     ns/event compares full pipelines (parse + hb1 + races + partitions);
     peak-live vs events is the paper's bounded-trace-buffer claim. *)
  let stream_cases =
    [
      ("queue400", Tracing.Codec.encode_stream t400);
      ("rand-8x400", Tracing.Codec.encode_stream txl);
      ("token-ring-8x2000", token_ring_stream ~procs:8 ~rounds:2000);
    ]
  in
  Format.printf
    "@.streaming vs batch (identical reports; peak-live << events on@.synchronized stream-ordered traces):@.@.";
  Format.printf "%-20s %8s %12s %12s %10s %8s@." "workload" "events" "batch-ns/ev"
    "stream-ns/ev" "peak-live" "retired";
  let reps = 3 in
  let stream_rows =
    List.map
      (fun (name, text) ->
        let st =
          match Racedetect.Stream.analyze_string text with
          | Ok (_, st) -> st
          | Error msg -> failwith ("stream bench: " ^ msg)
        in
        let events = st.Racedetect.Stream.total_events in
        let (), batch_s =
          wall (fun () ->
              for _ = 1 to reps do
                match Tracing.Codec.decode text with
                | Ok t -> ignore (Racedetect.Postmortem.analyze t)
                | Error msg -> failwith ("batch bench: " ^ msg)
              done)
        in
        let (), stream_s =
          wall (fun () ->
              for _ = 1 to reps do
                ignore (Racedetect.Stream.analyze_string text)
              done)
        in
        let per_ev s = s *. 1e9 /. float_of_int (reps * max 1 events) in
        let peak = st.Racedetect.Stream.peak_live in
        let retired = st.Racedetect.Stream.retired in
        let forced = st.Racedetect.Stream.forced_retired in
        Format.printf "%-20s %8d %12.0f %12.0f %10d %8d@." name events
          (per_ev batch_s) (per_ev stream_s) peak retired;
        (name, events, per_ev batch_s, per_ev stream_s, peak, retired, forced))
      stream_cases
  in
  let hwm = vm_hwm_kb () in
  (match hwm with
   | Some kb -> Format.printf "@.process peak RSS (VmHWM): %d kB@." kb
   | None -> ());
  (* checkpoint overhead: the reader behind analyze --stream, saving
     the checkpoint analyze --checkpoint writes (engine, decoder and
     offset: Marshal + CRC + atomic rename) every N events vs never *)
  let ckpt_text = token_ring_stream ~procs:8 ~rounds:2000 in
  let ckpt_drive every =
    let module R = Racedetect.Stream.Reader in
    let ok = function Ok v -> v | Error msg -> failwith ("checkpoint bench: " ^ msg) in
    let r = R.create ~salvage:false () in
    let seen () = Racedetect.Stream.seen_events (R.engine r) in
    let file = Filename.temp_file "weakrace-bench" ".ckpt" in
    let last = ref 0 in
    let len = String.length ckpt_text in
    let chunk = 65536 in
    while R.offset r < len do
      ok (R.feed r (String.sub ckpt_text (R.offset r) (min chunk (len - R.offset r))));
      match every with
      | Some k when seen () - !last >= k ->
        R.save r file;
        last := seen ()
      | _ -> ()
    done;
    ignore (ok (R.close r));
    (try Sys.remove file with Sys_error _ -> ());
    seen ()
  in
  let ckpt_events = ckpt_drive None (* warm *) in
  let ckpt_per_ev s = s *. 1e9 /. float_of_int (max 1 ckpt_events) in
  let _, ckpt_none_s = wall (fun () -> ignore (ckpt_drive None : int)) in
  let _, ckpt_1k_s = wall (fun () -> ignore (ckpt_drive (Some 1000) : int)) in
  Format.printf
    "@.checkpoint overhead (token-ring-8x2000, %d events): none %.0f ns/ev, \
     every-1000 %.0f ns/ev (+%.1f%%)@."
    ckpt_events (ckpt_per_ev ckpt_none_s) (ckpt_per_ev ckpt_1k_s)
    ((ckpt_1k_s /. ckpt_none_s -. 1.) *. 100.);
  let micro =
    micro
    @ [
        ("checkpoint-overhead/none", ckpt_per_ev ckpt_none_s, nan);
        ("checkpoint-overhead/every-1000", ckpt_per_ev ckpt_1k_s, nan);
      ]
  in
  (* DPOR vs naive enumeration: same behaviour coverage, exponentially
     fewer schedules on programs with independent work *)
  Format.printf "@.exhaustive SC exploration, naive vs DPOR (same behaviours):@.@.";
  Format.printf "%-18s %12s %12s %10s@." "program" "naive" "dpor" "reduction";
  let explore_rows =
    List.map
      (fun (name, p) ->
        let mk () = Minilang.Interp.source p in
        let naive, naive_s =
          wall (fun () -> Memsim.Enumerate.explore ~limit:2_000_000 mk)
        in
        let dpor, dpor_s =
          wall (fun () ->
              Explore.Dpor.explore ~limit:2_000_000 ~model:Memsim.Model.SC mk)
        in
        let nn = List.length naive.Memsim.Enumerate.executions in
        let dn = dpor.Explore.Dpor.schedules in
        Format.printf "%-18s %12d %12d %9.1fx@." name nn dn
          (float_of_int nn /. float_of_int (max 1 dn));
        (name, nn, naive_s, dn, dpor_s))
      [
        ("fig1a", Minilang.Programs.fig1a);
        ("disjoint", Minilang.Programs.disjoint);
        ("queue_bug-r3", Minilang.Programs.queue_bug ~region:3 ~stale:1 ());
      ]
  in
  (* candidate triage: lint + DPOR-directed verification, end to end *)
  Format.printf "@.candidate triage (static candidates -> dynamic verdicts):@.@.";
  Format.printf "%-18s %6s %10s %8s %8s %9s@." "program" "data" "confirmed"
    "refuted" "unknown" "wall";
  let triage_rows =
    List.map
      (fun (name, p) ->
        let r, s = wall (fun () -> Explore.Triage.run ~jobs:!jobs p) in
        let count st =
          List.length
            (List.filter (fun v -> v.Explore.Triage.status = st) r.Explore.Triage.data)
        in
        let data = List.length r.Explore.Triage.data in
        let c = count Explore.Triage.Confirmed in
        let rf = count Explore.Triage.Refuted in
        let u = count Explore.Triage.Unknown in
        Format.printf "%-18s %6d %10d %8d %8d %8.2fs@." name data c rf u s;
        (name, data, c, rf, u, s))
      [
        ("queue_bug", Minilang.Programs.queue_bug ());
        ("peterson", Minilang.Programs.peterson);
        ("counter_racy", Minilang.Programs.counter_racy);
      ]
  in
  (* the serve daemon end to end, in process: aggregate session
     throughput, the worst events-behind-checkpoint window (what a
     SIGKILL could cost), and the cost of resuming a parked session *)
  Format.printf "@.serve daemon (in-process, unix socket, checkpointing on):@.";
  let serve_dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "weakrace-bench-serve-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let serve_fixtures =
    let config =
      { Minilang.Gen.n_procs = 4; n_shared = 6; n_locks = 2; ops_per_proc = 80;
        sync_freq = 4 }
    in
    match
      Serve.Harness.fixtures ~seeds_per_program:2
        [ ("gen_racy", Minilang.Gen.random_racy ~config ~seed:7 ());
          ("gen_racefree", Minilang.Gen.random_racefree ~config ~seed:11 ()) ]
    with
    | Ok fx -> fx
    | Error msg -> failwith ("serve bench fixtures: " ^ msg)
  in
  let ckdir = Filename.concat serve_dir "ck" in
  let start_server () =
    let addr = Serve.Server.Unix_sock (Filename.concat serve_dir "s.sock") in
    let stop = Atomic.make false in
    let ready = Atomic.make false in
    let cfg =
      { (Serve.Server.default_config addr) with
        Serve.Server.shards = max 2 !jobs;
        checkpoint_dir = Some ckdir;
        checkpoint_every = 64;
        resume = true;
        ready = (fun _ -> Atomic.set ready true) }
    in
    let dom = Domain.spawn (fun () -> Serve.Server.run ~stop cfg) in
    while not (Atomic.get ready) do Unix.sleepf 0.005 done;
    (addr, stop, dom)
  in
  let stop_server (stop, dom) =
    Atomic.set stop true;
    match Domain.join dom with
    | Ok () -> ()
    | Error msg -> failwith ("serve bench: " ^ msg)
  in
  let addr, stop, dom = start_server () in
  let serve_sessions = if !quick then 50 else 400 in
  let lr =
    Serve.Harness.load ~concurrency:8 ~sessions:serve_sessions
      ~fixtures:serve_fixtures addr
  in
  if lr.Serve.Harness.l_failures <> [] then
    failwith
      ("serve bench: " ^ String.concat "; " lr.Serve.Harness.l_failures);
  Format.printf "  %a@." Serve.Harness.pp_load lr;
  let ckpt_lag =
    match Serve.Client.metrics addr with
    | Error msg -> failwith ("serve bench metrics: " ^ msg)
    | Ok snap ->
      Option.value ~default:0
        (Serve.Client.metric_value snap "checkpoint_lag_hwm")
  in
  Format.printf "  checkpoint lag high-water mark: %d events@." ckpt_lag;
  (* park a session three quarters in, stop, restart, and time the
     resumed completion (restore + tail feed + final analysis) *)
  let rf = serve_fixtures.(0) in
  let resume_row =
    match Serve.Client.raw_open addr ~id:"bench-resume" with
    | Error msg -> failwith ("serve bench resume: " ^ msg)
    | Ok (fd, _) ->
      let cut = String.length rf.Serve.Harness.f_trace * 3 / 4 in
      (match
         Serve.Client.raw_send fd (String.sub rf.Serve.Harness.f_trace 0 cut)
       with
       | Ok () -> ()
       | Error msg -> failwith ("serve bench resume: " ^ msg));
      Unix.sleepf 0.3 (* let the bytes land before the graceful stop parks *);
      stop_server (stop, dom);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let addr2, stop2, dom2 = start_server () in
      let t0 = Unix.gettimeofday () in
      let o =
        match
          Serve.Client.session addr2 ~id:"bench-resume"
            ~trace:rf.Serve.Harness.f_trace
        with
        | Ok o -> o
        | Error msg -> failwith ("serve bench resume: " ^ msg)
      in
      let resume_s = Unix.gettimeofday () -. t0 in
      if o.Serve.Client.report <> rf.Serve.Harness.f_report then
        failwith "serve bench: resumed report differs from reference";
      Format.printf
        "  resume cost: %.1f ms (resumed from byte %d of %d, report identical)@."
        (resume_s *. 1e3) o.Serve.Client.resumed_from
        (String.length rf.Serve.Harness.f_trace);
      stop_server (stop2, dom2);
      (o.Serve.Client.resumed_from, resume_s)
  in
  let serve_agg =
    ( lr.Serve.Harness.l_sessions, lr.Serve.Harness.l_events,
      lr.Serve.Harness.l_wall, lr.Serve.Harness.l_events_per_sec )
  in
  (* robustness certification: the static pass on the paper's queue bug
     (cycle classification only, delay-set analysis precomputed) and the
     full static+closure pipeline on the litmus programs whose verdicts
     the matrix test pins.  In --quick mode a wrong verdict — or an
     unverified witness — is a CI failure, like the epoch gate above. *)
  Format.printf "@.robustness certification:@.";
  let wo = Memsim.Model.WO in
  let robust_rows, robust_bad =
    let qb = Minilang.Programs.queue_bug ~region:100 () in
    let lint = Staticcheck.Lint.analyze qb in
    let ds = Staticcheck.Delayset.analyze qb lint.Staticcheck.Lint.results in
    let (sres, static_s) =
      wall (fun () ->
          Staticcheck.Robust.check (Memsim.Model.variant wo)
            lint.Staticcheck.Lint.results ds)
    in
    let static_row =
      ( "static/queue_bug100", Staticcheck.Robust.verdict_str sres, static_s,
        0, None )
    in
    let closure_cases =
      (* program, model, expected verdict head *)
      [
        ("dekker", Minilang.Programs.dekker, wo, `Not_robust);
        ("dekker_fenced", Minilang.Programs.dekker_fenced, wo, `Robust);
        ( "read_own_write/sb-bypass", Minilang.Programs.read_own_write,
          (match Memsim.Model.of_spec "sb-bypass" with
          | Ok m -> m
          | Error e -> failwith e),
          `Not_robust );
      ]
    in
    let bad = ref [] in
    let rows =
      List.map
        (fun (name, p, model, expect) ->
          let (r, s) = wall (fun () -> Explore.Robustcheck.run ~model p) in
          let module RC = Explore.Robustcheck in
          let witness_steps, ok =
            match (r.RC.verdict, expect) with
            | RC.Not_robust w, `Not_robust ->
              (Some (List.length w.Explore.Witness.schedule),
               w.Explore.Witness.verified = Ok ())
            | RC.Robust_verdict _, `Robust -> (None, true)
            | _ -> (None, false)
          in
          if not ok then bad := name :: !bad;
          ( "closure/" ^ name, RC.verdict_str r, s, r.RC.schedules,
            witness_steps ))
        closure_cases
    in
    (static_row :: rows, List.rev !bad)
  in
  List.iter
    (fun (name, verdict, s, scheds, wsteps) ->
      Format.printf "  %-32s %-18s %8.1f ms  %d schedule(s)%s@." name verdict
        (s *. 1e3) scheds
        (match wsteps with
        | Some n -> Printf.sprintf ", %d-step witness" n
        | None -> ""))
    robust_rows;
  if robust_bad <> [] then begin
    Format.eprintf "bench: robust verdict/witness gate failed on: %s@."
      (String.concat ", " robust_bad);
    if !quick then exit 1
  end;
  let path = "BENCH_perf.json" in
  write_bench_json ~micro ~speedups ~streaming:(stream_rows, hwm)
    ~parallel:(batch, njobs, serial_s, par_s) ~exploration:explore_rows
    ~triage:triage_rows ~serve:(serve_agg, ckpt_lag, resume_row)
    ~robust:robust_rows path;
  Format.printf "wrote %s@." path

(* ================================================================== *)

let sections =
  [
    ("fig1a", fig1a); ("fig1b", fig1b); ("fig2", fig2); ("fig3", fig3);
    ("cond34", cond34); ("thm41-42", thm41_42); ("overhead", overhead);
    ("envelope", envelope); ("ablation", ablation); ("coherence", coherence);
    ("perf", perf);
  ]

let () =
  (* strip -j/--jobs[=]N; whatever remains selects sections *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> jobs := int_of_string n; parse_args acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      jobs := int_of_string (String.sub arg 7 (String.length arg - 7));
      parse_args acc rest
    | "--quick" :: rest -> quick := true; parse_args acc rest
    | arg :: rest -> parse_args (arg :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  if !jobs < 1 then begin
    Format.eprintf "bench: --jobs must be >= 1@.";
    exit 1
  end;
  let requested =
    match names with
    (* bare --quick is the CI smoke entry point: just the perf section,
       with the epoch-vs-vector regression gate armed *)
    | [] when !quick -> [ "perf" ]
    | [] | [ "all" ] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.eprintf "unknown section %S (have: %s)@." name
          (String.concat ", " (List.map fst sections));
        exit 1)
    requested
