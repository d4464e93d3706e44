(* The paper's Figure 2/3 scenario, end to end.

     dune exec examples/queue_bug_walkthrough.exe

   P1 enqueues the address of a work region and clears QEmpty; P2 dequeues
   and works on its region; P3 independently works on region 0.  The
   Test&Set operations that should protect the queue were "omitted due to
   an oversight" (Fig 2a).  On weak hardware the two queue writes can
   reach memory out of order, so P2 observes QEmpty = 0 but dequeues the
   stale address 37 and tramples P3's region (Fig 2b).  A naive dynamic
   detector reports every resulting race; the paper's method reports only
   the first partition — the real bug — and suppresses the rest (Fig 3). *)

let region = 100
let stale = 37

let program = Minilang.Programs.queue_bug ~region ~stale ()

(* Search the seed space for an execution showing the paper's anomaly:
   QEmpty read as 0 but Q read as the stale address. *)
let find_stale_execution () =
  let rec go seed =
    if seed > 20_000 then failwith "no stale execution found"
    else
      let e =
        Minilang.Interp.run ~model:Memsim.Model.WO
          ~sched:(Memsim.Sched.adversarial ~seed ())
          program
      in
      let value label =
        Array.to_list e.Memsim.Exec.ops
        |> List.find_map (fun (o : Memsim.Op.t) ->
               if o.Memsim.Op.label = Some label then Some o.Memsim.Op.value else None)
      in
      if value "P2:read-qempty" = Some 0 && value "P2:dequeue" = Some stale then
        (seed, e)
      else go (seed + 1)
  in
  go 0

let () =
  let seed, e = find_stale_execution () in
  Format.printf
    "found the Figure 2b anomaly at seed %d: P2 saw QEmpty = 0 yet dequeued the@.\
     stale address %d, so it works on [%d, %d) — overlapping P3's [0, %d).@.@."
    seed stale stale (stale + region) region;

  let a = Racedetect.Postmortem.analyze_execution e in
  let all_races = Racedetect.Postmortem.data_races a in
  let reported = Racedetect.Postmortem.reported_races a in
  Format.printf "a naive detector would report %d data races;@." (List.length all_races);
  Format.printf "the paper's method reports the %d race(s) of the first partition:@.@."
    (List.length reported);
  Format.printf "%a@.@."
    (Racedetect.Report.pp_analysis ~loc_name:(Minilang.Ast.loc_name program))
    a;

  (* The affects relation explains the suppression: the queue race affects
     every work-region race (Definition 3.3) — a path in the augmented
     graph G′ leads from an endpoint of one to an endpoint of the other. *)
  let g' = Racedetect.Augment.graph a.Racedetect.Postmortem.augmented in
  let affects (r1 : Racedetect.Race.t) (r2 : Racedetect.Race.t) =
    List.exists
      (fun (u, v) -> Graphlib.Digraph.has_path g' u v)
      [ (r1.a, r2.a); (r1.a, r2.b); (r1.b, r2.a); (r1.b, r2.b) ]
  in
  let is_control (r : Racedetect.Race.t) =
    List.exists (fun l -> l >= 3 * region) r.Racedetect.Race.locs
  in
  let control, work = List.partition is_control all_races in
  let all_affected =
    List.for_all (fun w -> List.exists (fun c -> affects c w) control) work
  in
  Format.printf
    "every one of the %d work-region races is affected (Def 3.3) by the queue race: %b@."
    (List.length work) all_affected;
  Format.printf
    "-> a programmer fixing the reported race (insert the missing Test&Set)@.\
    \   eliminates all of them.@."
