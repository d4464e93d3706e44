(* Extended litmus programs (Peterson, double-checked locking, barrier),
   the lockset baseline, and the SCP-replay debugger. *)

open Racedetect
open Oracle

let run ?(model = Memsim.Model.WO) ~seed p =
  Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p

let value_of_label (e : Memsim.Exec.t) label =
  Array.to_list e.Memsim.Exec.ops
  |> List.find_map (fun (o : Memsim.Op.t) ->
         if o.Memsim.Op.label = Some label then Some o.Memsim.Op.value else None)

let seeds n = List.init n (fun s -> s)

(* ------------------------------------------------------------------ *)
(* Peterson                                                            *)
(* ------------------------------------------------------------------ *)

let test_peterson_sc_mutual_exclusion () =
  List.iter
    (fun seed ->
      let e =
        Minilang.Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.random ~seed)
          Minilang.Programs.peterson
      in
      Alcotest.(check bool) "terminates" false e.Memsim.Exec.truncated;
      Alcotest.(check int) "counter = 2 under SC" 2 e.Memsim.Exec.final_mem.(3))
    (seeds 150)

let test_peterson_weak_violates_mutual_exclusion () =
  (* the canonical failure: both processors' flag writes sit in their
     buffers, each reads the other's flag as 0, both enter *)
  List.iter
    (fun model ->
      let broken =
        List.exists
          (fun seed ->
            let e = run ~model ~seed Minilang.Programs.peterson in
            (not e.Memsim.Exec.truncated) && e.Memsim.Exec.final_mem.(3) <> 2)
          (seeds 200)
      in
      Alcotest.(check bool)
        (Memsim.Model.name model ^ " can break Peterson")
        true broken)
    Memsim.Model.weak

let test_peterson_races_detected () =
  let e = run ~seed:0 Minilang.Programs.peterson in
  let a = Postmortem.analyze_execution e in
  Alcotest.(check bool) "races reported" true (Postmortem.data_races a <> [])

(* ------------------------------------------------------------------ *)
(* Double-checked locking                                              *)
(* ------------------------------------------------------------------ *)

let test_lazy_init_sc_always_42 () =
  List.iter
    (fun seed ->
      let e =
        Minilang.Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.random ~seed)
          Minilang.Programs.lazy_init
      in
      List.iter
        (fun lbl ->
          match value_of_label e lbl with
          | Some v -> Alcotest.(check int) (lbl ^ " reads 42") 42 v
          | None -> Alcotest.fail "missing use")
        [ "P0:use"; "P1:use" ])
    (seeds 150)

let test_lazy_init_weak_stale_payload () =
  let stale_seen =
    List.exists
      (fun seed ->
        let e = run ~model:Memsim.Model.RCsc ~seed Minilang.Programs.lazy_init in
        value_of_label e "P0:use" = Some 0 || value_of_label e "P1:use" = Some 0)
      (seeds 400)
  in
  Alcotest.(check bool) "a stale payload read exists" true stale_seen

let test_lazy_init_fast_path_race_detected () =
  (* any weak execution where both processors ran has the fast-check race *)
  let e = run ~seed:1 Minilang.Programs.lazy_init in
  let a = Postmortem.analyze_execution e in
  Alcotest.(check bool) "data race on init/payload" true
    (Postmortem.data_races a <> [])

(* ------------------------------------------------------------------ *)
(* Barrier                                                             *)
(* ------------------------------------------------------------------ *)

let test_barrier_correct_everywhere () =
  let p = Minilang.Programs.barrier_phases ~n_procs:3 () in
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let e = Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p in
          Alcotest.(check bool) "terminates" false e.Memsim.Exec.truncated;
          (* every phase-2 read sees the neighbour's phase-1 value *)
          for me = 0 to 2 do
            match value_of_label e (Printf.sprintf "P%d:phase2-read" me) with
            | Some v ->
              Alcotest.(check int) "phase-2 sees phase-1" (100 + ((me + 1) mod 3)) v
            | None -> Alcotest.fail "phase-2 read missing"
          done;
          let a = Postmortem.analyze_execution e in
          Alcotest.(check bool) "race-free" true (Postmortem.race_free a))
        (seeds 25))
    Memsim.Model.all

(* ------------------------------------------------------------------ *)
(* Lockset                                                             *)
(* ------------------------------------------------------------------ *)

let lockset_locs ~model ~seed p =
  Lockset.flagged_locations (Lockset.check (run ~model ~seed p))

let test_lockset_clean_on_locked_counter () =
  List.iter
    (fun seed ->
      Alcotest.(check (list int)) "no violations" []
        (lockset_locs ~model:Memsim.Model.WO ~seed Minilang.Programs.counter_locked))
    (seeds 25)

let test_lockset_flags_racy_counter () =
  Alcotest.(check (list int)) "counter flagged" [ 0 ]
    (lockset_locs ~model:Memsim.Model.WO ~seed:1 Minilang.Programs.counter_racy)

let test_lockset_clean_on_fig1b () =
  (* initialization pattern: P1 writes exclusively, P2 reads holding s *)
  List.iter
    (fun seed ->
      Alcotest.(check (list int)) "no violations" []
        (lockset_locs ~model:Memsim.Model.WO ~seed Minilang.Programs.fig1b))
    (seeds 25)

(* release/acquire hand-off where the consumer also writes the payload:
   perfectly ordered by hb1 (no data race), but no lock ever protects the
   payload, so the lockset discipline cries wolf *)
let release_acquire_pingpong =
  let open Minilang.Build in
  program ~name:"ra_pingpong" ~locs:[ "data"; "flag" ]
    [
      [ store "data" (i 1); release_store "flag" (i 1) ];
      [
        acquire_load "f" "flag";
        if_ (r "f" =: i 1) [ store "data" (i 2) ~label:"P2:write-data" ] [];
      ];
    ]

let test_lockset_false_alarm_on_release_acquire () =
  let alarms = ref 0 and hb1_races = ref 0 and both_wrote = ref 0 in
  List.iter
    (fun seed ->
      let e = run ~model:Memsim.Model.SC ~seed release_acquire_pingpong in
      let a = Postmortem.analyze_execution e in
      if Postmortem.data_races a <> [] then incr hb1_races;
      if value_of_label e "P2:write-data" <> None then begin
        incr both_wrote;
        if Lockset.flagged_locations (Lockset.check e) <> [] then incr alarms
      end)
    (seeds 50);
  Alcotest.(check int) "hb1 never fires" 0 !hb1_races;
  Alcotest.(check bool) "both wrote in some runs" true (!both_wrote > 0);
  Alcotest.(check int) "lockset cries wolf every time" !both_wrote !alarms

let test_lockset_flags_peterson_and_lazy_init () =
  Alcotest.(check bool) "peterson flagged" true
    (lockset_locs ~model:Memsim.Model.WO ~seed:0 Minilang.Programs.peterson <> []);
  Alcotest.(check bool) "lazy_init flagged" true
    (lockset_locs ~model:Memsim.Model.WO ~seed:1 Minilang.Programs.lazy_init <> [])

(* lockset agrees with hb1 on lock-disciplined random programs?  It need
   not in general; but it must never flag a location no data op touches
   from two processors. *)
let prop_lockset_flags_only_shared_locations =
  QCheck.Test.make ~name:"lockset flags only multi-processor data locations" ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Minilang.Gen.random_racy ~seed () in
      let e = run ~seed:(seed + 1) p in
      let shared l =
        let touchers =
          Array.to_list e.Memsim.Exec.ops
          |> List.filter_map (fun (o : Memsim.Op.t) ->
                 if o.Memsim.Op.loc = l && Memsim.Op.is_data o.Memsim.Op.cls then
                   Some o.Memsim.Op.proc
                 else None)
          |> List.sort_uniq compare
        in
        List.length touchers > 1
      in
      List.for_all shared (Lockset.flagged_locations (Lockset.check e)))

(* ------------------------------------------------------------------ *)
(* SCP replay                                                          *)
(* ------------------------------------------------------------------ *)

let sc_pool p =
  let r = Memsim.Enumerate.explore (fun () -> Minilang.Interp.source p) in
  if not r.Memsim.Enumerate.complete then Alcotest.fail "enumeration incomplete";
  r.Memsim.Enumerate.executions

let test_scpreplay_covers_prefix () =
  let p = Minilang.Programs.unguarded_handoff in
  let pool = sc_pool p in
  List.iter
    (fun seed ->
      let weak = run ~seed p in
      match
        Scpreplay.of_weak_execution ~sc:pool
          ~source:(fun () -> Minilang.Interp.source p)
          weak
      with
      | None -> Alcotest.fail "no session"
      | Some s ->
        Alcotest.(check bool) "SCP covered" true s.Scpreplay.covered;
        Alcotest.(check bool) "has steps" true (s.Scpreplay.steps <> []))
    (seeds 15)

let test_scpreplay_memory_snapshots () =
  let p = Minilang.Programs.guarded_handoff in
  let pool = sc_pool p in
  let weak = run ~seed:2 p in
  match
    Scpreplay.of_weak_execution ~sc:pool
      ~source:(fun () -> Minilang.Interp.source p)
      weak
  with
  | None -> Alcotest.fail "no session"
  | Some s ->
    (* the flag (location 1) starts at 1; the watchpoint sees any change
       monotonically through the session's snapshots *)
    let w = Scpreplay.watch s 1 in
    Alcotest.(check bool) "watch non-empty" true (w <> []);
    (match w with
     | (_, first) :: _ -> Alcotest.(check int) "initial flag value" 1 first
     | [] -> ());
    (* snapshots have the right arity *)
    List.iter
      (fun st ->
        Alcotest.(check int) "snapshot size" 2 (Array.length st.Scpreplay.memory))
      s.Scpreplay.steps

let test_scpreplay_replays_sc_witness_schedule () =
  (* replaying a race-free weak execution replays a complete SC execution *)
  let p = Minilang.Programs.guarded_handoff in
  let pool = sc_pool p in
  let weak = run ~seed:0 p in
  match
    Scpreplay.of_weak_execution ~sc:pool
      ~source:(fun () -> Minilang.Interp.source p)
      weak
  with
  | None -> Alcotest.fail "no session"
  | Some s ->
    Alcotest.(check bool) "covered" true s.Scpreplay.covered;
    Alcotest.(check bool) "rendering works" true
      (String.length (Format.asprintf "%a" (Scpreplay.pp_session ?loc_name:None) s) > 0)

(* ------------------------------------------------------------------ *)
(* Release/acquire race-free generator                                 *)
(* ------------------------------------------------------------------ *)

let test_ra_generator_is_racefree_and_sc () =
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racefree_ra ~seed () in
      let pool =
        let r =
          Memsim.Enumerate.explore ~limit:500_000 (fun () -> Minilang.Interp.source p)
        in
        if not r.Memsim.Enumerate.complete then Alcotest.fail "incomplete";
        r.Memsim.Enumerate.executions
      in
      (* data-race-free by Def 2.4: no SC execution has a data race *)
      List.iter
        (fun e ->
          let a = Postmortem.analyze_execution e in
          Alcotest.(check bool) "no data race under SC" true
            (Postmortem.data_races a = []))
        pool;
      (* and the DRF guarantee follows on the weak models *)
      List.iter
        (fun model ->
          List.iter
            (fun wseed ->
              let e = Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed:wseed ()) p in
              Alcotest.(check bool) "weak execution is SC" true
                (List.exists (Memsim.Exec.same_program_behaviour e) pool))
            (seeds 5))
        Memsim.Model.weak)
    (List.init 8 (fun s -> s + 1))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "extensions"
    [
      ( "peterson",
        [
          Alcotest.test_case "SC mutual exclusion" `Quick test_peterson_sc_mutual_exclusion;
          Alcotest.test_case "weak violation" `Quick
            test_peterson_weak_violates_mutual_exclusion;
          Alcotest.test_case "races detected" `Quick test_peterson_races_detected;
        ] );
      ( "lazy-init",
        [
          Alcotest.test_case "SC always 42" `Quick test_lazy_init_sc_always_42;
          Alcotest.test_case "weak stale payload" `Quick test_lazy_init_weak_stale_payload;
          Alcotest.test_case "fast path race detected" `Quick
            test_lazy_init_fast_path_race_detected;
        ] );
      ( "barrier",
        [ Alcotest.test_case "correct on every model" `Quick test_barrier_correct_everywhere ] );
      ( "lockset",
        [
          Alcotest.test_case "clean on locked counter" `Quick
            test_lockset_clean_on_locked_counter;
          Alcotest.test_case "flags racy counter" `Quick test_lockset_flags_racy_counter;
          Alcotest.test_case "clean on fig1b" `Quick test_lockset_clean_on_fig1b;
          Alcotest.test_case "false alarm on release/acquire" `Quick
            test_lockset_false_alarm_on_release_acquire;
          Alcotest.test_case "flags peterson and lazy_init" `Quick
            test_lockset_flags_peterson_and_lazy_init;
        ] );
      ("lockset-props", qsuite [ prop_lockset_flags_only_shared_locations ]);
      ( "ra-generator",
        [ Alcotest.test_case "race-free and SC everywhere" `Slow
            test_ra_generator_is_racefree_and_sc ] );
      ( "scp-replay",
        [
          Alcotest.test_case "covers the prefix" `Quick test_scpreplay_covers_prefix;
          Alcotest.test_case "memory snapshots" `Quick test_scpreplay_memory_snapshots;
          Alcotest.test_case "race-free replays fully" `Quick
            test_scpreplay_replays_sc_witness_schedule;
        ] );
    ]
