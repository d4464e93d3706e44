module Model = Memsim.Model
module Variant = Memsim.Variant
module Exec = Memsim.Exec
module Op = Memsim.Op
module Sched = Memsim.Sched
module Robust = Staticcheck.Robust
module Scpool = Explore.Scpool
module Robustcheck = Explore.Robustcheck
module Trace = Tracing.Trace
module Codec = Tracing.Codec

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

let stock name = Option.get (Minilang.Programs.find name)

(* The twelve lattice points the frontier reports, in roster order. *)
let roster = Explore.Vcampaign.roster
let n_roster = List.length roster

(* ------------------------------------------------------------------ *)
(* 1. Exhaustive litmus matrix: exact verdict per lattice point        *)
(* ------------------------------------------------------------------ *)

(* 0 = ROBUST, 2 = NOT-ROBUST (with a verified witness).  [only] names
   the lattice points expected non-robust; everything else must prove
   robust. *)
let matrix =
  [
    (`Example "sb.race",
     [ "tso"; "wo"; "rcsc"; "drf0"; "drf1"; "sb-fence-nop"; "sb-release-nop";
       "sb-release-partial"; "sb-bypass"; "sb-stall"; "sb-bounded-2" ]);
    (`Example "lb.race", []);
    (`Example "iriw.race", []);
    (`Example "coRR.race", []);
    (`Example "sb_sync.race", []);
    (`Example "mp.race",
     [ "wo"; "rcsc"; "drf0"; "drf1"; "sb-fence-nop"; "sb-release-nop";
       "sb-release-partial"; "sb-bypass"; "sb-stall"; "sb-bounded-2" ]);
    (`Example "mp_partial.race", [ "sb-release-nop"; "sb-release-partial" ]);
    (`Example "mp_fixed.race", [ "sb-release-nop"; "sb-release-partial" ]);
    (`Example "mp_rmw.race", [ "sb-release-nop"; "sb-release-partial" ]);
    (`Stock "dekker",
     [ "tso"; "wo"; "rcsc"; "drf0"; "drf1"; "sb-fence-nop"; "sb-release-nop";
       "sb-release-partial"; "sb-bypass"; "sb-stall"; "sb-bounded-2" ]);
    (`Stock "dekker_fenced", [ "sb-fence-nop" ]);
    (`Stock "read_own_write", [ "sb-bypass" ]);
  ]

let load = function
  | `Example f -> parse_example f
  | `Stock n -> stock n

let name_of = function `Example f -> f | `Stock n -> n

let test_litmus_matrix () =
  List.iter
    (fun (which, non_robust) ->
      let p = load which in
      List.iter
        (fun (vname, model) ->
          let r = Robustcheck.run ~model p in
          let expected = if List.mem vname non_robust then 2 else 0 in
          let got = Robustcheck.exit_code r in
          if got <> expected then
            Alcotest.failf "%s under %s: expected exit %d, got %d (%s)"
              (name_of which) vname expected got
              (Robustcheck.verdict_str r);
          match r.Robustcheck.verdict with
          | Robustcheck.Not_robust w ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s witness verified" (name_of which) vname)
              true
              (w.Explore.Witness.verified = Ok ())
          | _ -> ())
        roster)
    matrix

(* sb's classic non-SC outcome: both loads return 0 — assert the
   minimized witness actually exhibits it under the canonical buffering
   models *)
let test_sb_witness_00 () =
  let p = parse_example "sb.race" in
  List.iter
    (fun vname ->
      let model = List.assoc vname roster in
      let r = Robustcheck.run ~model p in
      match r.Robustcheck.verdict with
      | Robustcheck.Not_robust w ->
        let reads = Exec.reads w.Explore.Witness.exec in
        Alcotest.(check bool)
          (vname ^ " witness loads saw 0") true
          (reads <> [] && List.for_all (fun (o : Op.t) -> o.Op.value = 0) reads)
      | v ->
        Alcotest.failf "sb under %s: expected NOT-ROBUST, got %s" vname
          (match v with
          | Robustcheck.Robust_verdict _ -> "ROBUST"
          | Robustcheck.Unknown m -> "UNKNOWN: " ^ m
          | Robustcheck.Not_robust _ -> assert false))
    [ "tso"; "wo" ]

(* static pass alone: canonical expectations that need no exploration *)
let test_static_verdicts () =
  let check name p vname expected =
    let model = List.assoc vname roster in
    let s = Robust.analyze (Model.variant model) p in
    Alcotest.(check bool)
      (Printf.sprintf "%s statically robust under %s" name vname)
      expected s.Robust.robust
  in
  let sb = parse_example "sb.race" in
  check "sb" sb "sc" true;
  check "sb" sb "tso" false;
  let mp = parse_example "mp.race" in
  (* FIFO retirement orders the data/flag stores: mp is robust on TSO *)
  check "mp" mp "tso" true;
  check "mp" mp "wo" false;
  let lb = parse_example "lb.race" in
  (* load->store pairs start at a read; reads perform at issue *)
  List.iter (fun (vn, _) -> check "lb" lb vn true) roster;
  let fenced = stock "dekker_fenced" in
  check "dekker_fenced" fenced "wo" true;
  check "dekker_fenced" fenced "sb-fence-nop" false

(* the frontier is consistent with per-point checks *)
let test_frontier () =
  let p = parse_example "sb.race" in
  let s = Robust.analyze Variant.wo p in
  let fr = Robust.frontier s.Robust.results s.Robust.ds in
  Alcotest.(check int) "frontier size" n_roster (List.length fr);
  List.iter
    (fun (f : Robust.frontier_entry) ->
      Alcotest.(check bool)
        ("frontier " ^ f.Robust.f_name)
        (f.Robust.f_name = "sc")
        f.Robust.f_robust)
    fr

(* ------------------------------------------------------------------ *)
(* 2. qcheck: statically-ROBUST programs yield no non-SC witness       *)
(* ------------------------------------------------------------------ *)

let program_of i =
  match i mod 3 with
  | 0 -> Minilang.Gen.random_racy ~seed:i ()
  | 1 -> Minilang.Gen.random_racefree ~seed:i ()
  | _ -> Minilang.Gen.random_racefree_ra ~seed:i ()

(* Soundness of the static prover, the property the whole feature rests
   on: whenever the static pass claims ROBUST, neither random weak
   scheduling nor a bounded DPOR hunt may find an SC-inexplicable
   execution.  500 programs, rotating through the lattice roster. *)
let sweep_programs = 500

let sweep_one i =
  let p = program_of i in
  let vname, model = List.nth roster (i mod n_roster) in
  let s = Robust.analyze (Model.variant model) p in
  if not s.Robust.robust then true
  else
    match Scpool.build ~limit:50_000 p with
    | Error _ -> true (* spinning SC pool: nothing to check against *)
    | Ok pool ->
      (* random weak runs *)
      for seed = 0 to 3 do
        let sched =
          if seed mod 2 = 0 then Sched.adversarial ~seed ()
          else Sched.random ~seed
        in
        let e = Minilang.Interp.run ~model ~sched p in
        if not (Scpool.explainable pool e) then
          QCheck.Test.fail_reportf
            "program %d under %s: statically ROBUST but seed %d run is not \
             SC-explainable"
            i vname seed
      done;
      (* bounded directed search *)
      let r =
        Explore.Dpor.explore ~max_steps:400 ~limit:2_000
          ~stop:(fun e -> not (Scpool.explainable pool e))
          ~model
          (fun () -> Minilang.Interp.source p)
      in
      if r.Explore.Dpor.stopped then
        QCheck.Test.fail_reportf
          "program %d under %s: statically ROBUST but DPOR found a non-SC \
           execution"
          i vname;
      true

let static_robust_sound =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "statically-ROBUST programs have no non-SC witness (%d)"
         sweep_programs)
    ~count:sweep_programs
    (QCheck.int_bound 1_000_000)
    sweep_one

(* the random sweep must not be vacuous: a healthy share of the
   deterministic 0..99 prefix is statically ROBUST with an enumerable
   SC pool *)
let test_sweep_coverage () =
  let robust_static = ref 0 and pooled = ref 0 in
  for i = 0 to 99 do
    let p = program_of i in
    let _, model = List.nth roster (i mod n_roster) in
    let s = Robust.analyze (Model.variant model) p in
    if s.Robust.robust then begin
      incr robust_static;
      match Scpool.build ~limit:50_000 p with
      | Ok _ -> incr pooled
      | Error _ -> ()
    end
  done;
  if !robust_static = 0 then
    Alcotest.fail "sweep degenerate: no statically-ROBUST program generated";
  if !pooled = 0 then
    Alcotest.fail "sweep degenerate: no SC pool enumerated"

(* ------------------------------------------------------------------ *)
(* 3. Scpool: indexed explainability == reference scan                 *)
(* ------------------------------------------------------------------ *)

let scpool_differential =
  QCheck.Test.make ~name:"Scpool.explainable == reference prefix scan"
    ~count:150 (QCheck.int_bound 1_000_000) (fun seed ->
      let p = program_of seed in
      match Scpool.build ~limit:50_000 p with
      | Error _ -> true
      | Ok pool ->
        let sc = Scpool.executions pool in
        let model = snd (List.nth roster (seed mod n_roster)) in
        let e =
          Minilang.Interp.run ~model ~sched:(Sched.adversarial ~seed ()) p
        in
        (* complete run, plus a truncated replay of half its schedule *)
        let half =
          List.filteri
            (fun i _ -> i * 2 < List.length e.Exec.schedule)
            e.Exec.schedule
        in
        let t =
          Explore.Witness.execution ~model
            (fun () -> Minilang.Interp.source p)
            half
        in
        List.for_all
          (fun x ->
            Scpool.explainable pool x = Scpool.prefix_explainable ~sc x)
          [ e; t ])

(* ------------------------------------------------------------------ *)
(* 4. trace-granularity explainability                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_explainable () =
  let p = stock "mp_release_acquire" in
  let pool = Scpool.build_exn p in
  (* every SC trace is explainable, also after a codec round trip *)
  let sc_exec = List.hd (Scpool.executions pool) in
  let tr = Trace.of_execution sc_exec in
  Alcotest.(check bool) "SC trace explainable" true
    (Scpool.trace_explainable pool tr);
  let decoded =
    match Codec.decode (Codec.encode ~version:Codec.version_checksummed tr) with
    | Ok t -> t
    | Error e -> Alcotest.failf "decode: %s" e
  in
  Alcotest.(check bool) "decoded SC trace explainable" true
    (Scpool.trace_explainable pool decoded);
  let model = List.assoc "sb-release-nop" roster in
  let find_violation pool p =
    let bad = ref None in
    for seed = 0 to 63 do
      if !bad = None then begin
        let e =
          Minilang.Interp.run ~model ~sched:(Sched.adversarial ~seed ()) p
        in
        if not (Scpool.explainable pool e) then bad := Some e
      end
    done;
    match !bad with
    | None -> Alcotest.fail "no release=nop violation found in 64 seeds"
    | Some e -> e
  in
  (* under release=nop the acquire can read flag=1 while data is still
     buffered — but that divergence lives entirely in a *data* read's
     value, which Computation events do not record, so the trace stays
     explainable: traces carry exactly the paper's information content *)
  let e = find_violation pool p in
  Alcotest.(check bool) "op-level violation found" false
    (Scpool.explainable pool e);
  Alcotest.(check bool) "value-only divergence is trace-invisible" true
    (Scpool.trace_explainable pool (Trace.of_execution e));
  (* a violation through *sync-valued* ops IS trace-visible: an RMW's
     read value is recorded in its Sync event.  Under SC, acquiring
     f=1 forces the fetch&add on d to read 1; with release=nop the
     data write to d may still be buffered when f publishes *)
  let q =
    let open Minilang.Build in
    program ~name:"mp_rmw" ~locs:[ "d"; "f" ]
      [
        [ store "d" (i 1); release_store "f" (i 1) ];
        [ acquire_load "rf" "f"; fetch_and_add "old" "d" (i 0) ];
      ]
  in
  let qpool = Scpool.build_exn q in
  let e = find_violation qpool q in
  let tr = Trace.of_execution e in
  Alcotest.(check bool) "sync-value divergence not trace-explainable" false
    (Scpool.trace_explainable qpool tr);
  let decoded =
    match Codec.decode (Codec.encode ~version:Codec.version_checksummed tr) with
    | Ok t -> t
    | Error err -> Alcotest.failf "decode: %s" err
  in
  Alcotest.(check bool) "decoded violating trace not explainable" false
    (Scpool.trace_explainable qpool decoded)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robust"
    [
      ( "static",
        [
          Alcotest.test_case "canonical static verdicts" `Quick
            test_static_verdicts;
          Alcotest.test_case "lattice frontier" `Quick test_frontier;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "litmus x lattice verdicts" `Slow
            test_litmus_matrix;
          Alcotest.test_case "sb witness is the (0,0) outcome" `Quick
            test_sb_witness_00;
        ] );
      ( "sweep",
        Alcotest.test_case "sweep coverage" `Quick test_sweep_coverage
        :: [ QCheck_alcotest.to_alcotest static_robust_sound ] );
      ( "scpool",
        QCheck_alcotest.to_alcotest scpool_differential
        :: [ Alcotest.test_case "trace explainability" `Quick
               test_trace_explainable ] );
    ]
