(* verify-sweep: the verification commands over every stock and example
   program, with no traces at all.  Staticcheck and Explore (DPOR, the SC
   pool) do all the work.

   A pass runs three families of checks, in an order drawn from the
   seed:
   - robust/P: `racedet robust P` under WO (Robustcheck);
   - fence/P: `racedet fence P --verify` (Repair.plan, then Repaircheck)
     over the loop-free programs plus counter_locked and fig1b;
   - triage/P: `racedet triage P` over the stock programs but lazy_init.
   The spinning programs end UNKNOWN after enumerating an SC pool up to
   [sc_limit]; that is the cost an SC fast path would cut.  The limit
   sits below the CLI default so that a pass (about 6 s on a 2-core
   x86-64 host) fits a run several times over.  Left out for the same
   reason: `fence --verify` on peterson (≈50 s), lazy_init (≈30 s),
   barrier_phases and queue_bug, and `triage lazy_init` (≈4 s, DPOR
   alone).  `robust queue_bug` at the CLI's default limits runs out of
   memory. *)

open Wl

let span = Obs.span
let sc_limit = 300

type check = {
  name : string;  (* family/program *)
  program : Minilang.Ast.program;
  run : unit -> string * bool;  (* verdict, and whether it is definite *)
}

let rec loops body =
  List.exists
    (function
      | Minilang.Ast.While _ -> true
      | Minilang.Ast.If (_, a, b) -> loops a || loops b
      | _ -> false)
    body

let loop_free (p : Minilang.Ast.program) = not (Array.exists loops p.Minilang.Ast.procs)

let robust_schedules = ref 0

let robust p () =
  let r =
    span "robustcheck.run" (fun () -> Explore.Robustcheck.run ~model:Memsim.Model.WO ~sc_limit p)
  in
  robust_schedules := !robust_schedules + r.Explore.Robustcheck.schedules;
  let v = Explore.Robustcheck.verdict_str r in
  (v, v <> "UNKNOWN")

let fence p () =
  let plan = span "repair.plan" (fun () -> Staticcheck.Repair.plan ~model:Memsim.Model.WO p) in
  let r = span "repaircheck.run" (fun () -> Explore.Repaircheck.run ~sc_limit plan) in
  match Explore.Repaircheck.exit_code r with
  | 0 -> ("VERIFIED", true)
  | 2 -> ("REFUTED", true)
  | _ -> ("INCONCLUSIVE", false)

let triage p () =
  let r = span "triage.run" (fun () -> Explore.Triage.run ~jobs:1 p) in
  let count s = List.length (List.filter (fun v -> v.Explore.Triage.status = s) r.Explore.Triage.data) in
  let unknown = count Explore.Triage.Unknown in
  ( Printf.sprintf "confirmed %d, refuted %d, unknown %d" (count Explore.Triage.Confirmed)
      (count Explore.Triage.Refuted) unknown,
    unknown = 0 )

(* The smoke sweep keeps only checks that finish in milliseconds. *)
let smoke_names =
  [ "robust/fig1a"; "robust/dekker"; "robust/mp.race"; "robust/sb_sync.race";
    "fence/mp.race"; "fence/sb.race"; "fence/dekker"; "triage/fig1a"; "triage/counter_racy";
    "triage/guarded_handoff" ]

let checks ctx =
  let dir = "examples/programs" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".race")
    |> List.sort compare
    |> List.map (fun f ->
           match Minilang.Parser.parse_file (Filename.concat dir f) with
           | Ok p -> (f, p)
           | Error m -> failwith (Printf.sprintf "%s: %s" f m))
  in
  let stock = Minilang.Programs.all in
  let fenced =
    examples
    @ List.filter (fun (n, p) -> loop_free p || n = "counter_locked" || n = "fig1b") stock
  in
  let mk family run (name, program) =
    { name = family ^ "/" ^ name; program; run = run program }
  in
  let all =
    List.map (mk "robust" robust) (stock @ examples)
    @ List.map (mk "fence" fence) fenced
    @ List.map (mk "triage" triage) (List.filter (fun (n, _) -> n <> "lazy_init") stock)
  in
  match ctx.size with
  | Full -> all
  | Smoke -> List.filter (fun c -> List.mem c.name smoke_names) all

(* A verdict matches its pin, or the pin was not definite and the new
   verdict is: a pinned UNKNOWN may turn definite. *)
let matches ~pin (verdict, definite) =
  let undecided =
    pin = "UNKNOWN" || pin = "INCONCLUSIVE"
    || (String.starts_with ~prefix:"confirmed" pin && not (String.ends_with ~suffix:"unknown 0" pin))
  in
  verdict = pin || (definite && undecided)

let verify_sweep ctx ~pins =
  let setup_s, checks = setup_median (fun () -> checks ctx) in
  let log = log () in
  let n = List.length checks in
  let verdicts = Hashtbl.create 64 in
  let pass_rates = ref [] and check_times = ref [] and traced_walls = ref [] and plain_walls = ref [] in
  let peak = ref nan in
  let robust_unknown = ref 0 and triage_unknown = ref 0 and traced_passes = ref 0 in
  let passes =
    repeat ~seconds:ctx.seconds ~min:(if ctx.traced then 2 else 1) (fun pass ->
        let traced = ctx.traced && pass mod 2 = 0 in
        (* the first pass runs in list order, so the peak RSS read after
           it does not depend on the seed; later passes in seed order *)
        let rng = Random.State.make [| 0xc4ec; ctx.seed; pass |] in
        let order =
          List.map (fun c -> ((if pass = 0 then 0 else Random.State.bits rng), c)) checks
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        in
        let wall = ref 0. in
        List.iteri
          (fun i (_, c) ->
            attempt log;
            (* each check starts after a full major collection; only the
               check itself is timed *)
            Gc.full_major ();
            Obs.set_tracing traced;
            let c0 = Obs.now () in
            let verdict, definite = span ~unit_id:((pass * n) + i) "check" c.run in
            let dt = Obs.now () -. c0 in
            Obs.set_tracing false;
            wall := !wall +. dt;
            if not traced then check_times := dt :: !check_times;
            if definite then decide log;
            if verdict = "UNKNOWN" then incr robust_unknown;
            if String.starts_with ~prefix:"triage/" c.name && not definite then incr triage_unknown;
            Hashtbl.replace verdicts c.name verdict;
            match Option.bind pins (fun p -> Json.to_str (Json.get [ c.name ] p)) with
            | None -> fail log "%s: no pinned verdict (got %s)" c.name verdict
            | Some pin ->
              check log (matches ~pin (verdict, definite)) "%s: verdict %s, pinned %s" c.name verdict pin)
          order;
        if pass = 0 then peak := Option.value ~default:nan (Obs.peak_rss_mb 0);
        if traced then begin
          incr traced_passes;
          traced_walls := !wall :: !traced_walls
        end
        else begin
          plain_walls := !wall :: !plain_walls;
          pass_rates := (float n /. !wall) :: !pass_rates
        end)
  in
  let layers =
    if not ctx.traced then []
    else begin
      (* Lint, Delayset and Scpool run inside the checks, where the
         benchmark cannot time them; their standalone cost over the
         sweep's programs, per traced pass, estimates their share. *)
      Obs.set_tracing true;
      let programs = List.sort_uniq compare (List.map (fun c -> c.program) checks) in
      let cycles = ref 0 and pool = ref 0 and incomplete = ref 0 in
      List.iter
        (fun p ->
          let lint = span "lint.analyze" (fun () -> Staticcheck.Lint.analyze p) in
          let d =
            span "delayset.analyze" (fun () ->
                Staticcheck.Delayset.analyze p lint.Staticcheck.Lint.results)
          in
          cycles := !cycles + List.length d.Staticcheck.Delayset.cycles;
          match span "scpool.build" (fun () -> Explore.Scpool.build ~limit:sc_limit p) with
          | Ok s -> pool := !pool + Explore.Scpool.size s
          | Error _ -> incr incomplete)
        programs;
      Obs.set_tracing false;
      let spans = Obs.spans () in
      let selfs = Obs.self_times spans in
      let per_pass = total_duration spans "check" /. float (max 1 !traced_passes) in
      let per x = float x /. float passes in
      shares ~wall:(total_duration spans "check") selfs
        [ ("robustcheck.run_share", "robustcheck.run");
          ("repair.plan_share", "repair.plan");
          ("repaircheck.run_share", "repaircheck.run");
          ("triage.run_share", "triage.run") ]
      @ shares ~wall:per_pass selfs
          [ ("lint.analyze_share", "lint.analyze");
            ("delayset.analyze_share", "delayset.analyze");
            ("scpool.build_share", "scpool.build") ]
      @ [ ("tracing.overhead", overhead ~traced:!traced_walls ~untraced:!plain_walls);
          ("delayset.cycles", float !cycles);
          ("scpool.size", float !pool);
          ("scpool.incomplete", float !incomplete);
          ("robustcheck.schedules", per !robust_schedules);
          ("robustcheck.unknown", per !robust_unknown);
          ("triage.unknown", per !triage_unknown) ]
    end
  in
  {
    e2e =
      [ ("setup_s", setup_s, setup_reps);
        ("throughput_per_s", Obs.median !pass_rates, List.length !pass_rates);
        ("latency_p50_ms", 1000. *. Obs.median !check_times, List.length !check_times);
        ("peak_rss_mb", !peak, 1);
        ("decided_ratio", decided_ratio log, log.attempted) ];
    layers;
    attempted = log.attempted;
    failures = List.rev log.failed;
    facts =
      [ ( "verdicts",
          Json.Obj
            (List.map (fun c -> (c.name, Json.Str (Hashtbl.find verdicts c.name))) checks) ) ];
  }
