(* The end-to-end benchmark: four workloads, each in its own process.

     main.exe                           every workload, untraced; writes
                                        results/<timestamp>.json and latest.json
     main.exe --trace                   the same with the per-layer breakdown
     main.exe --smoke                   every workload at ~1/20 size, traced
     main.exe --workload W --seed N --seconds S --trace 0|1
                                        one workload in this process; the last
                                        line of stdout is its JSON result
     main.exe compare A B               medians, quartiles and a verdict per
                                        (workload, metric) for two sets of
                                        result files (files or directories)

   Metric names, units, directions and bounds come from BENCHMARK.json at
   the repository root; facts pinned for the default seed come from
   bench/e2e/pins.json.  See bench/e2e/README.md. *)

let workloads =
  [ ("ring-long", fun ctx _ -> Tracewl.ring_long ctx);
    ("racy-dense", fun ctx _ -> Tracewl.racy_dense ctx);
    ("serve-mixed", fun ctx _ -> Servewl.serve_mixed ctx);
    ("verify-sweep", fun ctx pins -> Verifywl.verify_sweep ctx ~pins) ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench/e2e: " ^ m); exit 2) fmt

let ok_or_die = function Ok v -> v | Error m -> die "%s" m

type metric_spec = { name : string; unit_ : string; higher : bool; bound : float }

type spec = { e2e : metric_spec list; layers : metric_spec list; run_seconds : float }

let load_spec () =
  let j = ok_or_die (Json.read_file "BENCHMARK.json") in
  let metrics key =
    List.map
      (fun m ->
        { name = Json.str [ "name" ] m; unit_ = Json.str [ "unit" ] m;
          higher = Json.str [ "better" ] m = "higher"; bound = Json.num ~default:0. [ "bound" ] m })
      (Json.to_list (Json.get [ key ] j))
  in
  { e2e = metrics "end_to_end"; layers = metrics "per_layer";
    run_seconds = Json.num ~default:20. [ "run_seconds" ] j }

let pins_path = "bench/e2e/pins.json"
let pinned_seed pins = int_of_float (Json.num ~default:11. [ "seed" ] pins)

(* -- one workload, in this process ------------------------------------------ *)

let run_workload ~spec ~pins ~racedet ~name ~seed ~seconds ~traced ~size ~out
    ~spans_out =
  let run = match List.assoc_opt name workloads with Some f -> f | None -> die "unknown workload %s" name in
  let work = Printf.sprintf "bench/e2e/work/%s-%d" name (Unix.getpid ()) in
  Wl.mkdir_p work;
  let ctx = { Wl.seed; seconds; traced; size; work; racedet } in
  let wpins = Json.member name pins in
  let o =
    Fun.protect
      ~finally:(fun () ->
        Wl.rm_rf work;
        try Sys.rmdir (Filename.dirname work) with Sys_error _ -> ())
      (fun () ->
        try run ctx wpins
        with e ->
          { Wl.e2e = []; layers = []; attempted = 1; facts = [];
            failures = [ "workload aborted: " ^ Printexc.to_string e ] })
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* Pinned facts hold for the full-size inputs of the pinned seed. *)
  if size = Wl.Full && seed = pinned_seed pins && name <> "verify-sweep" then begin
    match wpins with
    | None -> problem "pins.json has no entry for %s" name
    | Some p ->
      List.iter
        (fun (k, want) ->
          match (List.assoc_opt k o.Wl.facts, want) with
          | Some got, _ when got = want -> ()
          (* racy-dense pins one entry per schedule; a short run may not
             reach all of them *)
          | Some (Json.Arr got), Json.Arr all when List.for_all (fun g -> List.mem g all) got -> ()
          | got, _ ->
            problem "generator drifted from its pin: %s %s = %s, pinned %s" name k
              (match got with Some g -> Json.to_string g | None -> "missing")
              (Json.to_string want))
        (Json.to_obj p)
  end;
  List.iter
    (fun (m : metric_spec) ->
      match List.find_opt (fun (n, _, _) -> n = m.name) o.Wl.e2e with
      | Some (_, v, _) when Float.is_finite v -> ()
      | _ -> problem "end-to-end metric %s is missing or not finite" m.name)
    spec.e2e;
  if traced then begin
    List.iter
      (fun (n, _) ->
        if not (List.exists (fun (m : metric_spec) -> m.name = n) spec.layers) then
          problem "per-layer metric %s is not listed in BENCHMARK.json" n)
      o.Wl.layers;
    if name = "ring-long" || name = "racy-dense" then
      List.iter
        (fun n ->
          let v = Option.value ~default:0. (List.assoc_opt n o.Wl.layers) in
          if v < 0.90 then problem "%s = %.3f: timed stages cover less than 90%% of the pipeline" n v)
        [ "analyze.stage_coverage"; "stream.stage_coverage" ]
  end;
  let failures = o.Wl.failures @ List.rev !problems in
  let e2e =
    List.map
      (fun (m : metric_spec) ->
        let v, n =
          match List.find_opt (fun (k, _, _) -> k = m.name) o.Wl.e2e with
          | Some (_, v, n) -> (v, n)
          | None -> (nan, 0)
        in
        (m, v, n))
      spec.e2e
  in
  let layers =
    List.map (fun (m : metric_spec) -> (m, Option.value ~default:0. (List.assoc_opt m.name o.Wl.layers))) spec.layers
  in
  Printf.printf "%s: seed %d, %g s, %s, %d operations, %d failed\n" name seed seconds
    (if traced then "traced" else "untraced")
    o.Wl.attempted (List.length failures);
  List.iter (fun ((m : metric_spec), v, n) -> Printf.printf "  %-22s %14.6g %-8s n=%d\n" m.name v m.unit_ n) e2e;
  if traced then
    List.iter (fun ((m : metric_spec), v) -> Printf.printf "  %-38s %14.6g %s\n" m.name v m.unit_) layers;
  List.iteri (fun i f -> if i < 20 then Printf.printf "  FAILED: %s\n" f) failures;
  if List.length failures > 20 then Printf.printf "  ... %d more failures\n" (List.length failures - 20);
  let obj l =
    Json.Obj
      (List.map
         (fun ((m : metric_spec), v) ->
           (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
         l)
  in
  let e2e_obj = obj (List.map (fun (m, v, _) -> (m, v)) e2e) in
  let layer_obj = obj layers in
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [ ("workload", Json.Str name); ("seed", Json.Num (float seed));
             ("seconds", Json.Num seconds); ("traced", Json.Bool traced);
             ("correct", Json.Bool (failures = [])); ("attempted", Json.Num (float o.Wl.attempted));
             ("failed", Json.Num (float (List.length failures)));
             ("failures", Json.Arr (List.map (fun f -> Json.Str f) failures));
             ("metrics", e2e_obj);
             ("samples", Json.Obj (List.map (fun ((m : metric_spec), _, n) -> (m.name, Json.Num (float n))) e2e));
             ("layers", if traced then layer_obj else Json.Obj []);
             ("facts", Json.Obj o.Wl.facts) ]))
    out;
  Option.iter (fun path -> Obs.write_trace path ~workload:name (Obs.spans ())) spans_out;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failures = []));
            ("attempted", Json.Num (float (max 1 o.Wl.attempted)));
            ("failed", Json.Num (float (List.length failures)));
            ("metrics", if traced then layer_obj else e2e_obj) ]));
  if failures = [] then 0 else 1

(* -- every workload, each in a child process --------------------------------- *)

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let full_run ~spec ~seed ~seconds ~traced ~size ~write_pins =
  let results = "bench/e2e/results" in
  let ts = timestamp () in
  let keep = size = Wl.Full in
  let tmp = Printf.sprintf "bench/e2e/work/run-%d" (Unix.getpid ()) in
  Wl.mkdir_p tmp;
  if keep then Wl.mkdir_p results;
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        Wl.rm_rf tmp;
        try Sys.rmdir (Filename.dirname tmp) with Sys_error _ -> ())
      (fun () ->
        List.map
          (fun (name, _) ->
            let out = Filename.concat tmp (name ^ ".json") in
            let args =
              [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
                "--trace"; (if traced then "1" else "0"); "--out"; out ]
              @ (if size = Wl.Smoke then [ "--smoke" ] else [])
              @
              if traced && keep then
                [ "--spans"; Filename.concat results (Printf.sprintf "%s-%s.trace.json" ts name) ]
              else []
            in
            (* a smoke run (the test suite's) stays silent unless it fails *)
            let stdout =
              if keep then Unix.stdout else Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0
            in
            let pid =
              Unix.create_process Sys.executable_name
                (Array.of_list (Sys.executable_name :: args))
                Unix.stdin stdout Unix.stderr
            in
            if not keep then Unix.close stdout;
            let _, status = Unix.waitpid [] pid in
            match Json.read_file out with
            | Ok j -> (name, j)
            | Error m ->
              ( name,
                Json.Obj
                  [ ("correct", Json.Bool false);
                    ( "failures",
                      Json.Arr
                        [ Json.Str
                            (Printf.sprintf "child exited (%s) without a result: %s"
                               (match status with
                                | Unix.WEXITED c -> Printf.sprintf "code %d" c
                                | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                                | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
                               m) ] ) ] ))
          workloads)
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Num 1.); ("timestamp", Json.Str ts); ("seed", Json.Num (float seed));
        ("seconds", Json.Num seconds); ("traced", Json.Bool traced);
        ("nproc", Json.Num (float (Domain.recommended_domain_count ())));
        ("workloads", Json.Obj outcomes) ]
  in
  if keep then begin
    Json.write_file (Filename.concat results (ts ^ ".json")) doc;
    Json.write_file (Filename.concat results "latest.json") doc;
    Printf.printf "wrote %s\n" (Filename.concat results (ts ^ ".json"))
  end;
  if write_pins then begin
    let facts name = Json.get [ "facts" ] (List.assoc name outcomes) in
    Json.write_file pins_path
      (Json.Obj
         (("seed", Json.Num (float seed))
          :: List.map
               (fun (name, _) ->
                 (name, if name = "verify-sweep" then Json.get [ "verdicts" ] (facts name) else facts name))
               workloads));
    Printf.printf "wrote %s\n" pins_path
  end;
  let bad = List.filter (fun (_, j) -> Json.member "correct" j <> Some (Json.Bool true)) outcomes in
  if keep then begin
    Printf.printf "\n%-14s %-22s %14s %-8s %s\n" "workload" "metric" "value" "unit" "samples";
    List.iter
      (fun (name, j) ->
        List.iter
          (fun (m : metric_spec) ->
            Printf.printf "%-14s %-22s %14.6g %-8s %.0f\n" name m.name
              (Json.num [ "metrics"; m.name; "value" ] j)
              m.unit_
              (Json.num [ "samples"; m.name ] j))
          spec.e2e;
        Printf.printf "%-14s %-22s %14.0f\n" name "failed" (Json.num [ "failed" ] j))
      outcomes
  end;
  List.iter
    (fun (name, j) ->
      List.iter
        (fun f -> Printf.printf "FAILED: %s: %s\n" name (Option.value ~default:"?" (Json.to_str f)))
        (Json.to_list (Json.get [ "failures" ] j)))
    bad;
  if bad = [] || write_pins then 0 else 1

(* -- compare ----------------------------------------------------------------- *)

let result_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".json" && f <> "latest.json"
           && not (Filename.check_suffix f ".trace.json"))
    |> List.map (Filename.concat path)
  else [ path ]

(* value of (workload, metric) in every result file of a set *)
let values files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let j = ok_or_die (Json.read_file f) in
      List.iter
        (fun (w, o) ->
          List.iter
            (fun (m, v) ->
              let x = Json.num [ "value" ] v in
              if Float.is_finite x then
                Hashtbl.replace tbl (w, m) (x :: Option.value ~default:[] (Hashtbl.find_opt tbl (w, m))))
            (Json.to_obj (Json.get [ "metrics" ] o)))
        (Json.to_obj (Json.get [ "workloads" ] j)))
    files;
  tbl

let compare_sets ~spec a b =
  let va = values (result_files a) and vb = values (result_files b) in
  Printf.printf "%-14s %-18s %12s %12s %12s | %12s %12s %12s | %8s %s\n" "workload" "metric" "A q1" "A median"
    "A q3" "B q1" "B median" "B q3" "change" "verdict";
  let regressed = ref false in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : metric_spec) ->
          match (Hashtbl.find_opt va (w, m.name), Hashtbl.find_opt vb (w, m.name)) with
          | Some xa, Some xb ->
            let q l = let q1, q3 = Obs.quartiles l in (q1, Obs.median l, q3) in
            let a1, am, a3 = q xa and b1, bm, b3 = q xb in
            let spread = Float.max ((a3 -. a1) /. am) ((b3 -. b1) /. bm) in
            let change = (bm -. am) /. am in
            let worse = if m.higher then -.change else change in
            let verdict =
              if spread > m.bound then "unresolved"
              else if worse > m.bound then (regressed := true; "regressed")
              else if worse < -.m.bound then "improved"
              else "same"
            in
            Printf.printf "%-14s %-18s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.1f%% %s (n=%d/%d, spread %.1f%%, bound %.0f%%)\n"
              w m.name a1 am a3 b1 bm b3 (100. *. change) verdict (List.length xa) (List.length xb)
              (100. *. spread) (100. *. m.bound)
          | _ -> Printf.printf "%-14s %-18s missing in one set\n" w m.name)
        spec.e2e)
    workloads;
  if !regressed then 1 else 0

(* -- command line ------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let flag key = List.mem key args in
  let spec = load_spec () in
  match args with
  | "compare" :: a :: b :: _ -> exit (compare_sets ~spec a b)
  | _ ->
    let pins = ok_or_die (Json.read_file pins_path) in
    let int key default =
      match opt key args with
      | None -> default
      | Some v -> (match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" key)
    in
    let size = if flag "--smoke" then Wl.Smoke else Wl.Full in
    let seed = int "--seed" (pinned_seed pins) in
    let seconds =
      match opt "--seconds" args with
      | Some s -> (match float_of_string_opt s with Some f when f > 0. -> f | _ -> die "--seconds expects a positive number")
      | None -> if size = Wl.Smoke then 0.5 else spec.run_seconds
    in
    (* _build/default/bench/e2e/main.exe next to _build/default/bin/racedet.exe *)
    let racedet = Filename.concat (Filename.dirname Sys.executable_name) "../../bin/racedet.exe" in
    (match opt "--workload" args with
     | Some name ->
       exit
         (run_workload ~spec ~pins ~racedet ~name ~seed ~seconds
            ~traced:(int "--trace" 0 = 1) ~size ~out:(opt "--out" args) ~spans_out:(opt "--spans" args))
     | None ->
       exit
         (full_run ~spec ~seed ~seconds
            ~traced:(flag "--trace" || size = Wl.Smoke)
            ~size ~write_pins:(flag "--write-pins")))
