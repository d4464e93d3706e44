(* The two trace workloads, ring-long and racy-dense, and the post-mortem
   pipelines they time.

   Untraced, each pipeline is the public entry point the CLI uses, so an
   end-to-end number moves whenever that entry point does.  Traced, the
   same work is spelled out stage by stage, one span per library call,
   which is what gives the per-layer breakdown. *)

open Wl

module Pm = Racedetect.Postmortem

let span = Obs.span

type run = {
  report : string;
  verdict : Pm.verdict;
  stream_stats : Racedetect.Stream.stats option;
  words : float;  (* words allocated while the pipeline ran *)
}

let measured f =
  let w0 = Obs.allocated_words () in
  let r = f () in
  (r, Obs.allocated_words () -. w0)

(* `racedet analyze FILE`: decode, analyze, classify, render. *)
let batch ~traced path =
  let go () =
    if not traced then
      match Tracing.Codec.read_file path with
      | Error m -> Error m
      | Ok t ->
        let v = Pm.verdict (Pm.analyze t) in
        Ok (v, Serve.Protocol.render_verdict_report v)
    else
      span "pipeline.analyze" (fun () ->
          match span "codec.decode" (fun () -> Tracing.Codec.read_file path) with
          | Error m -> Error m
          | Ok trace ->
            let hb = span "hb.build" (fun () -> Racedetect.Hb.build trace) in
            let races = span "race.find_all" (fun () -> Racedetect.Race.find_all hb) in
            let augmented = span "augment.build" (fun () -> Racedetect.Augment.build hb races) in
            let partitions =
              span "partition.compute" (fun () -> Racedetect.Partition.compute augmented)
            in
            let v =
              Pm.verdict
                { Pm.trace; hb; races; augmented; partitions; order = `Hb1; shb_extra = [] }
            in
            Ok (v, span "report.render" (fun () -> Serve.Protocol.render_verdict_report v)))
  in
  match measured go with
  | Error m, _ -> Error m
  | Ok (verdict, report), words -> Ok { report; verdict; stream_stats = None; words }

(* `racedet analyze --stream FILE`. *)
let stream ~traced path =
  let go () =
    if not traced then
      Result.map
        (fun (a, st) ->
          let v = Pm.verdict a in
          (v, Serve.Protocol.render_verdict_report v, st))
        (Racedetect.Stream.analyze_file path)
    else
      span "pipeline.stream" (fun () ->
          (* Codec.fold_file's loop, unrolled so decoding and pushing are
             timed apart: one span per 64 KiB chunk, not per record. *)
          let engine = Racedetect.Stream.create () in
          let decoder = Tracing.Codec.decoder () in
          let collect acc r = Ok (r :: acc) in
          let push = function
            | Error m -> Error m
            | Ok records ->
              span "stream.push" (fun () ->
                  List.fold_left
                    (fun acc r -> Result.bind acc (fun () -> Racedetect.Stream.push engine r))
                    (Ok ()) (List.rev records))
          in
          let fed =
            In_channel.with_open_bin path (fun ic ->
                let buf = Bytes.create 65536 in
                let rec go () =
                  match span "io.read" (fun () -> In_channel.input ic buf 0 (Bytes.length buf)) with
                  | 0 -> push (span "codec.feed" (fun () -> Tracing.Codec.finish_feed decoder ~f:collect []))
                  | n ->
                    let chunk = Bytes.sub_string buf 0 n in
                    Result.bind
                      (push (span "codec.feed" (fun () -> Tracing.Codec.feed decoder chunk ~f:collect [])))
                      go
                in
                go ())
          in
          match fed with
          | Error m -> Error m
          | Ok () ->
            (match span "stream.finish" (fun () -> Racedetect.Stream.finish engine) with
             | Error m -> Error m
             | Ok (a, st) ->
               let v = Pm.verdict a in
               Ok (v, span "report.render" (fun () -> Serve.Protocol.render_verdict_report v), st)))
  in
  match measured go with
  | Error m, _ -> Error m
  | Ok (verdict, report, st), words -> Ok { report; verdict; stream_stats = Some st; words }

(* `racedet trace --stream --v2 -o FILE`: simulate, segment into
   events, encode in the checksummed stream layout, write. *)
let produce ~traced ~max_steps ~sched program path =
  if not traced then begin
    let e = Minilang.Interp.run ~max_steps ~model:Memsim.Model.WO ~sched program in
    let t = Tracing.Trace.of_execution e in
    Tracing.Codec.write_stream_file ~version:Tracing.Codec.version_checksummed path t;
    (e, t)
  end
  else
    span "pipeline.trace" (fun () ->
        let e =
          span "interp.run" (fun () ->
              Minilang.Interp.run ~max_steps ~model:Memsim.Model.WO ~sched program)
        in
        let t = span "trace.of_execution" (fun () -> Tracing.Trace.of_execution e) in
        let text =
          span "codec.encode" (fun () ->
              Tracing.Codec.encode_stream ~version:Tracing.Codec.version_checksummed t)
        in
        span "io.write" (fun () -> Out_channel.with_open_bin path (fun oc -> output_string oc text));
        (e, t))

let verdict_class = function
  | Pm.Race_free _ -> "race-free"
  | Pm.Races _ -> "races"
  | Pm.Degraded _ -> "degraded"

(* Facts about one trace input and its report, as pinned in pins.json. *)
let input_facts ~path (r : run) =
  let a = Pm.verdict_analysis r.verdict in
  [ ("events", Json.Num (float (Tracing.Trace.n_events a.Pm.trace)));
    ("races", Json.Num (float (List.length (Pm.reported_races a))));
    ("trace_bytes", Json.Num (float (Unix.stat path).Unix.st_size));
    ("report_md5", Json.Str (Obs.md5 r.report));
    ("verdict", Json.Str (verdict_class r.verdict)) ]

(* One rep's clock.  Each pipeline starts after a full major collection,
   so it does not pay for the garbage of the one before; only the
   pipelines themselves are timed. *)
type clock = { mutable wall : float; mutable majors : int }

let timed clock f =
  Gc.full_major ();
  let m0 = Obs.major_collections () and t0 = Obs.now () in
  let r = f () in
  clock.wall <- clock.wall +. (Obs.now () -. t0);
  clock.majors <- clock.majors + (Obs.major_collections () - m0);
  r

(* Both pipelines over one trace file, checked against each other. *)
let analyze_both log clock ~traced ~unit_id path =
  let one name f =
    attempt log;
    match timed clock (fun () -> f ~traced path) with
    | Ok r ->
      (match r.verdict with Pm.Race_free _ | Pm.Races _ -> decide log | Pm.Degraded _ -> ());
      Some r
    | Error m ->
      fail log "unit %d: %s failed: %s" unit_id name m;
      None
  in
  let b = one "analyze" batch in
  let s = one "analyze --stream" stream in
  (match (b, s) with
   | Some b, Some s when b.report <> s.report ->
     fail log "unit %d: batch and stream reports differ (%s vs %s)" unit_id (Obs.md5 b.report)
       (Obs.md5 s.report)
   | _ -> ());
  (b, s)

(* Accumulated per-layer counts over the traced units. *)
type counts = {
  mutable units : int;
  mutable events : float;
  mutable ops : float;
  mutable bytes : float;
  mutable closure : float;
  mutable races : float;
  mutable data_races : float;
  mutable edges : float;
  mutable parts : float;
  mutable first : float;
  mutable report_bytes : float;
  mutable peak_live : float;
  mutable retired : float;
  mutable forced : float;
  mutable words_analyze : float;
  mutable words_stream : float;
  mutable majors : float;
}

let record c ~path (b : run option) (s : run option) =
  c.units <- c.units + 1;
  c.bytes <- c.bytes +. float (Unix.stat path).Unix.st_size;
  Option.iter
    (fun (b : run) ->
      let a = Pm.verdict_analysis b.verdict in
      let n = float (Tracing.Trace.n_events a.Pm.trace) in
      c.events <- c.events +. n;
      if not (Racedetect.Hb.uses_clocks a.Pm.hb) then c.closure <- c.closure +. 1.;
      c.races <- c.races +. float (List.length a.Pm.races);
      c.data_races <- c.data_races +. float (List.length (Pm.data_races a));
      c.edges <- c.edges +. float (Graphlib.Digraph.n_edges (Racedetect.Augment.graph a.Pm.augmented));
      c.parts <- c.parts +. float (List.length (Racedetect.Partition.partitions a.Pm.partitions));
      c.first <- c.first +. float (List.length (Pm.first_partitions a));
      c.report_bytes <- c.report_bytes +. float (String.length b.report);
      c.words_analyze <- c.words_analyze +. (b.words /. n))
    b;
  Option.iter
    (fun (s : run) ->
      Option.iter
        (fun (st : Racedetect.Stream.stats) ->
          c.peak_live <- c.peak_live +. float st.peak_live;
          c.retired <- c.retired +. float st.retired;
          c.forced <- c.forced +. float st.forced_retired;
          c.words_stream <- c.words_stream +. (s.words /. float (max 1 st.total_events)))
        s.stream_stats)
    s

let layer_metrics c spans =
  let selfs = Obs.self_times spans in
  let wall =
    List.fold_left (fun acc n -> acc +. total_duration spans n) 0.
      [ "pipeline.trace"; "pipeline.analyze"; "pipeline.stream" ]
  in
  let per x = if c.units > 0 then x /. float c.units else 0. in
  let rate name =
    let d = total_duration spans name in
    if d > 0. then c.events /. d else 0.
  in
  shares ~wall selfs
    [ ("interp.run_share", "interp.run");
      ("trace.of_execution_share", "trace.of_execution");
      ("codec.encode_share", "codec.encode");
      ("io.write_share", "io.write");
      ("codec.decode_share", "codec.decode");
      ("codec.feed_share", "codec.feed");
      ("io.read_share", "io.read");
      ("hb.build_share", "hb.build");
      ("race.find_all_share", "race.find_all");
      ("augment.build_share", "augment.build");
      ("partition.compute_share", "partition.compute");
      ("report.render_share", "report.render");
      ("stream.push_share", "stream.push");
      ("stream.finish_share", "stream.finish") ]
  @ [ ("pipeline.trace_events_per_s", rate "pipeline.trace");
      ("pipeline.analyze_events_per_s", rate "pipeline.analyze");
      ("pipeline.stream_events_per_s", rate "pipeline.stream");
      ("trace.events", per c.events);
      ("interp.ops", per c.ops);
      ("codec.bytes", per c.bytes);
      ("hb.closure_fallback", c.closure);
      ("race.races", per c.races);
      ("race.data_races", per c.data_races);
      ("augment.edges", per c.edges);
      ("partition.parts", per c.parts);
      ("partition.first", per c.first);
      ("report.bytes", per c.report_bytes);
      ("stream.peak_live", per c.peak_live);
      ("stream.retired", per c.retired);
      ("stream.forced", per c.forced);
      ("stream.retired_ratio", if c.events > 0. then c.retired /. c.events else 0.);
      ("gc.alloc_words_per_event.analyze", per c.words_analyze);
      ("gc.alloc_words_per_event.stream", per c.words_stream);
      ("gc.major_collections", per c.majors);
      ("analyze.stage_coverage", coverage selfs "pipeline.analyze");
      ("stream.stage_coverage", coverage selfs "pipeline.stream") ]

let new_counts () =
  { units = 0; events = 0.; ops = 0.; bytes = 0.; closure = 0.; races = 0.; data_races = 0.;
    edges = 0.; parts = 0.; first = 0.; report_bytes = 0.; peak_live = 0.; retired = 0.;
    forced = 0.; words_analyze = 0.; words_stream = 0.; majors = 0. }

(* The measured loop shared by both workloads.  [rep ~traced clock i]
   runs unit [i], timing its pipelines on [clock], and returns the events
   it pushed through them.  In a traced run every other rep runs without
   spans: those reps give the end-to-end numbers and the tracing
   overhead. *)
let measure ctx log c ~setup_s ~rep ~facts =
  let traced_walls = ref [] and walls = ref [] and rates = ref [] and peak = ref nan in
  ignore
    (repeat ~seconds:ctx.seconds ~min:(if ctx.traced then 2 else 1) (fun i ->
         let traced = ctx.traced && i mod 2 = 0 in
         let clock = { wall = 0.; majors = 0 } in
         Obs.set_tracing traced;
         let events = rep ~traced clock i in
         Obs.set_tracing false;
         (* OCaml 5.1 never returns major-heap memory, so the peak is
            read after the first rep: later reps only add fragmentation *)
         if i = 0 then peak := Option.value ~default:nan (Obs.peak_rss_mb 0);
         if traced then begin
           c.majors <- c.majors +. float clock.majors;
           traced_walls := clock.wall :: !traced_walls
         end
         else begin
           walls := clock.wall :: !walls;
           rates := (events /. clock.wall) :: !rates
         end));
  let layers =
    if ctx.traced then
      ("tracing.overhead", overhead ~traced:!traced_walls ~untraced:!walls)
      :: layer_metrics c (Obs.spans ())
    else []
  in
  {
    e2e =
      [ ("setup_s", setup_s, setup_reps);
        ("throughput_per_s", Obs.median !rates, List.length !rates);
        ("latency_p50_ms", 1000. *. Obs.median !walls, List.length !walls);
        ("peak_rss_mb", !peak, 1);
        ("decided_ratio", decided_ratio log, log.attempted) ];
    layers;
    attempted = log.attempted;
    failures = List.rev log.failed;
    facts = facts ();
  }

(* -- ring-long ------------------------------------------------------------ *)

let ring_long ctx =
  let rounds = match ctx.size with Full -> 521 | Smoke -> 26 in
  let path = Filename.concat ctx.work "ring-long.trace" in
  let setup_s, t =
    setup_median (fun () ->
        let t = Ring.generate ~seed:ctx.seed ~rounds in
        Tracing.Codec.write_stream_file ~version:Tracing.Codec.version_checksummed path t;
        t)
  in
  let events = float (Tracing.Trace.n_events t) in
  let log = log () and c = new_counts () in
  let facts = ref [] in
  let rep ~traced clock i =
    let b, s = analyze_both log clock ~traced ~unit_id:i path in
    Option.iter
      (fun (b : run) ->
        let races = List.length (Pm.data_races (Pm.verdict_analysis b.verdict)) in
        check log (races = 1) "rep %d: ring-long must have exactly one data race, found %d" i races;
        if !facts = [] then facts := input_facts ~path b)
      b;
    if traced then record c ~path b s;
    2. *. events
  in
  measure ctx log c ~setup_s ~rep ~facts:(fun () -> !facts)

(* -- racy-dense ----------------------------------------------------------- *)

(* The program is fixed; the seed picks the schedules.  Consecutive reps
   cycle over [schedules] executions so one run's median does not hang
   on a single schedule's race count. *)
let program_seed = 11
let schedules = 4

let racy_dense ctx =
  let config =
    { Minilang.Gen.n_procs = 8; n_shared = 16; n_locks = 4; sync_freq = 8;
      ops_per_proc = (match ctx.size with Full -> 2000 | Smoke -> 100) }
  in
  let max_steps = 1_000_000 in
  let path = Filename.concat ctx.work "racy-dense.trace" in
  let setup_s, program =
    setup_median (fun () -> Minilang.Gen.random_racy ~config ~seed:program_seed ())
  in
  let log = log () and c = new_counts () in
  let facts = Array.make schedules None in
  let rep ~traced clock i =
    let sched_seed = (ctx.seed * schedules) + (i mod schedules) in
    let e, t =
      timed clock (fun () ->
          produce ~traced ~max_steps ~sched:(Memsim.Sched.random ~seed:sched_seed) program path)
    in
    check log (not e.Memsim.Exec.truncated) "rep %d: execution hit the %d-step bound" i max_steps;
    let b, s = analyze_both log clock ~traced ~unit_id:i path in
    Option.iter
      (fun (b : run) ->
        if facts.(i mod schedules) = None then
          facts.(i mod schedules) <-
            Some (Json.Obj (("sched_seed", Json.Num (float sched_seed)) :: input_facts ~path b)))
      b;
    if traced then begin
      record c ~path b s;
      c.ops <-
        c.ops +. float (Array.fold_left (fun acc ops -> acc + Array.length ops) 0 e.Memsim.Exec.by_proc)
    end;
    3. *. float (Tracing.Trace.n_events t)
  in
  measure ctx log c ~setup_s ~rep ~facts:(fun () ->
      [ ("inputs", Json.Arr (List.filter_map Fun.id (Array.to_list facts))) ])
