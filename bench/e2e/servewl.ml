(* serve-mixed: many short sessions against a real `racedet serve`
   daemon, first in a closed loop (throughput), then in an open loop at
   a fixed rate (latency).

   The daemon runs with its defaults (2 shards) plus checkpointing every
   64 events, so checkpoint writes share the shards with analysis.  Every
   session's verdict and report must equal the local reference — the
   salvage pipeline the daemon itself runs, rendered with the shared
   renderer — and about one session in ten carries a damaged trace that
   must come back degraded. *)

open Wl

let span = Obs.span

type fixture = {
  name : string;
  trace : string;
  report : string;
  cls : Serve.Protocol.outcome_class;
  events : int;
  damaged : bool;
}

(* Open-loop arrival rate, sessions per second: about half of the
   closed-loop capacity measured on a 2-core x86-64 host. *)
let open_rate = function Full -> 160. | Smoke -> 40.

let checkpoint_every = 64

(* The local reference for a damaged trace: the salvage pipeline a serve
   session runs, rendered with the shared renderer (Serve.Harness does the
   same for the clean fixtures). *)
let reference text =
  match Racedetect.Stream.analyze_salvage_string text with
  | Error m -> Error m
  | Ok (v, st) ->
    let races a = List.length (Racedetect.Postmortem.reported_races a) in
    let cls =
      match v with
      | Racedetect.Postmortem.Race_free _ -> Serve.Protocol.Race_free
      | Racedetect.Postmortem.Races a -> Serve.Protocol.Races (races a)
      | Racedetect.Postmortem.Degraded { analysis; _ } -> Serve.Protocol.Degraded (races analysis)
    in
    Ok (cls, Serve.Protocol.render_verdict_report v, st.Racedetect.Stream.total_events)

let class_name = function
  | Serve.Protocol.Race_free -> "race-free"
  | Serve.Protocol.Races _ -> "races"
  | Serve.Protocol.Degraded _ -> "degraded"
  | Serve.Protocol.Shed_c -> "shed"
  | Serve.Protocol.Aborted_c -> "aborted"
  | Serve.Protocol.Error_c -> "error"

(* Stock programs and generated racy / race-free programs, traced by
   Serve.Harness (WO, adversarial schedule, v2 stream layout, reference
   verdicts), plus damaged copies of every ninth trace. *)
let fixtures ~seed size =
  let stock, n_gen =
    match size with
    | Full -> (Minilang.Programs.all, 14)
    | Smoke -> (List.filteri (fun i _ -> i < 5) Minilang.Programs.all, 2)
  in
  let config =
    { Minilang.Gen.n_procs = 4; n_shared = 4; n_locks = 2; ops_per_proc = 60; sync_freq = 4 }
  in
  let programs =
    stock
    @ List.init n_gen (fun k ->
          (Printf.sprintf "racy%d" k, Minilang.Gen.random_racy ~config ~seed:((seed * 100) + k) ()))
    @ List.init n_gen (fun k ->
          ( Printf.sprintf "racefree%d" k,
            Minilang.Gen.random_racefree ~config ~seed:((seed * 100) + 50 + k) () ))
  in
  let clean =
    match Serve.Harness.fixtures ~seeds_per_program:1 programs with
    | Error m -> failwith ("fixtures: " ^ m)
    | Ok fx ->
      Array.to_list fx
      |> List.map (fun (f : Serve.Harness.fixture) ->
             { name = f.f_name; trace = f.f_trace; report = f.f_report; cls = f.f_cls;
               events = f.f_events; damaged = false })
  in
  (* A damaged copy must decode to a degraded verdict: damage that only
     hits a benign line (a lost epoch mark) or the header is re-drawn. *)
  let damage k (f : fixture) =
    let rec go attempt =
      if attempt > 50 then failwith (Printf.sprintf "fixture %s: no degrading damage found" f.name);
      let trace =
        Tracing.Corrupt.apply ~seed:((seed * 7919) + (k * 101) + attempt)
          (Tracing.Corrupt.Garble_bytes 2) f.trace
      in
      match reference trace with
      | Ok ((Serve.Protocol.Degraded _ as cls), report, events) ->
        { name = f.name ^ "~damaged"; trace; report; cls; events; damaged = true }
      | _ -> go (attempt + 1)
    in
    go 0
  in
  let damaged = List.filteri (fun i _ -> i mod 9 = 4) clean |> List.mapi damage in
  Array.of_list (clean @ damaged)

(* -- the daemon ------------------------------------------------------------ *)

type daemon = { pid : int; addr : Serve.Server.addr; out : Unix.file_descr }

let start_daemon ctx ~dir =
  if not (Sys.file_exists ctx.racedet) then
    failwith (ctx.racedet ^ " not found: build it with `dune build bin/racedet.exe`");
  mkdir_p (Filename.concat dir "ckpt");
  let sock = Filename.concat dir "sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  (* the daemon logs only noteworthy events: start, stop, shedding,
     handler exceptions *)
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let argv =
    [| ctx.racedet; "serve"; "--listen"; "unix:" ^ sock; "--checkpoint-dir";
       Filename.concat dir "ckpt"; "--checkpoint-every"; string_of_int checkpoint_every |]
  in
  let pid = Unix.create_process ctx.racedet argv Unix.stdin out_w log in
  Unix.close out_w;
  Unix.close log;
  (* the daemon prints one "serving on ADDR" line once it accepts *)
  let ic = Unix.in_channel_of_descr out_r in
  match In_channel.input_line ic with
  | Some line when String.starts_with ~prefix:"serving on " line ->
    { pid; addr = Serve.Server.Unix_sock sock; out = out_r }
  | _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith "racedet serve did not report ready"

let stop_daemon d =
  (match Serve.Client.stop d.addr with
   | Ok () -> ()
   | Error _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  Unix.close d.out

(* -- one session, as the load generator sees it --------------------------- *)

let read_all fd =
  let buf = Bytes.create 65536 and b = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents b
    | n -> Buffer.add_subbytes b buf 0 n; go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* "verdict ...\nreport N\n<N bytes>", then the server closes. *)
let parse_reply s =
  match String.index_opt s '\n' with
  | None -> Error "truncated reply"
  | Some i ->
    (match String.index_from_opt s (i + 1) '\n' with
     | None -> Error "truncated reply"
     | Some j ->
       let rline = String.sub s (i + 1) (j - i - 1) in
       (match (Serve.Protocol.parse_verdict_line (String.sub s 0 i), String.split_on_char ' ' rline) with
        | Ok (cls, events, _), [ "report"; n ] when int_of_string_opt n = Some (String.length s - j - 1)
          ->
          Ok (cls, events, String.sub s (j + 1) (String.length s - j - 1))
        | Error m, _ -> Error m
        | Ok _, _ -> Error ("bad report header: " ^ rline)))

let session addr ~id (f : fixture) =
  match span "client.open" (fun () -> Serve.Client.raw_open addr ~id) with
  | Error m -> Error m
  | Ok (fd, offset) ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        if offset <> 0 then Error (Printf.sprintf "fresh session offered resume offset %d" offset)
        else
          match span "client.send" (fun () -> Serve.Client.raw_send fd f.trace) with
          | Error m -> Error m
          | Ok () ->
            span "client.wait" (fun () ->
                match Unix.shutdown fd Unix.SHUTDOWN_SEND with
                | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
                | () -> (
                  match read_all fd with
                  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
                  | reply -> parse_reply reply)))

let verify (f : fixture) = function
  | Error m -> Some m
  | Ok (cls, events, report) ->
    if f.damaged && cls = Serve.Protocol.Race_free then Some "damaged trace certified race-free"
    else if cls <> f.cls then
      Some (Printf.sprintf "verdict %s, reference %s" (class_name cls) (class_name f.cls))
    else if events <> Some f.events then Some "event count differs from reference"
    else if report <> f.report then Some "report bytes differ from reference"
    else None

(* -- load ------------------------------------------------------------------ *)

(* One session as the load generator timed it. *)
type sample = {
  traced : bool;
  ok : bool;
  events : int;
  due : float;
  started : float;
  finished : float;
}

(* Run [worker k] on [n] domains (the calling one included). *)
let on_domains n worker =
  let others = List.init (n - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
  let mine = worker 0 in
  mine @ List.concat_map Domain.join others

let run_one (ctx : ctx) log addr (fx : fixture array) order ~phase i ~due =
  let f = fx.(order.(i mod Array.length order)) in
  let traced = ctx.traced && i mod 2 = 0 in
  Obs.set_tracing traced;
  let started = Obs.now () in
  let reply = span ~unit_id:i "session" (fun () -> session addr ~id:(Printf.sprintf "%s%d" phase i) f) in
  let finished = Obs.now () in
  Obs.set_tracing false;
  (match reply with
   | Ok ((Serve.Protocol.Race_free | Serve.Protocol.Races _), _, _) -> decide log
   | _ -> ());
  let problem = verify f reply in
  Option.iter (fun m -> fail log "%s session %d (%s): %s" phase i f.name m) problem;
  { traced; ok = problem = None; events = f.events; due; started; finished }

let closed_loop (ctx : ctx) log addr fx order ~workers ~seconds =
  let next = Atomic.make 0 in
  let t0 = Obs.now () in
  let results =
    on_domains workers (fun _ ->
        let rec go acc =
          if Obs.now () -. t0 >= seconds then acc
          else
            let i = Atomic.fetch_and_add next 1 in
            go (run_one ctx log addr fx order ~phase:"a" i ~due:(Obs.now ()) :: acc)
        in
        go [])
  in
  (results, t0)

(* Closed-loop throughput: events of the sessions finished in each of
   [n] equal windows of the loop's time, median over the windows, so one
   stalled second does not set the run's number. *)
let windowed_rate results ~t0 ~seconds =
  let n = 8 in
  let width = seconds /. float n in
  let events = Array.make n 0 in
  List.iter
    (fun r ->
      let w = int_of_float ((r.finished -. t0) /. width) in
      if r.ok && w >= 0 && w < n then events.(w) <- events.(w) + r.events)
    results;
  (Obs.median (Array.to_list (Array.map (fun e -> float e /. width) events)), n)

let open_loop (ctx : ctx) log addr fx order ~workers ~seconds ~rate =
  let n = max 1 (int_of_float (seconds *. rate)) in
  let next = Atomic.make 0 in
  let t0 = Obs.now () in
  on_domains workers (fun _ ->
      let rec go acc =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then acc
        else begin
          let due = t0 +. (float i /. rate) in
          let wait = due -. Obs.now () in
          if wait > 0. then Unix.sleepf wait;
          go (run_one ctx log addr fx order ~phase:"b" i ~due :: acc)
        end
      in
      go [])

(* -- the workload ---------------------------------------------------------- *)

let server_counters addr =
  match Serve.Client.metrics addr with
  | Error m -> failwith ("metrics: " ^ m)
  | Ok snap ->
    fun name -> float (Option.value ~default:0 (Serve.Client.metric_value snap name))

let serve_mixed (ctx : ctx) =
  let workers = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let dir = Filename.concat ctx.work "serve" in
  let daemon = ref None in
  let stop () = Option.iter stop_daemon !daemon; daemon := None in
  Fun.protect ~finally:stop (fun () ->
      let setup_s, fx =
        setup_median ~between:stop (fun () ->
            let fx = fixtures ~seed:ctx.seed ctx.size in
            let d = start_daemon ctx ~dir in
            daemon := Some d;
            (* One session alone before any concurrent load.  Two shards
               forcing Tracing.Crc32's lazy table at once raise
               CamlinternalLazy.Undefined in one of them (OCaml 5 lazy
               values are not domain-safe), which fails that session. *)
            (match verify fx.(0) (session d.addr ~id:"warmup" fx.(0)) with
             | None -> ()
             | Some m -> failwith ("warm-up session: " ^ m));
            fx)
      in
      let d = Option.get !daemon in
      let rng = Random.State.make [| 0x5e55; ctx.seed |] in
      let order = Array.init (Array.length fx) Fun.id in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let log = log () in
      let before = server_counters d.addr in
      let closed_seconds = ctx.seconds /. 3. in
      let closed, closed_t0 = closed_loop ctx log d.addr fx order ~workers ~seconds:closed_seconds in
      let opened =
        open_loop ctx log d.addr fx order ~workers ~seconds:(2. *. ctx.seconds /. 3.)
          ~rate:(open_rate ctx.size)
      in
      let after = server_counters d.addr in
      let peak = Option.value ~default:nan (Obs.peak_rss_mb d.pid) in
      stop ();
      if log.failed <> [] then
        In_channel.with_open_text (Filename.concat dir "daemon.log") In_channel.input_lines
        |> List.iter (fun line -> prerr_endline ("serve-mixed: daemon: " ^ line));
      let all = closed @ opened in
      log.attempted <- List.length all;
      let rate, windows = windowed_rate closed ~t0:closed_t0 ~seconds:closed_seconds in
      let latency r = r.finished -. r.due in
      let plain = List.filter (fun r -> not r.traced) opened in
      let lat = List.map latency plain in
      let layers =
        if not ctx.traced then []
        else begin
          let spans = Obs.spans () in
          let selfs = Obs.self_times spans in
          let delta name = after name -. before name in
          let sessions = float (List.length all) in
          let p50 = Obs.median lat in
          [ ("tracing.overhead",
             overhead
               ~traced:(List.map latency (List.filter (fun r -> r.traced) opened))
               ~untraced:lat);
            ("session.p99_over_p50", if p50 > 0. then Obs.quantile 0.99 lat /. p50 else 0.);
            ( "loadgen.late_ratio",
              float (List.length (List.filter (fun r -> r.started -. r.due > 0.001) opened))
              /. float (max 1 (List.length opened)) );
            ("loadgen.sessions", sessions);
            ("server.completed", delta "completed");
            ("server.degraded", delta "degraded");
            ("server.checkpoints", delta "checkpoints");
            ("server.checkpoint_lag_hwm", after "checkpoint_lag_hwm");
            ("server.bytes_in", delta "bytes_in");
            ( "server.shed_ratio",
              (delta "shed" +. delta "aborted" +. delta "errors") /. Float.max 1. sessions ) ]
          @ shares ~wall:(total_duration spans "session") selfs
              [ ("client.open_share", "client.open");
                ("client.send_share", "client.send");
                ("client.wait_share", "client.wait") ]
        end
      in
      let count c = Array.fold_left (fun n (f : fixture) -> if class_name f.cls = c then n + 1 else n) 0 fx in
      {
        e2e =
          [ ("setup_s", setup_s, setup_reps);
            ("throughput_per_s", rate, windows);
            ("latency_p50_ms", 1000. *. Obs.median lat, List.length lat);
            ("peak_rss_mb", peak, 1);
            ("decided_ratio", decided_ratio log, log.attempted) ];
        layers;
        attempted = log.attempted;
        failures = List.rev log.failed;
        facts =
          [ ("fixtures", Json.Num (float (Array.length fx)));
            ("events", Json.Num (float (Array.fold_left (fun n (f : fixture) -> n + f.events) 0 fx)));
            ("trace_bytes", Json.Num (float (Array.fold_left (fun n (f : fixture) -> n + String.length f.trace) 0 fx)));
            ( "report_md5",
              Json.Str (Obs.md5 (String.concat "\000" (Array.to_list (Array.map (fun (f : fixture) -> f.report) fx)))) );
            ( "verdict",
              Json.Str
                (Printf.sprintf "race-free %d, races %d, degraded %d" (count "race-free")
                   (count "races") (count "degraded")) ) ];
      })
