(* The serve daemon's contract, exercised against in-process servers on
   Unix sockets: every session's verdict and report are byte-identical
   to the local salvage pipeline, faults stay confined to their session,
   budgets shed with explicit verdicts, and a checkpointed server can be
   stopped and restarted without changing a single report byte. *)

let fixtures =
  lazy
    (let config =
       { Minilang.Gen.n_procs = 3; n_shared = 4; n_locks = 2; ops_per_proc = 60;
         sync_freq = 4 }
     in
     let programs =
       [ ("fig1b", Option.get (Minilang.Programs.find "fig1b"));
         ("counter_racy", Option.get (Minilang.Programs.find "counter_racy"));
         ("gen_racy", Minilang.Gen.random_racy ~config ~seed:3 ());
         ("gen_racefree", Minilang.Gen.random_racefree ~config ~seed:5 ()) ]
     in
     match Serve.Harness.fixtures ~seeds_per_program:2 programs with
     | Ok fx -> fx
     | Error e -> Alcotest.failf "fixtures: %s" e)

(* Every server gets its own short-lived temp dir — unix socket paths
   must stay under the ~100-byte sockaddr limit, so keep them in /tmp. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rdserve-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

type srv = {
  addr : Serve.Server.addr;
  stop : bool Atomic.t;
  dom : (unit, string) result Domain.t;
}

let start ?(shards = 2) ?(max_sessions = 64) ?(idle_timeout = 30.)
    ?(session_timeout = 0.) ?checkpoint_dir ?(resume = false)
    ?(checkpoint_every = 16) ?sock () =
  let sock =
    match sock with
    | Some s -> s
    | None -> Filename.concat (fresh_dir ()) "s.sock"
  in
  let addr = Serve.Server.Unix_sock sock in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let cfg =
    { (Serve.Server.default_config addr) with
      shards;
      max_sessions;
      idle_timeout;
      session_timeout;
      checkpoint_dir;
      checkpoint_every;
      resume;
      ready = (fun _ -> Atomic.set ready true) }
  in
  let dom = Domain.spawn (fun () -> Serve.Server.run ~stop cfg) in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get ready) then begin
    Atomic.set stop true;
    (match Domain.join dom with
     | Ok () -> Alcotest.fail "server never became ready"
     | Error e -> Alcotest.failf "server failed to start: %s" e)
  end;
  { addr; stop; dom }

let shutdown s =
  Atomic.set s.stop true;
  match Domain.join s.dom with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server exited with: %s" e

let run_session ?id s (f : Serve.Harness.fixture) =
  let id = Option.value id ~default:(String.map (fun c -> if c = '/' then '.' else c) f.Serve.Harness.f_name) in
  match Serve.Client.session s.addr ~id ~trace:f.Serve.Harness.f_trace with
  | Ok o -> o
  | Error e -> Alcotest.failf "session %s: %s" id e

let check_exact what (f : Serve.Harness.fixture) (o : Serve.Client.outcome) =
  if o.Serve.Client.cls <> f.Serve.Harness.f_cls then
    Alcotest.failf "%s: verdict class mismatch (exit %d, want %d)" what
      (Serve.Protocol.exit_code o.Serve.Client.cls)
      (Serve.Protocol.exit_code f.Serve.Harness.f_cls);
  Alcotest.(check string) (what ^ ": report bytes") f.Serve.Harness.f_report
    o.Serve.Client.report;
  Alcotest.(check (option int)) (what ^ ": events") (Some f.Serve.Harness.f_events)
    o.Serve.Client.events

(* -- verdict parity ---------------------------------------------------- *)

let test_verdict_parity () =
  let fx = Lazy.force fixtures in
  let s = start () in
  Array.iter (fun f -> check_exact "parity" f (run_session s f)) fx;
  shutdown s

(* -- concurrent sessions: no cross-talk -------------------------------- *)

let test_no_crosstalk () =
  let fx = Lazy.force fixtures in
  let s = start ~shards:2 () in
  (* several concurrent copies of every fixture: any state leakage
     between per-session engines changes some report's bytes *)
  let n = Array.length fx * 3 in
  let res =
    Engine.Parbatch.map ~jobs:6
      (fun i ->
        let f = fx.(i mod Array.length fx) in
        (f, Serve.Client.session s.addr ~id:(Printf.sprintf "x-%d" i)
              ~trace:f.Serve.Harness.f_trace))
      (Array.init n Fun.id)
  in
  Array.iter
    (fun (f, r) ->
      match r with
      | Error e -> Alcotest.failf "concurrent session: %s" e
      | Ok o -> check_exact "concurrent" f o)
    res;
  shutdown s

(* -- fault isolation: corrupt input degrades only its session ---------- *)

let test_corrupt_isolated () =
  let fx = Lazy.force fixtures in
  let s = start () in
  let f = fx.(0) in
  let damaged =
    Tracing.Corrupt.apply ~seed:1 (Tracing.Corrupt.Garble_bytes 4)
      f.Serve.Harness.f_trace
  in
  (match Racedetect.Stream.analyze_salvage_string damaged with
   | Ok (v, st) ->
     (* local salvage accepts it: the server must agree byte-for-byte *)
     (match Serve.Client.session s.addr ~id:"corrupt" ~trace:damaged with
      | Error e -> Alcotest.failf "corrupt session: %s" e
      | Ok o ->
        Alcotest.(check string) "corrupt report"
          (Serve.Protocol.render_verdict_report v)
          o.Serve.Client.report;
        Alcotest.(check (option int)) "corrupt events"
          (Some st.Racedetect.Stream.total_events) o.Serve.Client.events;
        (match v, o.Serve.Client.cls with
         | Racedetect.Postmortem.Degraded _, Serve.Protocol.Degraded _ -> ()
         | Racedetect.Postmortem.Degraded _, _ ->
           Alcotest.fail "lossy session not reported degraded"
         | _ -> ()))
   | Error _ ->
     (* local salvage refuses it: the server must refuse too, not crash *)
     (match Serve.Client.session s.addr ~id:"corrupt" ~trace:damaged with
      | Ok o when o.Serve.Client.cls = Serve.Protocol.Error_c -> ()
      | Ok _ -> Alcotest.fail "server accepted what salvage refuses"
      | Error _ -> ()));
  (* the fault stayed in its session: a clean one still verifies *)
  check_exact "post-corrupt" f (run_session ~id:"clean-after" s f);
  shutdown s

(* -- client crash mid-stream ------------------------------------------- *)

let test_disconnect_never_race_free () =
  let fx = Lazy.force fixtures in
  let s = start ~idle_timeout:0.5 () in
  let f = fx.(Array.length fx - 1) in
  (match
     Serve.Client.session s.addr ~id:"crash"
       ~abort_after:(String.length f.Serve.Harness.f_trace / 2)
       ~trace:f.Serve.Harness.f_trace
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "aborted client received a verdict");
  (* the dropped connection reads as EOF server-side: the half trace is
     salvage-finished, and the cut makes it lossy — degraded, never
     race-free (an abort can also surface as a decode error) *)
  let deadline = Unix.gettimeofday () +. 5. in
  let settled () =
    match Serve.Client.metrics s.addr with
    | Error _ -> false
    | Ok snap ->
      let v n = Option.value ~default:0 (Serve.Client.metric_value snap n) in
      v "degraded" + v "errors" + v "aborted" >= 1
  in
  while (not (settled ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "half-fed session settled as degraded/error" true
    (settled ());
  (match Serve.Client.metrics s.addr with
   | Error e -> Alcotest.failf "metrics after crash: %s" e
   | Ok snap ->
     Alcotest.(check (option int)) "nothing certified race-free" (Some 0)
       (Serve.Client.metric_value snap "race_free"));
  check_exact "post-crash" f (run_session ~id:"after-crash" s f);
  shutdown s

(* -- duplicate session ids --------------------------------------------- *)

let test_duplicate_id_refused () =
  let fx = Lazy.force fixtures in
  let s = start () in
  let f = fx.(0) in
  (match Serve.Client.raw_open s.addr ~id:"dup" with
   | Error e -> Alcotest.failf "raw_open: %s" e
   | Ok (fd, _) ->
     (match
        Serve.Client.session s.addr ~id:"dup" ~trace:f.Serve.Harness.f_trace
      with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "refusal mentions duplicate (%s)" e)
          true
          (String.length e >= 9 && String.sub e 0 9 = "duplicate")
      | Ok _ -> Alcotest.fail "second claimant of a held id was accepted");
     Unix.close fd);
  (* released: the id must work again, with no leaked state *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec retry () =
    match
      Serve.Client.session s.addr ~id:"dup" ~trace:f.Serve.Harness.f_trace
    with
    | Ok o -> check_exact "dup reuse" f o
    | Error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      retry ()
    | Error e -> Alcotest.failf "id never released: %s" e
  in
  retry ();
  shutdown s

(* -- load shedding ------------------------------------------------------ *)

let test_shed_over_budget () =
  let fx = Lazy.force fixtures in
  let s = start ~shards:1 ~max_sessions:1 () in
  let f = fx.(0) in
  match Serve.Client.raw_open s.addr ~id:"victim" with
  | Error e -> Alcotest.failf "raw_open: %s" e
  | Ok (fd, _) ->
    (* keep some bytes in flight so the victim is a streaming session *)
    (match Serve.Client.raw_send fd (String.sub f.Serve.Harness.f_trace 0 16) with
     | Ok () -> ()
     | Error e -> Alcotest.failf "prefix send: %s" e);
    (* a second session pushes the shard over max_sessions = 1; the
       least-recently-active session (the victim) must be shed, while
       the newcomer completes exactly *)
    check_exact "newcomer during shed" f (run_session ~id:"newcomer" s f);
    let buf = Bytes.create 4096 in
    let b = Buffer.create 256 in
    (try
       let rec drain () =
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes b buf 0 n;
           drain ()
       in
       drain ()
     with Unix.Unix_error _ -> ());
    Unix.close fd;
    let reply = Buffer.contents b in
    Alcotest.(check bool)
      (Printf.sprintf "victim got an explicit shed verdict (%s)"
         (String.escaped (String.sub reply 0 (min 60 (String.length reply)))))
      true
      (String.length reply >= 12 && String.sub reply 0 12 = "verdict shed");
    (match Serve.Client.metrics s.addr with
     | Error e -> Alcotest.failf "metrics: %s" e
     | Ok snap ->
       Alcotest.(check bool) "shed counter advanced" true
         (Option.value ~default:0 (Serve.Client.metric_value snap "shed") >= 1));
    shutdown s

(* -- stop, restart with --resume, byte-identical ------------------------ *)

let test_checkpoint_stop_resume () =
  let fx = Lazy.force fixtures in
  let f =
    (* need a fixture with an epoch mark well before the end *)
    match
      Array.to_list fx
      |> List.find_opt (fun f ->
             String.length f.Serve.Harness.f_trace > 2048)
    with
    | Some f -> f
    | None -> Alcotest.fail "no fixture large enough for a resume test"
  in
  let dir = fresh_dir () in
  let ckdir = Filename.concat dir "ckpt" in
  let sock = Filename.concat dir "s.sock" in
  let s = start ~shards:1 ~checkpoint_dir:ckdir ~checkpoint_every:16 ~sock () in
  let id = "resume-me" in
  (match Serve.Client.raw_open s.addr ~id with
   | Error e -> Alcotest.failf "raw_open: %s" e
   | Ok (fd, off) ->
     Alcotest.(check int) "fresh session starts at 0" 0 off;
     let cut = String.length f.Serve.Harness.f_trace * 3 / 4 in
     (match Serve.Client.raw_send fd (String.sub f.Serve.Harness.f_trace 0 cut) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "prefix send: %s" e);
     (* wait until a checkpoint of this session hits the disk *)
     let deadline = Unix.gettimeofday () +. 5. in
     let ckpt () =
       match Serve.Client.metrics s.addr with
       | Error _ -> false
       | Ok snap ->
         (match Serve.Client.session_row snap id with
          | Some kv -> Option.value ~default:0 (List.assoc_opt "ckpt_consumed" kv) > 0
          | None -> false)
     in
     while (not (ckpt ())) && Unix.gettimeofday () < deadline do
       Unix.sleepf 0.05
     done;
     Alcotest.(check bool) "a checkpoint landed before the stop" true (ckpt ());
     (* graceful stop parks the in-flight session on disk *)
     shutdown s;
     Unix.close fd;
     Alcotest.(check bool) "checkpoint file exists" true
       (Sys.file_exists (Filename.concat ckdir (id ^ ".ckpt")));
     (* second life: adopt the checkpoint, finish the session *)
     let s2 =
       start ~shards:1 ~checkpoint_dir:ckdir ~checkpoint_every:16 ~resume:true
         ~sock ()
     in
     (match Serve.Client.session s2.addr ~id ~trace:f.Serve.Harness.f_trace with
      | Error e -> Alcotest.failf "resumed session: %s" e
      | Ok o ->
        Alcotest.(check bool) "resumed from a non-zero offset" true
          (o.Serve.Client.resumed_from > 0);
        Alcotest.(check bool) "resume offset within what was sent" true
          (o.Serve.Client.resumed_from <= cut);
        check_exact "resumed verdict" f o);
     Alcotest.(check bool) "checkpoint removed after completion" false
       (Sys.file_exists (Filename.concat ckdir (id ^ ".ckpt")));
     shutdown s2)

(* -- verdict report bytes, pinned by MD5 ------------------------------- *)

(* [render_verdict_report] over every fixture, whole and under each kind
   of damage: race-free, racy and degraded verdicts, the last with the
   loss section. *)
let verdict_report_pin = "752e636e7ca7b47acf7b8b69681505d2"

let test_verdict_report_digest () =
  let damages =
    Tracing.Corrupt.
      [ Garble_bytes 4; Drop_lines 3; Swap_events; Truncate_tail 200; Flip_bits 5;
        Duplicate_lines 2 ]
  in
  let buf = Buffer.create 65536 in
  let degraded = ref 0 in
  Array.iter
    (fun (f : Serve.Harness.fixture) ->
      let inputs =
        f.Serve.Harness.f_trace
        :: List.concat_map
             (fun d ->
               List.map
                 (fun seed -> Tracing.Corrupt.apply ~seed d f.Serve.Harness.f_trace)
                 [ 1; 2 ])
             damages
      in
      List.iter
        (fun text ->
          match Racedetect.Stream.analyze_salvage_string text with
          | Ok (v, _) ->
            (match v with Racedetect.Postmortem.Degraded _ -> incr degraded | _ -> ());
            Buffer.add_string buf (Serve.Protocol.render_verdict_report v)
          | Error e -> Buffer.add_string buf e)
        inputs)
    (Lazy.force fixtures);
  Alcotest.(check bool) "degraded verdicts covered" true (!degraded > 0);
  Alcotest.(check string) "verdict report MD5" verdict_report_pin
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "verdict parity" `Quick test_verdict_parity;
          Alcotest.test_case "no cross-talk" `Quick test_no_crosstalk;
          Alcotest.test_case "corrupt input isolated" `Quick test_corrupt_isolated;
          Alcotest.test_case "disconnect never race-free" `Quick
            test_disconnect_never_race_free;
          Alcotest.test_case "duplicate id refused" `Quick
            test_duplicate_id_refused;
          Alcotest.test_case "shed over budget" `Quick test_shed_over_budget;
          Alcotest.test_case "checkpoint stop resume" `Quick
            test_checkpoint_stop_resume;
          Alcotest.test_case "verdict report digest" `Quick
            test_verdict_report_digest;
        ] );
    ]
