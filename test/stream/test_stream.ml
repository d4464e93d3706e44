(* The streaming engine's contract: on any trace file, at any chunk
   size, in either record layout, [Racedetect.Stream] reports exactly
   what the batch pipeline reports — while retiring events the §5 GC
   proves dead.  Checked differentially against [Postmortem] over random
   programs on all five models, plus robustness against corrupted input
   and the documented --max-live degradation. *)

open Racedetect

let arb_seed = QCheck.int_bound 1_000_000

let model_of i = List.nth Memsim.Model.all (i mod List.length Memsim.Model.all)

let random_exec (seed, mi) =
  let model = model_of mi in
  let p =
    match seed mod 3 with
    | 0 -> Minilang.Gen.random_racy ~seed ()
    | 1 -> Minilang.Gen.random_racefree ~seed ()
    | _ -> Minilang.Gen.random_racefree_ra ~seed ()
  in
  Minilang.Interp.run ~model ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p

let arb_case = QCheck.pair arb_seed (QCheck.int_bound 4)

let batch_of_text text =
  match Tracing.Codec.decode text with
  | Ok tr -> Postmortem.analyze ~so1:`Recorded tr
  | Error e -> Alcotest.failf "batch decode failed: %s" e

let stream_of_text ?chunk_size ?max_live text =
  match Stream.analyze_string ?chunk_size ?max_live text with
  | Ok r -> r
  | Error e -> Alcotest.failf "stream analysis failed: %s" e

let race_pairs (a : Postmortem.analysis) =
  List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b)) a.Postmortem.races

let first_parts (a : Postmortem.analysis) =
  List.map
    (fun (p : Partition.partition) ->
      (p.Partition.component, p.Partition.events,
       List.map (fun (r : Race.t) -> (r.Race.a, r.Race.b, r.Race.locs)) p.Partition.races))
    (Postmortem.first_partitions a)

(* ------------------------------------------------------------------ *)
(* Differential: stream == batch, any layout, any chunk size           *)
(* ------------------------------------------------------------------ *)

let chunk_sizes = [ 1; 113; 65536 ]

let prop_differential =
  QCheck.Test.make ~name:"stream report byte-identical to batch at all chunk sizes"
    ~count:300 arb_case (fun case ->
      let t = Tracing.Trace.of_execution (random_exec case) in
      List.for_all
        (fun text ->
          let batch = batch_of_text text in
          let expected = Report.to_string batch in
          List.for_all
            (fun chunk_size ->
              let a, _ = stream_of_text ~chunk_size text in
              String.equal (Report.to_string a) expected
              && race_pairs a = race_pairs batch
              && first_parts a = first_parts batch
              && Postmortem.race_free a = Postmortem.race_free batch)
            chunk_sizes)
        [ Tracing.Codec.encode t; Tracing.Codec.encode_stream t ])

(* The ISSUE's phrasing: agreement with [Postmortem.analyze_execution]
   itself (not just with a batch decode of the same bytes).  Race pairs
   and first-partition structure must coincide; the rendered report may
   differ only in op labels, which serialization drops. *)
let prop_vs_analyze_execution =
  QCheck.Test.make ~name:"stream agrees with analyze_execution"
    ~count:200 arb_case (fun case ->
      let exec = random_exec case in
      let direct = Postmortem.analyze_execution ~so1:`Recorded exec in
      let text = Tracing.Codec.encode_stream (Tracing.Trace.of_execution exec) in
      let a, _ = stream_of_text ~chunk_size:64 text in
      race_pairs a = race_pairs direct
      && first_parts a = first_parts direct
      && Postmortem.race_free a = Postmortem.race_free direct)

(* ------------------------------------------------------------------ *)
(* §5 event GC                                                         *)
(* ------------------------------------------------------------------ *)

(* A long fully-synchronized trace in stream-ordered layout: P
   processors pass a release/acquire token around a ring, each round
   contributing an acquire, an owned computation and a release.  Every
   event is hb1-ordered behind the token, so the live set must track
   the synchronization lag (O(P) events), not the trace length.  With
   [racy_every = k > 0], every k-th round's holder also writes a shared
   location (the last one) right after its release: no other
   processor is ordered after that write until the holder's next
   release, so it races with the unguarded writes in between. *)
let token_ring_trace ?(racy_every = 0) ~procs ~rounds () =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt
  in
  let racy r = racy_every > 0 && r mod racy_every = 0 in
  let n_racy = List.length (List.filter racy (List.init rounds Fun.id)) in
  let n_events = (3 * rounds) + n_racy in
  line "weakrace-trace 1";
  line "model SC";
  line "truncated 0";
  line "procs %d locs %d events %d" procs (2 + procs) n_events;
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
    prev_release := rl;
    if racy r then
      line "event %d proc %d seq %d comp reads - writes %d" (next ()) h (nseq ()) (1 + procs)
  done;
  line "syncorder 0 %s" (String.concat "," (List.rev_map string_of_int !sync_eids));
  line "end %d" n_events;
  Buffer.contents buf

let test_gc_bounded_live_set () =
  let procs = 4 and rounds = 200 in
  let text = token_ring_trace ~procs ~rounds () in
  let batch = batch_of_text text in
  let a, stats = stream_of_text ~chunk_size:97 text in
  Alcotest.(check string) "report matches batch" (Report.to_string batch)
    (Report.to_string a);
  Alcotest.(check bool) "race free" true (Postmortem.race_free a);
  Alcotest.(check int) "all events seen" (3 * rounds) stats.Stream.total_events;
  Alcotest.(check bool)
    (Printf.sprintf "peak live %d is O(P), not O(n)=%d" stats.Stream.peak_live
       stats.Stream.total_events)
    true
    (stats.Stream.peak_live <= 10 * procs);
  Alcotest.(check bool)
    (Printf.sprintf "most events retired (%d)" stats.Stream.retired)
    true
    (stats.Stream.retired >= stats.Stream.total_events - (10 * procs))

(* GC never retires a live race candidate: on racy traces with GC
   actually exercised, the stream race set still equals batch's. *)
let test_gc_keeps_candidates () =
  let config =
    { Minilang.Gen.n_procs = 3; n_shared = 4; n_locks = 2; ops_per_proc = 60;
      sync_freq = 3 }
  in
  let exercised = ref 0 in
  List.iter
    (fun seed ->
      let p = Minilang.Gen.random_racy ~config ~seed () in
      let exec =
        Minilang.Interp.run ~model:(model_of seed)
          ~sched:(Memsim.Sched.random ~seed:(seed + 1)) p
      in
      let t = Tracing.Trace.of_execution exec in
      let text = Tracing.Codec.encode_stream t in
      let batch = batch_of_text text in
      let a, stats = stream_of_text text in
      if stats.Stream.retired > 0 then incr exercised;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %d race pairs" seed)
        (race_pairs batch) (race_pairs a))
    (List.init 20 (fun i -> i * 7 + 1));
  Alcotest.(check bool) "GC was exercised on some racy trace" true (!exercised > 0)

(* Retirement pins.  Token rings at P in {2, 8, 32, 64} in stream
   order, a racy ring, and that racy ring re-encoded in batch layout
   (so1 trailing, so every acquire stalls until end of input), each
   uncapped and under --max-live caps of 4 and 12.  Each run pins the
   full stats line, the MD5 of the rendered report and the MD5 of the
   live-event count after every record: the last one fixes how many
   events each record lets go, so a retirement rule that keeps the
   totals but moves the moment an event leaves still shows up here. *)
let pin_inputs () =
  let ring ?racy_every procs = token_ring_trace ?racy_every ~procs ~rounds:400 () in
  let racy = ring ~racy_every:3 8 in
  let batch_layout =
    match Tracing.Codec.decode racy with
    | Ok tr -> Tracing.Codec.encode tr
    | Error e -> failwith e
  in
  [ ("ring-2", ring 2); ("ring-8", ring 8); ("ring-32", ring 32); ("ring-64", ring 64);
    ("racy-ring-8", racy); ("racy-ring-8-batch", batch_layout) ]

let md5 s = Digest.to_hex (Digest.string s)

let pin_run ?max_live text =
  let t = Stream.create ?max_live () in
  let live = Buffer.create 4096 in
  let push () r =
    let res = Stream.push t r in
    Buffer.add_string live (string_of_int (Stream.live_events t));
    Buffer.add_char live ' ';
    res
  in
  (match Tracing.Codec.fold_string text ~init:() ~f:push with
   | Ok () -> ()
   | Error e -> Alcotest.failf "push failed: %s" e);
  match Stream.finish t with
  | Ok (a, st) ->
    (Format.asprintf "%a" Stream.pp_stats st, md5 (Report.to_string a),
     md5 (Buffer.contents live))
  | Error e -> Alcotest.failf "finish failed: %s" e

(* (input, max_live, stats, report MD5, per-record live-count MD5) *)
let retirement_pins : (string * int option * string * string * string) list = [
  ("ring-2", None,
   "events 1200, peak live 4, retired 1197 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "7afa2fd69b90c01e6f8940c3e49710a1");
  ("ring-2", Some 4,
   "events 1200, peak live 4, retired 1197 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "7afa2fd69b90c01e6f8940c3e49710a1");
  ("ring-2", Some 12,
   "events 1200, peak live 4, retired 1197 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "7afa2fd69b90c01e6f8940c3e49710a1");
  ("ring-8", None,
   "events 1200, peak live 22, retired 1179 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "460e9ca260a682c867b8e1598832ee38");
  ("ring-8", Some 4,
   "events 1200, peak live 5, retired 0 (forced 1196), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "75930fbac6c0a1cf179550a5fe63aaaa");
  ("ring-8", Some 12,
   "events 1200, peak live 13, retired 0 (forced 1188), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "ed15b228e56c5e93cc91b4f7e0f2c585");
  ("ring-32", None,
   "events 1200, peak live 94, retired 1107 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "fbd721955c5a86ce1e87b8b684d2ac24");
  ("ring-32", Some 4,
   "events 1200, peak live 5, retired 0 (forced 1196), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "75930fbac6c0a1cf179550a5fe63aaaa");
  ("ring-32", Some 12,
   "events 1200, peak live 13, retired 0 (forced 1188), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "ed15b228e56c5e93cc91b4f7e0f2c585");
  ("ring-64", None,
   "events 1200, peak live 190, retired 1011 (forced 0), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "f97bc22eb81d93ee5dc5503f186eb80b");
  ("ring-64", Some 4,
   "events 1200, peak live 5, retired 0 (forced 1196), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "75930fbac6c0a1cf179550a5fe63aaaa");
  ("ring-64", Some 12,
   "events 1200, peak live 13, retired 0 (forced 1188), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "ed15b228e56c5e93cc91b4f7e0f2c585");
  ("racy-ring-8", None,
   "events 1334, peak live 27, retired 1308 (forced 0), surviving 134, races 265",
   "6760c7b1971c2fba38676a5d808e0164", "3f4289d15960075bfb2d7782a0ca287f");
  ("racy-ring-8", Some 4,
   "events 1334, peak live 5, retired 0 (forced 1330), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "5e4f4554b2a5e3d419c9007829bca949");
  ("racy-ring-8", Some 12,
   "events 1334, peak live 13, retired 0 (forced 1322), surviving 134, races 133",
   "e0a8cb973ca8f21066b5b1c28de18c67", "b51f6a408c1533edf34122faaa0534e0");
  ("racy-ring-8-batch", None,
   "events 1334, peak live 1334, retired 1308 (forced 0), surviving 134, races 265",
   "6760c7b1971c2fba38676a5d808e0164", "174cf1b4c4bb9dd8db7c28155217253b");
  ("racy-ring-8-batch", Some 4,
   "events 1334, peak live 1334, retired 0 (forced 1330), surviving 0, races 0",
   "fec97b4844bc288466d05c6511433cf3", "174cf1b4c4bb9dd8db7c28155217253b");
  ("racy-ring-8-batch", Some 12,
   "events 1334, peak live 1334, retired 0 (forced 1322), surviving 134, races 133",
   "e0a8cb973ca8f21066b5b1c28de18c67", "174cf1b4c4bb9dd8db7c28155217253b");
]

let test_retirement_pins () =
  let runs =
    List.concat_map
      (fun (name, text) ->
        List.map
          (fun max_live ->
            let stats, report, live = pin_run ?max_live text in
            (name, max_live, stats, report, live))
          [ None; Some 4; Some 12 ])
      (pin_inputs ())
  in
  let show (name, max_live, stats, report, live) =
    Printf.sprintf "(%S, %s, %S, %S, %S)" name
      (match max_live with None -> "None" | Some k -> Printf.sprintf "Some %d" k)
      stats report live
  in
  Alcotest.(check (list string)) "retirement pins"
    (List.map show retirement_pins) (List.map show runs)

(* ------------------------------------------------------------------ *)
(* Corrupt traces: clean errors, never exceptions                      *)
(* ------------------------------------------------------------------ *)

let damages =
  [ ("garble", Tracing.Corrupt.Garble_bytes 8);
    ("drop", Tracing.Corrupt.Drop_lines 2);
    ("swap", Tracing.Corrupt.Swap_events);
    ("truncate", Tracing.Corrupt.Truncate_tail 25) ]

let test_corrupt_robustness () =
  List.iter
    (fun (dname, damage) ->
      List.iter
        (fun seed ->
          let t =
            Tracing.Trace.of_execution
              (random_exec (seed * 13 + 5, seed))
          in
          List.iter
            (fun text ->
              let damaged = Tracing.Corrupt.apply ~seed damage text in
              let batch =
                try Ok (Tracing.Codec.decode damaged)
                with exn -> Error exn
              in
              let stream =
                try Ok (Stream.analyze_string ~chunk_size:31 damaged)
                with exn -> Error exn
              in
              (match batch with
               | Ok _ -> ()
               | Error exn ->
                 Alcotest.failf "%s seed %d: batch decode raised %s" dname seed
                   (Printexc.to_string exn));
              match stream with
              | Error exn ->
                Alcotest.failf "%s seed %d: stream raised %s" dname seed
                  (Printexc.to_string exn)
              | Ok (Ok (a, _)) -> (
                (* the stream accepted it: batch must agree byte-for-byte *)
                match batch with
                | Ok (Ok tr) ->
                  let b = Postmortem.analyze ~so1:`Recorded tr in
                  Alcotest.(check string)
                    (Printf.sprintf "%s seed %d report" dname seed)
                    (Report.to_string b) (Report.to_string a)
                | Ok (Error e) ->
                  Alcotest.failf "%s seed %d: stream accepted what batch rejects (%s)"
                    dname seed e
                | Error _ -> ())
              | Ok (Error _) -> ())
            [ Tracing.Codec.encode t; Tracing.Codec.encode_stream t ])
        (List.init 15 (fun i -> i)))
    damages

let test_corrupt_headers () =
  let t = Tracing.Trace.of_execution (random_exec (7, 1)) in
  let text = Tracing.Codec.encode t in
  let expect_error name s =
    (match Tracing.Codec.decode s with
     | Ok _ -> Alcotest.failf "%s: batch accepted" name
     | Error _ -> ());
    match Stream.analyze_string s with
    | Ok _ -> Alcotest.failf "%s: stream accepted" name
    | Error _ -> ()
  in
  expect_error "empty" "";
  expect_error "bad magic" ("not-a-trace 1\n" ^ text);
  (* bad version *)
  (match String.index_opt text '\n' with
   | None -> Alcotest.fail "no newline in encoding"
   | Some i ->
     expect_error "bad version"
       ("weakrace-trace 99" ^ String.sub text i (String.length text - i)));
  (* a garbled header must not crash the array allocator *)
  expect_error "huge header"
    "weakrace-trace 1\nmodel SC\ntruncated 0\nprocs 2 locs 3 events 99999999999\n";
  (* a sizes-less header is a degenerate but accepted empty trace; the
     two modes must agree on it *)
  let header_only = "weakrace-trace 1\nmodel SC\ntruncated 0\n" in
  let b = batch_of_text header_only in
  let a, _ = stream_of_text header_only in
  Alcotest.(check string) "header-only reports agree" (Report.to_string b)
    (Report.to_string a)

let test_error_offsets () =
  let t = Tracing.Trace.of_execution (random_exec (11, 2)) in
  let text = Tracing.Codec.encode_stream t in
  (* splice a junk line after the header *)
  let lines = String.split_on_char '\n' text in
  let spliced =
    match lines with
    | magic :: rest -> String.concat "\n" (magic :: "utter garbage" :: rest)
    | [] -> assert false
  in
  (match Stream.analyze_string ~chunk_size:7 spliced with
   | Ok _ -> Alcotest.fail "junk line accepted"
   | Error e ->
     let has needle =
       let len = String.length needle in
       let n = String.length e in
       let rec go i = i + len <= n && (String.sub e i len = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) (Printf.sprintf "offset in %S" e) true
       (has "byte" && has "line 2"))

(* ------------------------------------------------------------------ *)
(* --max-live degradation                                              *)
(* ------------------------------------------------------------------ *)

let test_max_live_degrades_cleanly () =
  let missed = ref 0 and exercised = ref 0 in
  List.iter
    (fun seed ->
      let t = Tracing.Trace.of_execution (random_exec (seed, seed)) in
      let text = Tracing.Codec.encode_stream t in
      let batch = batch_of_text text in
      let a, stats = stream_of_text ~max_live:2 text in
      if stats.Stream.forced_retired > 0 then incr exercised;
      let sub = race_pairs a and full = race_pairs batch in
      (* never invents races; may only miss them *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: stream races subset of batch" seed)
        true
        (List.for_all (fun r -> List.mem r full) sub);
      if List.length sub < List.length full then incr missed)
    (List.init 30 (fun i -> (i * 11) + 3));
  Alcotest.(check bool) "the cap was actually hit" true (!exercised > 0)

(* ------------------------------------------------------------------ *)
(* Engine-level input validation                                       *)
(* ------------------------------------------------------------------ *)

let test_stream_input_validation () =
  let t = Tracing.Trace.of_execution (random_exec (23, 0)) in
  let text = Tracing.Codec.encode_stream t in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let rejoin ls = String.concat "\n" ls ^ "\n" in
  let expect_error name s =
    match Stream.analyze_string s with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  let is_event l = String.length l > 6 && String.sub l 0 6 = "event " in
  (* duplicate an event record *)
  let dup =
    List.concat_map (fun l -> if is_event l then [ l; l ] else [ l ]) lines
  in
  expect_error "duplicate event" (rejoin dup);
  (* drop one event but keep the end marker *)
  let dropped = ref false in
  let missing =
    List.filter
      (fun l -> if is_event l && not !dropped then (dropped := true; false) else true)
      lines
  in
  expect_error "missing event" (rejoin missing);
  (* records after the end marker *)
  expect_error "after end" (rejoin (lines @ [ "model SC" ]));
  (* end marker with the wrong count *)
  let wrong_end =
    List.map
      (fun l ->
        if String.length l > 4 && String.sub l 0 4 = "end " then "end 1" else l)
      lines
  in
  expect_error "end mismatch" (rejoin wrong_end)

(* ------------------------------------------------------------------ *)
(* Salvage: corruption differential                                    *)
(* ------------------------------------------------------------------ *)

let report_of a = Format.asprintf "%a" (Report.pp_analysis ?loc_name:None) a

let salvage_damage_of seed =
  let open Tracing.Corrupt in
  match seed mod 6 with
  | 0 -> Garble_bytes (1 + (seed mod 9))
  | 1 -> Drop_lines (1 + (seed mod 3))
  | 2 -> Swap_events
  | 3 -> Truncate_tail (1 + (seed * 17 mod 150))
  | 4 -> Flip_bits (1 + (seed mod 5))
  | _ -> Duplicate_lines (1 + (seed mod 3))

(* the faultfuzz contract, as a property: salvage never raises; a clean
   claim on damaged bytes must agree byte-for-byte with the strict
   pipeline on those same bytes; undamaged input is never degraded *)
let prop_salvage_differential =
  QCheck.Test.make ~name:"salvage never raises, clean claims match strict"
    ~count:150
    QCheck.(pair arb_case (int_bound 1_000_000))
    (fun (case, dseed) ->
      let t = Tracing.Trace.of_execution (random_exec case) in
      let version =
        if dseed mod 2 = 0 then Tracing.Codec.version
        else Tracing.Codec.version_checksummed
      in
      let text = Tracing.Codec.encode_stream ~version t in
      let damaged = Tracing.Corrupt.apply ~seed:dseed (salvage_damage_of dseed) text in
      match Stream.analyze_salvage_string damaged with
      | exception e ->
        QCheck.Test.fail_reportf "salvage raised %s" (Printexc.to_string e)
      | Error _ -> true (* clean refusal (e.g. damaged header) *)
      | Ok (Postmortem.Degraded _, _) ->
        (* never degraded on undamaged bytes *)
        not (String.equal damaged text)
      | Ok (v, _) -> (
        let rep = report_of (Postmortem.verdict_analysis v) in
        match Stream.analyze_string damaged with
        | exception e ->
          QCheck.Test.fail_reportf "strict raised %s on a clean salvage"
            (Printexc.to_string e)
        | Error e ->
          QCheck.Test.fail_reportf "salvage clean but strict failed: %s" e
        | Ok (a, _) -> String.equal (report_of a) rep))

let test_salvage_lossy_never_race_free () =
  (* drop one event line from a race-free v2 trace: the survivors are
     still race-free, but the verdict must be Degraded *)
  let t =
    Tracing.Trace.of_execution
      (Minilang.Interp.run ~model:Memsim.Model.WO
         ~sched:(Memsim.Sched.random ~seed:3) Minilang.Programs.fig1b)
  in
  let text =
    Tracing.Codec.encode_stream ~version:Tracing.Codec.version_checksummed t
  in
  let lines = String.split_on_char '\n' text in
  let dropped = ref false in
  let damaged =
    lines
    |> List.filter (fun l ->
           if (not !dropped) && String.length l > 6 && String.sub l 0 6 = "event "
           then (dropped := true; false)
           else true)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "an event line was dropped" true !dropped;
  match Stream.analyze_salvage_string damaged with
  | Ok (Postmortem.Degraded { analysis; loss }, _) ->
    Alcotest.(check bool) "loss is recorded" true (Postmortem.lossy loss);
    Alcotest.(check bool) "survivors are race-free" true
      (Postmortem.race_free analysis)
  | Ok (Postmortem.Race_free _, _) ->
    Alcotest.fail "lossy trace reported race-free"
  | Ok (Postmortem.Races _, _) -> Alcotest.fail "expected a degraded verdict"
  | Error e -> Alcotest.failf "salvage refused: %s" e

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

let with_ckpt f =
  let path = Filename.temp_file "weakrace" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_resume_byte_identical () =
  let t = Tracing.Trace.of_execution (random_exec (41, 2)) in
  let text =
    Tracing.Codec.encode_stream ~version:Tracing.Codec.version_checksummed t
  in
  let oneshot =
    match Stream.analyze_string text with
    | Ok (a, _) -> report_of a
    | Error e -> Alcotest.failf "one-shot analysis failed: %s" e
  in
  (* cut at every ~third byte: partial lines must marshal through *)
  let len = String.length text in
  List.iter
    (fun cut ->
      let cut = min cut len in
      with_ckpt (fun path ->
          let engine = Stream.create () in
          let d = Tracing.Codec.decoder () in
          let push () r = Stream.push engine r in
          (match Tracing.Codec.feed d (String.sub text 0 cut) ~f:push () with
           | Ok () -> ()
           | Error e -> Alcotest.failf "cut %d: prefix feed failed: %s" cut e);
          Stream.checkpoint path engine ~extra:(d, cut);
          (* the first engine dies here; restore and finish *)
          match (Stream.restore path : (Stream.t * (Tracing.Codec.decoder * int), string) result) with
          | Error e -> Alcotest.failf "cut %d: restore failed: %s" cut e
          | Ok (engine2, (d2, pos)) ->
            Alcotest.(check int) "offset restored" cut pos;
            let push2 () r = Stream.push engine2 r in
            (match Tracing.Codec.feed d2 (String.sub text pos (len - pos)) ~f:push2 () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "cut %d: resumed feed failed: %s" cut e);
            (match Tracing.Codec.finish_feed d2 ~f:push2 () with
             | Ok () -> ()
             | Error e -> Alcotest.failf "cut %d: resumed finish_feed failed: %s" cut e);
            match Stream.finish engine2 with
            | Ok (a, _) ->
              Alcotest.(check string)
                (Printf.sprintf "cut %d: resumed report" cut)
                oneshot (report_of a)
            | Error e -> Alcotest.failf "cut %d: resumed finish failed: %s" cut e))
    [ 0; 17; len / 3; len / 2; len - 1; len ]

(* A follower stops once the reader says the trace is complete: after
   the end record, and on v2 input only after the epoch mark that
   follows it, since the strict decoder refuses a v2 trace without it. *)
let test_reader_complete () =
  let t =
    Tracing.Trace.of_execution
      (Minilang.Interp.run ~model:Memsim.Model.WO
         ~sched:(Memsim.Sched.random ~seed:1)
         (Option.get (Minilang.Programs.find "queue_bug")))
  in
  let batch = report_of (batch_of_text (Tracing.Codec.encode t)) in
  List.iter
    (fun (version, salvage) ->
      let label = Printf.sprintf "v%d%s" version (if salvage then " salvage" else "") in
      let text = Tracing.Codec.encode_stream ~version t in
      (* the cut falls right after the end record's line *)
      let cut =
        let rec find i =
          if String.sub text i 4 = "end " then String.index_from text i '\n' + 1
          else find (String.index_from text i '\n' + 1)
        in
        find 0
      in
      let r = Stream.Reader.create ~salvage () in
      let feed chunk =
        match Stream.Reader.feed r chunk with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: feed failed: %s" label e
      in
      feed (String.sub text 0 cut);
      Alcotest.(check bool)
        (label ^ ": complete at the end record")
        (version <> Tracing.Codec.version_checksummed)
        (Stream.Reader.complete r);
      feed (String.sub text cut (String.length text - cut));
      Alcotest.(check bool) (label ^ ": complete after the rest") true
        (Stream.Reader.complete r);
      with_ckpt (fun path ->
          Stream.Reader.save r path;
          match Stream.Reader.resume ~salvage path with
          | Ok resumed ->
            Alcotest.(check bool) (label ^ ": complete after a resume") true
              (Stream.Reader.complete resumed)
          | Error e -> Alcotest.failf "%s: resume failed: %s" label e);
      match Stream.Reader.close r with
      | Ok (v, _) ->
        Alcotest.(check string) (label ^ ": report") batch
          (report_of (Postmortem.verdict_analysis v))
      | Error e -> Alcotest.failf "%s: close failed: %s" label e)
    [ (Tracing.Codec.version, false);
      (Tracing.Codec.version_checksummed, false);
      (Tracing.Codec.version_checksummed, true) ]

let test_checkpoint_rejects_corruption () =
  let t = Tracing.Trace.of_execution (random_exec (7, 1)) in
  let text = Tracing.Codec.encode_stream t in
  with_ckpt (fun path ->
      let engine = Stream.create () in
      let d = Tracing.Codec.decoder () in
      let push () r = Stream.push engine r in
      (match Tracing.Codec.feed d text ~f:push () with
       | Ok () -> ()
       | Error e -> Alcotest.failf "feed failed: %s" e);
      Stream.checkpoint path engine ~extra:(d, String.length text);
      let read_all p =
        let ic = open_in_bin p in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let write_all p s =
        let oc = open_out_bin p in
        output_string oc s;
        close_out oc
      in
      let blob = read_all path in
      let expect_reject name s =
        write_all path s;
        match (Stream.restore path : (Stream.t * (Tracing.Codec.decoder * int), string) result) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: corrupt checkpoint accepted" name
      in
      (* flip a byte deep in the marshalled payload *)
      let flipped = Bytes.of_string blob in
      let mid = String.length blob - 20 in
      Bytes.set flipped mid (Char.chr (Char.code blob.[mid] lxor 0x41));
      expect_reject "bit flip" (Bytes.to_string flipped);
      expect_reject "truncation" (String.sub blob 0 (String.length blob / 2));
      expect_reject "garbage" "not a checkpoint at all\n";
      expect_reject "empty" "";
      let expect_substring name needle s =
        write_all path s;
        match (Stream.restore path : (Stream.t * (Tracing.Codec.decoder * int), string) result) with
        | Ok _ -> Alcotest.failf "%s: checkpoint accepted" name
        | Error msg ->
          let has =
            let nl = String.length needle and ml = String.length msg in
            let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
            at 0
          in
          if not has then Alcotest.failf "%s: error %S lacks %S" name msg needle;
          if not (has && String.length msg > 0 && String.sub msg 0 (String.length path) = path)
          then Alcotest.failf "%s: error %S does not name the file" name msg
      in
      (* headers of older formats are refused with a structured
         message, never unmarshalled: version 1 (no kind token), and
         version 2, whose engine marshalled without the per-processor
         retirement queues and so would be misread at this type *)
      let payload = String.sub blob (String.index blob '\n' + 1) (String.length blob - String.index blob '\n' - 1) in
      expect_substring "old version" "unsupported checkpoint format version 1"
        (Printf.sprintf "weakrace-ckpt 1 %d %08x\n%s" (String.length payload)
           (Tracing.Crc32.string payload) payload);
      expect_substring "version 2" "unsupported checkpoint format version 2"
        (Printf.sprintf "weakrace-ckpt 2 stream %d %08x\n%s" (String.length payload)
           (Tracing.Crc32.string payload) payload);
      (* a checkpoint written by a different producer kind is refused *)
      expect_substring "wrong kind" "checkpoint kind is \"serve\""
        (Printf.sprintf "weakrace-ckpt 3 serve %d %08x\n%s" (String.length payload)
           (Tracing.Crc32.string payload) payload);
      (* and the pristine blob still restores *)
      write_all path blob;
      match (Stream.restore path : (Stream.t * (Tracing.Codec.decoder * int), string) result) with
      | Ok (engine2, (_, pos)) ->
        Alcotest.(check int) "offset" (String.length text) pos;
        (match Stream.finish engine2 with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "restored engine cannot finish: %s" e)
      | Error e -> Alcotest.failf "pristine checkpoint rejected: %s" e)

let () =
  Alcotest.run "stream"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_vs_analyze_execution;
        ] );
      ( "event-gc",
        [
          Alcotest.test_case "bounded live set" `Quick test_gc_bounded_live_set;
          Alcotest.test_case "no live candidate retired" `Quick test_gc_keeps_candidates;
          Alcotest.test_case "retirement pins" `Quick test_retirement_pins;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "damage never raises" `Quick test_corrupt_robustness;
          Alcotest.test_case "broken headers" `Quick test_corrupt_headers;
          Alcotest.test_case "error names the offset" `Quick test_error_offsets;
        ] );
      ( "max-live",
        [
          Alcotest.test_case "clean degradation" `Quick test_max_live_degrades_cleanly;
        ] );
      ( "validation",
        [
          Alcotest.test_case "stream input checks" `Quick test_stream_input_validation;
        ] );
      ( "salvage",
        [
          QCheck_alcotest.to_alcotest prop_salvage_differential;
          Alcotest.test_case "lossy never race-free" `Quick
            test_salvage_lossy_never_race_free;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill+resume byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "rejects corruption" `Quick
            test_checkpoint_rejects_corruption;
        ] );
      ( "reader",
        [
          Alcotest.test_case "complete after the final mark" `Quick
            test_reader_complete;
        ] );
    ]
