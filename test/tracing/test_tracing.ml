(* Event segmentation, access sets, so1 recording/reconstruction, the
   trace codec, and corruption behaviour. *)

open Tracing

let exec_of ?(model = Memsim.Model.WO) ?(seed = 1) p =
  Minilang.Interp.run ~model ~sched:(Memsim.Sched.random ~seed) p

let trace_of ?model ?seed p = Trace.of_execution (exec_of ?model ?seed p)

(* ------------------------------------------------------------------ *)
(* Segmentation                                                        *)
(* ------------------------------------------------------------------ *)

let test_segment_fig1b () =
  let t = trace_of ~model:Memsim.Model.SC Minilang.Programs.fig1b in
  (* P1: one computation event (two writes) then the Unset sync event *)
  let p1 = t.Trace.by_proc.(0) in
  Alcotest.(check int) "P1 has 2 events" 2 (Array.length p1);
  (match p1.(0).Event.body with
   | Event.Computation { reads; writes; ops } ->
     Alcotest.(check int) "no reads" 0 (Graphlib.Bitset.cardinal reads);
     Alcotest.(check (list int)) "writes x and y" [ 0; 1 ] (Graphlib.Bitset.elements writes);
     Alcotest.(check int) "two ops" 2 (List.length ops)
   | Event.Sync _ -> Alcotest.fail "expected computation event");
  (match p1.(1).Event.body with
   | Event.Sync { op; _ } ->
     Alcotest.(check bool) "unset is a release write" true
       (op.Memsim.Op.cls = Memsim.Op.Release && op.Memsim.Op.kind = Memsim.Op.Write)
   | Event.Computation _ -> Alcotest.fail "expected sync event")

let test_segment_alternation () =
  (* data, sync, data, data, sync -> comp, sync, comp, sync *)
  let open Minilang.Build in
  let p =
    program ~name:"alt" ~locs:[ "a"; "l" ]
      [ [ store "a" (i 1); unset "l"; store "a" (i 2); store "a" (i 3); unset "l" ] ]
  in
  let t = trace_of ~model:Memsim.Model.SC p in
  let shapes =
    Array.to_list t.Trace.by_proc.(0)
    |> List.map (fun (e : Event.t) -> if Event.is_sync e then "S" else "C")
  in
  Alcotest.(check (list string)) "segmentation" [ "C"; "S"; "C"; "S" ] shapes

let test_event_seq_and_eids () =
  let t = trace_of Minilang.Programs.counter_racy in
  Array.iteri
    (fun eid (e : Event.t) -> Alcotest.(check int) "eid is index" eid e.Event.eid)
    t.Trace.events;
  Array.iter
    (fun evs ->
      Array.iteri
        (fun i (e : Event.t) -> Alcotest.(check int) "seq within proc" i e.Event.seq)
        evs)
    t.Trace.by_proc

let test_conflict_predicates () =
  let t = trace_of ~model:Memsim.Model.SC Minilang.Programs.fig1a in
  let p1c = t.Trace.by_proc.(0).(0) and p2c = t.Trace.by_proc.(1).(0) in
  Alcotest.(check bool) "writer vs reader conflict" true (Event.conflict p1c p2c);
  Alcotest.(check (list int)) "conflict locations" [ 0; 1 ]
    (Event.conflict_locs p1c p2c);
  Alcotest.(check bool) "computation involves data" true (Event.involves_data p1c)

(* [conflict_locs] against the definition through fresh sets: the
   n_locs-wide read and write views of each event, intersected and
   united.  Events are random computations (read and write sets over up
   to 20 locations) and random sync reads and writes, in every pairing. *)
let reference_conflict_locs ~n_locs a b =
  let open Graphlib.Bitset in
  let wa = Event.writes a ~n_locs and ra = Event.reads a ~n_locs in
  let wb = Event.writes b ~n_locs and rb = Event.reads b ~n_locs in
  elements (union (inter wa wb) (union (inter wa rb) (inter ra wb)))

let gen_event ~n_locs eid =
  QCheck.Gen.(
    let locs = list_size (int_bound 6) (int_bound (n_locs - 1)) in
    let* sync = bool in
    if sync then
      let* loc = int_bound (n_locs - 1) in
      let* write = bool in
      let op =
        {
          Memsim.Op.id = eid; proc = eid; pindex = 0; loc;
          kind = (if write then Memsim.Op.Write else Memsim.Op.Read);
          cls = (if write then Memsim.Op.Release else Memsim.Op.Acquire);
          value = 0; label = None;
        }
      in
      return { Event.eid; proc = eid; seq = 0; body = Event.Sync { op; slot = 0 } }
    else
      let* rs = locs and* ws = locs in
      return
        {
          Event.eid; proc = eid; seq = 0;
          body =
            Event.Computation
              {
                reads = Graphlib.Bitset.of_list n_locs rs;
                writes = Graphlib.Bitset.of_list n_locs ws;
                ops = [];
              };
        })

let prop_conflict_locs_matches_reference =
  QCheck.Test.make ~name:"conflict_locs matches inter/union reference" ~count:500
    (QCheck.make
       ~print:(fun (n_locs, a, b) ->
         Format.asprintf "locs %d: %a / %a" n_locs Event.pp a Event.pp b)
       QCheck.Gen.(
         let* n_locs = int_range 1 20 in
         let* a = gen_event ~n_locs 0 and* b = gen_event ~n_locs 1 in
         return (n_locs, a, b)))
    (fun (n_locs, a, b) ->
      let expected = reference_conflict_locs ~n_locs a b in
      Event.conflict_locs a b = expected
      && Event.conflict_locs b a = expected
      && Event.conflict a b = (expected <> []))

let test_sync_order_slots () =
  let t = trace_of ~model:Memsim.Model.SC Minilang.Programs.counter_locked in
  List.iter
    (fun (_, eids) ->
      List.iteri
        (fun slot eid ->
          match t.Trace.events.(eid).Event.body with
          | Event.Sync { slot = s; _ } -> Alcotest.(check int) "slot" slot s
          | Event.Computation _ -> Alcotest.fail "sync order lists a computation event")
        eids)
    t.Trace.sync_order

(* ------------------------------------------------------------------ *)
(* so1                                                                 *)
(* ------------------------------------------------------------------ *)

let test_so1_recorded_vs_reconstructed () =
  (* under lock discipline the post-mortem reconstruction from the
     per-location sync order equals the recorded pairing *)
  List.iter
    (fun (p, model, seed) ->
      let t = trace_of ~model ~seed p in
      let recorded = List.sort compare t.Trace.so1 in
      let rebuilt = List.sort compare (Trace.so1_reconstruct t) in
      Alcotest.(check (list (pair int int))) "so1 agrees" recorded rebuilt)
    [
      (Minilang.Programs.fig1b, Memsim.Model.WO, 1);
      (Minilang.Programs.counter_locked, Memsim.Model.RCsc, 2);
      (Minilang.Programs.guarded_handoff, Memsim.Model.DRF0, 3);
      (Minilang.Programs.queue_bug ~region:5 (), Memsim.Model.DRF1, 4);
    ]

let test_so1_endpoints_are_sync () =
  let t = trace_of ~model:Memsim.Model.WO ~seed:7 Minilang.Programs.counter_locked in
  List.iter
    (fun (rel, acq) ->
      Alcotest.(check bool) "endpoints are sync events" true
        (Event.is_sync t.Trace.events.(rel) && Event.is_sync t.Trace.events.(acq)))
    t.Trace.so1

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip t =
  match Codec.decode (Codec.encode t) with
  | Ok t' -> t'
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_roundtrip_stock () =
  List.iter
    (fun (name, p) ->
      let t = trace_of p in
      let t' = roundtrip t in
      Alcotest.(check bool) (name ^ " roundtrips") true (Codec.equivalent t t');
      Alcotest.(check int) "same events" (Trace.n_events t) (Trace.n_events t');
      Alcotest.(check (list (pair int int))) "same so1" t.Trace.so1 t'.Trace.so1)
    Minilang.Programs.all

let test_codec_rejects_garbage () =
  List.iter
    (fun text ->
      match Codec.decode text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" text)
    [ ""; "not a trace"; "weakrace-trace 999"; "weakrace-trace 1\nbogus line" ]

let test_codec_file_io () =
  let t = trace_of Minilang.Programs.fig1a in
  let path = Filename.temp_file "weakrace" ".trace" in
  Codec.write_file path t;
  (match Codec.read_file path with
   | Ok t' -> Alcotest.(check bool) "file roundtrip" true (Codec.equivalent t t')
   | Error msg -> Alcotest.failf "read_file: %s" msg);
  Sys.remove path;
  (match Codec.read_file path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "read of missing file succeeded")

let prop_codec_roundtrip_random =
  QCheck.Test.make ~name:"codec roundtrip on random executions" ~count:80
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, mi) ->
      let model = List.nth Memsim.Model.weak (mi mod List.length Memsim.Model.weak) in
      let p = Minilang.Gen.random_racy ~seed () in
      let t = trace_of ~model ~seed:(seed + 1) p in
      match Codec.decode (Codec.encode t) with
      | Ok t' -> Codec.equivalent t t'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Corruption (§5 pathology)                                           *)
(* ------------------------------------------------------------------ *)

let test_corruption_is_detected_or_changes_content () =
  let t = trace_of ~seed:3 (Minilang.Programs.queue_bug ~region:4 ()) in
  let text = Codec.encode t in
  List.iter
    (fun (name, damage) ->
      let damaged = Corrupt.apply ~seed:42 damage text in
      if String.equal damaged text then ()
      else
        match Codec.decode damaged with
        | Error _ -> ()  (* loud failure: good *)
        | Ok t' ->
          Alcotest.(check bool)
            (name ^ ": silently decoded trace must differ")
            false (Codec.equivalent t t'))
    [
      ("garble", Corrupt.Garble_bytes 20);
      ("drop", Corrupt.Drop_lines 3);
      ("swap", Corrupt.Swap_events);
      ("truncate", Corrupt.Truncate_tail 40);
    ]

let test_corruption_deterministic () =
  let text = Codec.encode (trace_of Minilang.Programs.fig1b) in
  let a = Corrupt.apply ~seed:9 (Corrupt.Garble_bytes 10) text in
  let b = Corrupt.apply ~seed:9 (Corrupt.Garble_bytes 10) text in
  Alcotest.(check string) "same damage" a b

(* ------------------------------------------------------------------ *)
(* Format v2: checksummed framing                                      *)
(* ------------------------------------------------------------------ *)

let v2 = Codec.version_checksummed

let test_v2_roundtrip_stock () =
  List.iter
    (fun (name, p) ->
      let t = trace_of p in
      (match Codec.decode (Codec.encode ~version:v2 t) with
       | Ok t' ->
         Alcotest.(check bool) (name ^ " v2 batch roundtrips") true
           (Codec.equivalent t t')
       | Error msg -> Alcotest.failf "%s v2 decode failed: %s" name msg);
      match Codec.decode (Codec.encode_stream ~version:v2 t) with
      | Ok t' ->
        Alcotest.(check bool) (name ^ " v2 stream roundtrips") true
          (Codec.equivalent t t')
      | Error msg -> Alcotest.failf "%s v2 stream decode failed: %s" name msg)
    Minilang.Programs.all

let test_v1_bytes_unframed () =
  (* the default encoding is byte-for-byte the pre-v2 format: no line
     checksums, no epoch marks *)
  let t = trace_of Minilang.Programs.counter_locked in
  Alcotest.(check string) "default version is v1" (Codec.encode t)
    (Codec.encode ~version:Codec.version t);
  List.iter
    (fun text ->
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             Alcotest.(check bool) ("no mark line: " ^ line) false
               (String.length line >= 5 && String.sub line 0 5 = "mark ");
             let suffixed =
               String.length line >= 10
               && line.[String.length line - 9] = '~'
               && line.[String.length line - 10] = ' '
             in
             Alcotest.(check bool) ("no checksum suffix: " ^ line) false suffixed))
    [ Codec.encode t; Codec.encode_stream t ]

let test_v2_has_periodic_marks () =
  let t = trace_of ~seed:5 (Minilang.Programs.queue_bug ~region:40 ()) in
  let text = Codec.encode ~version:v2 t in
  let marks =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.length l >= 5 && String.sub l 0 5 = "mark ")
    |> List.length
  in
  let expected_at_least = Trace.n_events t / Codec.mark_period in
  Alcotest.(check bool)
    (Printf.sprintf "%d marks for %d events" marks (Trace.n_events t))
    true
    (marks >= max 1 expected_at_least)

let damage_kinds seed =
  [
    ("garble", Corrupt.Garble_bytes (3 + (seed mod 8)));
    ("drop", Corrupt.Drop_lines (1 + (seed mod 3)));
    ("swap", Corrupt.Swap_events);
    ("truncate", Corrupt.Truncate_tail (5 + (seed mod 60)));
    ("flip", Corrupt.Flip_bits (1 + (seed mod 6)));
    ("dup", Corrupt.Duplicate_lines (1 + (seed mod 3)));
  ]

let test_v2_strict_detects_every_damage () =
  (* in v2 every textual change is either caught by the strict decoder
     or provably harmless (the decode is equivalent to the original —
     e.g. a duplicated epoch mark) *)
  let t = trace_of ~seed:3 (Minilang.Programs.queue_bug ~region:6 ()) in
  List.iter
    (fun text ->
      for seed = 0 to 39 do
        List.iter
          (fun (name, damage) ->
            let damaged = Corrupt.apply ~seed damage text in
            if not (String.equal damaged text) then
              match Codec.decode damaged with
              | Error _ -> ()
              | Ok t' ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s seed %d: silent decode must be equivalent"
                     name seed)
                  true (Codec.equivalent t t'))
          (damage_kinds seed)
      done)
    [ Codec.encode ~version:v2 t; Codec.encode_stream ~version:v2 t ]

(* ------------------------------------------------------------------ *)
(* Salvage decoding                                                     *)
(* ------------------------------------------------------------------ *)

let count_records text =
  match Codec.fold_salvage_string text ~f:(fun n _ -> Ok (n + 1)) ~init:0 with
  | Ok (n, losses) -> (n, losses)
  | Error e -> Alcotest.failf "salvage failed: %s" e

let test_salvage_clean_on_undamaged () =
  let t = trace_of ~seed:2 Minilang.Programs.peterson in
  List.iter
    (fun text ->
      let n, losses = count_records text in
      Alcotest.(check bool) "records decoded" true (n > 0);
      Alcotest.(check int) "no losses" 0 (List.length losses))
    [
      Codec.encode t;
      Codec.encode ~version:v2 t;
      Codec.encode_stream t;
      Codec.encode_stream ~version:v2 t;
    ]

let test_salvage_recovers_and_reports_loss () =
  let t = trace_of ~seed:3 (Minilang.Programs.queue_bug ~region:6 ()) in
  let text = Codec.encode_stream ~version:v2 t in
  let clean, _ = count_records text in
  let magic_len = String.index text '\n' in
  for seed = 0 to 19 do
    let damaged = Corrupt.apply ~seed (Corrupt.Garble_bytes 12) text in
    let magic_intact =
      String.length damaged > magic_len
      && String.equal (String.sub damaged 0 magic_len) (String.sub text 0 magic_len)
    in
    if (not (String.equal damaged text)) && magic_intact then begin
      let n, losses = count_records damaged in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: damage is visible as a loss" seed)
        true (losses <> []);
      (* 12 garbled bytes can destroy at most a couple dozen lines *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: most records survive (%d of %d)" seed n clean)
        true
        (n >= clean - 40)
    end
  done

let test_salvage_quantifies_single_dropped_event () =
  (* deleting exactly one event line between two marks is quantified as
     exactly one lost event by the next epoch mark *)
  let t = trace_of ~seed:4 (Minilang.Programs.queue_bug ~region:8 ()) in
  let text = Codec.encode ~version:v2 t in
  let lines = String.split_on_char '\n' text in
  let victim =
    match
      List.find_opt
        (fun l -> String.length l >= 6 && String.sub l 0 6 = "event ")
        lines
    with
    | Some l -> l
    | None -> Alcotest.fail "no event line"
  in
  let dropped =
    lines
    |> List.filter (fun l -> not (String.equal l victim))
    |> String.concat "\n"
  in
  let _, losses = count_records dropped in
  match losses with
  | [ l ] ->
    Alcotest.(check (option int)) "one event lost" (Some 1)
      l.Codec.Salvage.events_lost
  | ls -> Alcotest.failf "expected one loss interval, got %d" (List.length ls)

let test_salvage_flags_truncation () =
  let t = trace_of ~seed:5 Minilang.Programs.peterson in
  let text = Codec.encode_stream ~version:v2 t in
  let cut = String.sub text 0 (String.length text - 40) in
  let _, losses = count_records cut in
  Alcotest.(check bool) "truncation is reported" true (losses <> [])

(* ------------------------------------------------------------------ *)
(* Errors carry the offending file name                                *)
(* ------------------------------------------------------------------ *)

let test_read_file_error_names_file () =
  let path = Filename.temp_file "weakrace" ".trace" in
  let oc = open_out path in
  output_string oc "weakrace-trace 1\nbogus line\n";
  close_out oc;
  (match Codec.read_file path with
   | Ok _ -> Alcotest.fail "accepted a bogus trace"
   | Error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error %S names %s" msg path)
       true
       (String.length msg >= String.length path
        && String.sub msg 0 (String.length path) = path));
  Sys.remove path

let test_read_dir_error_names_file () =
  let t = trace_of Minilang.Programs.fig1b in
  let dir = Filename.temp_file "weakrace" ".d" in
  Sys.remove dir;
  Codec.write_dir dir t;
  let victim = Filename.concat dir "proc0.trace" in
  let oc = open_out victim in
  output_string oc "weakrace-trace 1\nbroken record\n";
  close_out oc;
  (match Codec.read_dir dir with
   | Ok _ -> Alcotest.fail "accepted a broken split dir"
   | Error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error %S names %s" msg victim)
       true
       (String.length msg >= String.length victim
        && String.sub msg 0 (String.length victim) = victim));
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* New damage kinds                                                     *)
(* ------------------------------------------------------------------ *)

let test_flip_bits_behaviour () =
  let text = Codec.encode (trace_of Minilang.Programs.fig1b) in
  let damaged = Corrupt.apply ~seed:11 (Corrupt.Flip_bits 4) text in
  Alcotest.(check int) "length preserved" (String.length text)
    (String.length damaged);
  Alcotest.(check bool) "text changed" false (String.equal text damaged);
  let bits_differing =
    let n = ref 0 in
    String.iteri
      (fun i c ->
        let x = Char.code c lxor Char.code damaged.[i] in
        for b = 0 to 7 do
          if x land (1 lsl b) <> 0 then incr n
        done)
      text;
    !n
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 bits flipped (%d)" bits_differing)
    true
    (bits_differing >= 1 && bits_differing <= 4)

let test_duplicate_lines_behaviour () =
  let text = Codec.encode (trace_of Minilang.Programs.fig1b) in
  let damaged = Corrupt.apply ~seed:11 (Corrupt.Duplicate_lines 2) text in
  Alcotest.(check bool) "text changed" false (String.equal text damaged);
  let lines s = String.split_on_char '\n' s in
  let orig = lines text and dup = lines damaged in
  Alcotest.(check bool) "line count grew" true (List.length dup > List.length orig);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("every line comes from the original: " ^ l) true
        (List.mem l orig))
    dup

(* ------------------------------------------------------------------ *)
(* E7 size accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_event_level_smaller_for_dense_computation () =
  (* queue_bug touches ~3 locations per loop iteration; event-level traces
     amortize them into two bit vectors per computation event *)
  let t = trace_of ~seed:5 (Minilang.Programs.queue_bug ~region:50 ()) in
  let ev = Trace.stats_bytes_event_level t in
  let op = Trace.stats_bytes_op_level t in
  Alcotest.(check bool)
    (Printf.sprintf "event-level (%d) < op-level (%d)" ev op)
    true (ev < op)

let test_split_dir_roundtrip () =
  let dir = Filename.temp_file "weakrace" ".d" in
  Sys.remove dir;
  List.iter
    (fun (name, p) ->
      let t = trace_of ~seed:9 p in
      Codec.write_dir dir t;
      match Codec.read_dir dir with
      | Ok t' ->
        Alcotest.(check bool) (name ^ " split roundtrip") true (Codec.equivalent t t')
      | Error msg -> Alcotest.failf "%s: read_dir failed: %s" name msg)
    [ ("fig1b", Minilang.Programs.fig1b);
      ("queue", Minilang.Programs.queue_bug ~region:5 ());
      ("barrier", Minilang.Programs.barrier_phases ()) ];
  (* the per-processor files really are per-processor *)
  let t = trace_of ~seed:9 Minilang.Programs.fig1b in
  Codec.write_dir dir t;
  let proc0 = In_channel.with_open_text (Filename.concat dir "proc0.trace") In_channel.input_all in
  Alcotest.(check bool) "proc0 file has only proc 0 events" true
    (String.split_on_char '\n' proc0
     |> List.for_all (fun l ->
            l = ""
            ||
            match String.split_on_char ' ' l with
            | "event" :: _ :: "proc" :: q :: _ -> q = "0"
            | _ -> false))

let test_split_dir_missing () =
  match Codec.read_dir "/nonexistent-weakrace-dir" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read_dir of missing directory succeeded"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "tracing"
    [
      ( "segmentation",
        [
          Alcotest.test_case "fig1b events" `Quick test_segment_fig1b;
          Alcotest.test_case "alternation" `Quick test_segment_alternation;
          Alcotest.test_case "eids and seqs" `Quick test_event_seq_and_eids;
          Alcotest.test_case "conflicts" `Quick test_conflict_predicates;
          Alcotest.test_case "sync order slots" `Quick test_sync_order_slots;
        ] );
      ( "so1",
        [
          Alcotest.test_case "recorded vs reconstructed" `Quick
            test_so1_recorded_vs_reconstructed;
          Alcotest.test_case "endpoints are sync" `Quick test_so1_endpoints_are_sync;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip stock programs" `Quick test_codec_roundtrip_stock;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "file io" `Quick test_codec_file_io;
        ] );
      ("codec-props", qsuite [ prop_codec_roundtrip_random ]);
      ("conflict-props", qsuite [ prop_conflict_locs_matches_reference ]);
      ( "split-files",
        [
          Alcotest.test_case "roundtrip" `Quick test_split_dir_roundtrip;
          Alcotest.test_case "missing directory" `Quick test_split_dir_missing;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "detected or content changes" `Quick
            test_corruption_is_detected_or_changes_content;
          Alcotest.test_case "deterministic" `Quick test_corruption_deterministic;
        ] );
      ( "v2-framing",
        [
          Alcotest.test_case "roundtrip stock programs" `Quick test_v2_roundtrip_stock;
          Alcotest.test_case "v1 bytes unchanged" `Quick test_v1_bytes_unframed;
          Alcotest.test_case "periodic marks" `Quick test_v2_has_periodic_marks;
          Alcotest.test_case "strict decode detects damage" `Quick
            test_v2_strict_detects_every_damage;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "clean on undamaged input" `Quick
            test_salvage_clean_on_undamaged;
          Alcotest.test_case "recovers and reports loss" `Quick
            test_salvage_recovers_and_reports_loss;
          Alcotest.test_case "quantifies a dropped event" `Quick
            test_salvage_quantifies_single_dropped_event;
          Alcotest.test_case "flags truncation" `Quick test_salvage_flags_truncation;
        ] );
      ( "error-context",
        [
          Alcotest.test_case "read_file names the file" `Quick
            test_read_file_error_names_file;
          Alcotest.test_case "read_dir names the file" `Quick
            test_read_dir_error_names_file;
        ] );
      ( "new-damage-kinds",
        [
          Alcotest.test_case "flip-bits" `Quick test_flip_bits_behaviour;
          Alcotest.test_case "duplicate-lines" `Quick test_duplicate_lines_behaviour;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "event-level beats op-level" `Quick
            test_event_level_smaller_for_dense_computation;
        ] );
    ]
