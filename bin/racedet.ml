(* racedet — dynamic data-race detection on simulated weak memory systems.

   Subcommands: list, show, run, detect, trace, analyze, enumerate, check,
   cost.  A <program> argument is either the name of a stock program
   (racedet list) or the path of a program file in the concrete syntax
   (see lib/minilang/parser.mli). *)

open Cmdliner

(* -- the command spine ------------------------------------------------

   Every subcommand's [run] returns its exit code.  [fail] aborts a run
   with a one-line message; [command] prints it, or any I/O error, as
   [racedet: <msg>] on stderr and returns 1 (or the code [fail] was
   given).  Anything else escapes to Cmdliner as an internal error (125),
   so a bug is never dressed up as a usage error.  Only [main] exits. *)

exception Failed of int * string

let fail ?(code = 1) fmt = Printf.ksprintf (fun m -> raise (Failed (code, m))) fmt
let or_fail = function Ok v -> v | Error msg -> fail "%s" msg

(* The exit table of one command: code 1 always covers usage and I/O
   errors (a doc given for 1 adds to that), and Cmdliner's own codes
   follow the highest one listed. *)
let exits codes =
  let usage = "usage or I/O error" in
  let one =
    match List.assoc_opt 1 codes with
    | None -> usage ^ "."
    | Some doc -> usage ^ ", or " ^ doc
  in
  let codes = List.sort compare ((1, one) :: List.remove_assoc 1 codes) in
  let top = List.fold_left (fun m (c, _) -> max m c) 1 codes in
  List.map (fun (code, doc) -> Cmd.Exit.info code ~doc) codes
  @ List.filter (fun i -> Cmd.Exit.info_code i > top) Cmd.Exit.defaults

let command name ~doc ?(exits = exits [ (0, "on success.") ]) term =
  let guard run =
    let error code msg =
      Format.eprintf "racedet: %s@." msg;
      code
    in
    try run () with
    | Failed (code, msg) -> error code msg
    | Sys_error msg -> error 1 msg
    | Unix.Unix_error (e, fn, arg) ->
      error 1 ((if arg = "" then fn else arg) ^ ": " ^ Unix.error_message e)
  in
  Cmd.v (Cmd.info name ~doc ~exits) Term.(const guard $ term)

let load_program arg =
  match Minilang.Programs.find arg with
  | Some p -> p
  | None ->
    if Sys.file_exists arg then or_fail (Minilang.Parser.parse_file arg)
    else
      fail "%S is neither a stock program nor a readable file (try `racedet list`)"
        arg

(* -- common arguments ------------------------------------------------ *)

let program_arg =
  let doc = "Stock program name or path to a program file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let parse_model s =
  match Memsim.Model.of_spec s with
  | Ok m -> Ok m
  | Error e -> Error (`Msg e)

let print_model ppf m = Format.pp_print_string ppf (Memsim.Model.name m)
let model_conv = Arg.conv (parse_model, print_model)

let model_arg =
  let doc =
    "Memory model: a named model (SC, TSO, WO, RCsc, DRF0, DRF1), a named \
     hardware variant (e.g. sb-fence-nop), or a variant spec such as \
     $(b,sb:depth=2,fence=nop) — see $(b,racedet variants)."
  in
  Arg.(value & opt model_conv Memsim.Model.WO & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let seed_arg =
  let doc = "Scheduler seed (runs are deterministic in the seed)." in
  Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let sched_arg =
  let doc =
    "Scheduling strategy: $(b,adversarial) delays write retirement (most \
     reordering), $(b,random) is uniform, $(b,eager) retires immediately \
     (SC-like), $(b,round-robin) is deterministic."
  in
  Arg.(
    value
    & opt (enum [ ("adversarial", `Adversarial); ("random", `Random); ("eager", `Eager);
                  ("round-robin", `Round_robin) ])
        `Adversarial
    & info [ "sched" ] ~docv:"STRATEGY" ~doc)

let make_sched sched seed =
  match sched with
  | `Adversarial -> Memsim.Sched.adversarial ~seed ()
  | `Random -> Memsim.Sched.random ~seed
  | `Eager -> Memsim.Sched.eager ~seed
  | `Round_robin -> Memsim.Sched.round_robin ()

let machine_arg =
  let doc =
    "Hardware realization: $(b,buffer) (store buffers, out-of-order write \
     retirement) or $(b,cache) (MSI caches with delayed invalidations)."
  in
  Arg.(
    value
    & opt (enum [ ("buffer", `Buffer); ("cache", `Cache) ]) `Buffer
    & info [ "machine" ] ~docv:"MACHINE" ~doc)

let max_steps_arg =
  let doc = "Abort (and drain) after this many machine steps." in
  Arg.(value & opt int 20_000 & info [ "max-steps" ] ~doc)

let jobs_arg =
  let doc =
    "Evaluate batch seeds on $(docv) parallel domains (1 = serial; 0 = one \
     per core).  Output is identical for every value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let batch_arg =
  let doc =
    "Batch mode: run $(docv) consecutive seeds starting at --seed and print a \
     per-seed summary instead of the single-run report."
  in
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)

let resolve_jobs jobs =
  if jobs < 0 then fail "--jobs must be >= 0"
  else if jobs = 0 then Engine.Parbatch.default_jobs ()
  else jobs

let exec_of p machine model sched max_steps seed =
  match machine with
  | `Buffer -> Minilang.Interp.run ~max_steps ~model ~sched:(make_sched sched seed) p
  | `Cache ->
    Coherence.Cmachine.run_program ~max_steps ~model ~sched:(make_sched sched seed) p

let run_exec program machine model sched seed max_steps =
  let p = load_program program in
  (p, exec_of p machine model sched max_steps seed)

(* batch mode: seeds [seed .. seed+batch-1] fanned out over the domain pool;
   [f] must be pure — results are printed in seed order by the caller *)
let run_batch program machine model sched seed max_steps ~batch ~jobs f =
  let p = load_program program in
  let rs =
    Engine.Parbatch.map_seeds ~jobs batch (fun i ->
        let s = seed + i in
        (s, f p (exec_of p machine model sched max_steps s)))
  in
  (p, rs)

(* -- list ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, (p : Minilang.Ast.program)) ->
        Format.printf "%-20s %d procs, %d locations@." name (Array.length p.procs)
          p.n_locs)
      Minilang.Programs.all;
    0
  in
  command "list" ~doc:"List the stock programs." Term.(const run)

(* -- show ------------------------------------------------------------- *)

let show_cmd =
  let run program () =
    print_string (Minilang.Parser.to_source (load_program program));
    0
  in
  command "show" ~doc:"Print a program in concrete syntax."
    Term.(const run $ program_arg)

(* -- run --------------------------------------------------------------- *)

let run_cmd =
  let run program machine model sched seed max_steps batch jobs () =
    if batch <= 1 then begin
      let p, e = run_exec program machine model sched seed max_steps in
      Format.printf "%a@." Memsim.Exec.pp e;
      Format.printf "@.final memory (non-zero):@.";
      Array.iteri
        (fun l v ->
          if v <> 0 then Format.printf "  %s = %d@." (Minilang.Ast.loc_name p l) v)
        e.Memsim.Exec.final_mem
    end
    else begin
      let jobs = resolve_jobs jobs in
      let p, rs =
        run_batch program machine model sched seed max_steps ~batch ~jobs
          (fun _p e ->
            let mem =
              Array.to_seq e.Memsim.Exec.final_mem
              |> Seq.mapi (fun l v -> (l, v))
              |> Seq.filter (fun (_, v) -> v <> 0)
              |> List.of_seq
            in
            (Memsim.Exec.n_ops e, e.Memsim.Exec.truncated, mem))
      in
      Array.iter
        (fun (s, (n_ops, truncated, mem)) ->
          Format.printf "seed %-6d %5d ops%s  %s@." s n_ops
            (if truncated then " (truncated)" else "")
            (String.concat " "
               (List.map
                  (fun (l, v) -> Printf.sprintf "%s=%d" (Minilang.Ast.loc_name p l) v)
                  mem)))
        rs
    end;
    0
  in
  command "run"
    ~doc:
      "Execute a program on a memory model and print the execution.  With \
       $(b,--batch) N, run N consecutive seeds (in parallel with $(b,--jobs)) \
       and print one summary line per seed."
    Term.(
      const run $ program_arg $ machine_arg $ model_arg $ sched_arg $ seed_arg
      $ max_steps_arg $ batch_arg $ jobs_arg)

(* -- detect ------------------------------------------------------------ *)

let order_arg =
  let doc =
    "Reporting partial order: $(b,hb1) (the paper's happens-before-1 with \
     first-partition suppression, the default) or $(b,shb) (hb1 plus the \
     observed reads-from edges).  $(b,shb) appends the suppressed races that \
     stay unordered even with every communication edge added — sound \
     predictions beyond the first partitions.  It only ever adds races: the \
     first-partition report, the verdict, and the exit code are identical \
     under both orders."
  in
  let parse_order = function
    | "hb1" -> Ok `Hb1
    | "shb" -> Ok `Shb
    | s ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown order %S\n\
              named orders: hb1, shb\n\
              order spec: hb1 (the paper's happens-before-1 with \
              first-partition suppression) | shb (hb1 plus the observed \
              reads-from edges)"
             s))
  in
  let print_order ppf o =
    Format.pp_print_string ppf (match o with `Hb1 -> "hb1" | `Shb -> "shb")
  in
  Arg.(
    value
    & opt (conv (parse_order, print_order)) `Hb1
    & info [ "order" ] ~docv:"ORDER" ~doc)

let detect_cmd =
  let all_arg =
    let doc = "Also show the suppressed non-first partitions in full." in
    Arg.(value & flag & info [ "a"; "all" ] ~doc)
  in
  let run program machine model sched seed max_steps show_all batch jobs order () =
    if batch <= 1 then begin
      let p, e = run_exec program machine model sched seed max_steps in
      let a = Racedetect.Postmortem.analyze_execution ~order e in
      let loc_name = Minilang.Ast.loc_name p in
      Format.printf "%a@." (Racedetect.Report.pp_analysis ~loc_name) a;
      if show_all then begin
        let trace = a.Racedetect.Postmortem.trace in
        List.iter
          (fun part ->
            Format.printf "@.%a@."
              (Racedetect.Report.pp_partition ~loc_name ~trace)
              part)
          (Racedetect.Partition.non_first_partitions a.Racedetect.Postmortem.partitions)
      end;
      if Racedetect.Postmortem.race_free a then 0 else 2
    end
    else begin
      let jobs = resolve_jobs jobs in
      let _, rs =
        run_batch program machine model sched seed max_steps ~batch ~jobs
          (fun _p e ->
            let a = Racedetect.Postmortem.analyze_execution ~order e in
            ( List.length (Racedetect.Postmortem.data_races a),
              List.length (Racedetect.Postmortem.reported_races a),
              List.length a.Racedetect.Postmortem.shb_extra ))
      in
      let racy = ref 0 in
      Array.iter
        (fun (s, (all, reported, extra)) ->
          if reported > 0 then incr racy;
          if reported = 0 then Format.printf "seed %-6d race-free@." s
          else
            Format.printf
              "seed %-6d %d data race(s), %d reported after partitioning%s@." s all
              reported
              (if order = `Shb then Printf.sprintf ", %d shb-predicted" extra
               else ""))
        rs;
      Format.printf "%d / %d seeds racy@." !racy batch;
      if !racy > 0 then 2 else 0
    end
  in
  command "detect"
    ~doc:
      "Run a program, trace it, and report the first partitions of data races \
       (exit status 2 when races are found).  With $(b,--batch) N, analyze N \
       consecutive seeds (in parallel with $(b,--jobs)) and print one line per \
       seed.  $(b,--order shb) additionally predicts suppressed races via the \
       SHB order; exit codes are unaffected."
    ~exits:
      (exits
         [ (0, "no data races were reported."); (2, "data races were reported.") ])
    Term.(
      const run $ program_arg $ machine_arg $ model_arg $ sched_arg $ seed_arg
      $ max_steps_arg $ all_arg $ batch_arg $ jobs_arg $ order_arg)

(* -- trace / analyze --------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Trace file to write." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let split_arg =
    let doc = "Write a split-trace directory (one file per processor) instead." in
    Arg.(value & flag & info [ "split" ] ~doc)
  in
  let stream_arg =
    let doc =
      "Write the stream-ordered layout: events interleaved in hb1-topological \
       order with each acquire's so1 record ahead of it and a trailing end \
       marker, so $(b,analyze --stream) retires events as it reads."
    in
    Arg.(value & flag & info [ "stream" ] ~doc)
  in
  let v2_arg =
    let doc =
      "Write format v2: every line carries a CRC-32 checksum suffix and an \
       epoch mark summarizing the event count and cumulative checksum is \
       emitted periodically, so $(b,analyze --salvage) can localize damage \
       and quantify losses.  v1 readers reject v2 files; this tool reads \
       both."
    in
    Arg.(value & flag & info [ "v2"; "checksummed" ] ~doc)
  in
  let run program machine model sched seed max_steps out split stream v2 () =
    if split && stream then fail "--split and --stream are mutually exclusive";
    if split && v2 then fail "--v2 is not available for split-trace directories";
    let version =
      if v2 then Tracing.Codec.version_checksummed else Tracing.Codec.version
    in
    let _, e = run_exec program machine model sched seed max_steps in
    let t = Tracing.Trace.of_execution e in
    if split then Tracing.Codec.write_dir out t
    else if stream then Tracing.Codec.write_stream_file ~version out t
    else Tracing.Codec.write_file ~version out t;
    Format.printf "wrote %d events (%d computation, %d sync) to %s@."
      (Tracing.Trace.n_events t)
      (Tracing.Trace.n_computation_events t)
      (Tracing.Trace.n_sync_events t)
      out;
    0
  in
  command "trace" ~doc:"Run a program and write its trace file."
    Term.(
      const run $ program_arg $ machine_arg $ model_arg $ sched_arg $ seed_arg
      $ max_steps_arg $ out_arg $ split_arg $ stream_arg $ v2_arg)

(* -- the streaming driver --------------------------------------------

   One loop serves --stream, --follow, --salvage and --checkpoint: read
   the file in chunks (tailing it while it grows under --follow) into a
   Stream.Reader and — when a checkpoint path is given — persist the
   reader every [ckpt_every] events plus once more before the finish,
   so a kill at any point resumes to a byte-identical report.  The
   checkpoint is deleted after a successful finish. *)

let stream_drive ?max_live ~salvage ~follow ~idle ~ckpt ~ckpt_every file =
  let module R = Racedetect.Stream.Reader in
  let seen r = Racedetect.Stream.seen_events (R.engine r) in
  let reader =
    match ckpt with
    | Some cp when Sys.file_exists cp ->
      let r = or_fail (R.resume ~salvage cp) in
      Format.eprintf "racedet: resuming %s from byte %d (%d events)@." file
        (R.offset r) (seen r);
      r
    | _ -> R.create ?max_live ~salvage ()
  in
  (* codec and engine errors carry byte/line positions but not the file
     name; checkpoint errors already name their file *)
  let in_file = function Ok v -> v | Error m -> fail "%s: %s" file m in
  let result =
    In_channel.with_open_bin file (fun ic ->
        if in_channel_length ic < R.offset reader then
          fail "%s: file is shorter than the checkpoint position %d" file
            (R.offset reader);
        seek_in ic (R.offset reader);
        let buf = Bytes.create 65536 in
        let events_at_ckpt = ref (seen reader) in
        let save () =
          Option.iter
            (fun cp ->
              R.save reader cp;
              events_at_ckpt := seen reader)
            ckpt
        in
        let rec loop idle_for =
          match input ic buf 0 (Bytes.length buf) with
          | 0 ->
            if follow && idle_for < idle && not (R.complete reader) then begin
              Unix.sleepf 0.05;
              loop (idle_for +. 0.05)
            end
          | n ->
            in_file (R.feed reader (Bytes.sub_string buf 0 n));
            if seen reader - !events_at_ckpt >= ckpt_every then save ();
            loop 0.
        in
        loop 0.;
        (* persist once more before the finish: finishing mutates the
           engine, so a kill inside it must resume from here *)
        save ();
        in_file (R.close reader))
  in
  Option.iter (fun cp -> try Sys.remove cp with Sys_error _ -> ()) ckpt;
  result

(* The rendering lives in Serve.Protocol so the daemon's reports are
   byte-identical to this command's stdout. *)
let print_verdict v =
  print_string (Serve.Protocol.render_verdict_report v);
  Racedetect.Postmortem.verdict_exit_code v

let analyze_cmd =
  let file_arg =
    let doc =
      "Trace file produced by $(b,racedet trace), or a split-trace directory \
       (one file per processor plus sync.trace)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let reconstruct_arg =
    let doc =
      "Ignore the recorded release/acquire pairing and reconstruct so1 from the \
       per-location synchronization order."
    in
    Arg.(value & flag & info [ "reconstruct-so1" ] ~doc)
  in
  let stream_flag =
    let doc =
      "Streaming analysis: decode the file in chunks and retire events as soon \
       as every processor's clock has passed them (§5 event GC), so memory \
       tracks the live set instead of the trace.  The report is byte-identical \
       to the batch mode's.  Retirement progresses while reading only on \
       stream-ordered files ($(b,racedet trace --stream)); batch-layout files \
       are analyzed correctly but resolve their acquires at end of input."
    in
    Arg.(value & flag & info [ "stream" ] ~doc)
  in
  let follow_arg =
    let doc =
      "Tail a trace that is still being written (implies $(b,--stream)): keep \
       reading as the file grows, stop at the end marker or after \
       $(b,--idle-timeout) seconds without growth."
    in
    Arg.(value & flag & info [ "follow" ] ~doc)
  in
  let max_live_arg =
    let doc =
      "Cap the number of resident race candidates (implies $(b,--stream)).  \
       Beyond the cap the oldest candidates are evicted: hb1 ordering stays \
       exact, but a race whose endpoints are further apart in the stream than \
       the window may be missed (the count is reported with $(b,--stats))."
    in
    Arg.(value & opt (some int) None & info [ "max-live" ] ~docv:"N" ~doc)
  in
  let stats_arg =
    let doc =
      "After the report, print streaming statistics (total events, peak live \
       set, retirements, forced evictions) to standard error (implies \
       $(b,--stream))."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let idle_arg =
    let doc =
      "With $(b,--follow): give up waiting for more input after this many \
       seconds without the file growing."
    in
    Arg.(value & opt float 5.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let salvage_arg =
    let doc =
      "Salvage a damaged trace (implies $(b,--stream)): on a checksum or parse \
       failure, discard lines until the decode resynchronizes and analyze the \
       surviving events.  If anything was lost the verdict is degraded (exit \
       3): races are reported among survivors, but race-freedom is never \
       claimed.  An undamaged trace produces the exact batch report."
    in
    Arg.(value & flag & info [ "salvage" ] ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Persist the analysis state to $(docv) every $(b,--checkpoint-every) \
       events (implies $(b,--stream)).  If $(docv) already exists, resume \
       from it instead of re-reading the prefix; the file is removed after a \
       successful report.  A resumed run prints the same report, byte for \
       byte, as an uninterrupted one."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "With $(b,--checkpoint): events between checkpoint writes." in
    Arg.(value & opt int 1000 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let robust_arg =
    let doc =
      "Check the observed trace for SC-explainability against $(docv) (a \
       stock program name or file): enumerate the program's SC executions \
       and decide whether some SC interleaving produces this trace's exact \
       event structure and synchronization values.  Exit 0 when explainable, \
       2 when the trace is a non-SC observation, 3 when the SC pool does \
       not enumerate.  Replaces the race report; batch layout only."
    in
    Arg.(value & opt (some string) None & info [ "robust" ] ~docv:"PROGRAM" ~doc)
  in
  let run file reconstruct stream follow max_live stats idle salvage ckpt
      ckpt_every order robust () =
    let stream_mode =
      stream || follow || max_live <> None || stats || salvage || ckpt <> None
    in
    if robust <> None && stream_mode then
      fail
        "--robust needs the whole trace at once and is not available with \
         --stream";
    if not stream_mode then begin
      let t =
        or_fail
          (if Sys.file_exists file && Sys.is_directory file then
             Tracing.Codec.read_dir file
           else Tracing.Codec.read_file file)
      in
      match robust with
      | Some prog ->
        let p = load_program prog in
        or_fail (Minilang.Ast.validate p);
        let pool =
          match Explore.Scpool.build p with
          | Ok pool -> pool
          | Error msg -> fail ~code:3 "%s" msg
        in
        let n_events =
          Array.fold_left
            (fun acc evs -> acc + Array.length evs)
            0 t.Tracing.Trace.by_proc
        in
        let ok = Explore.Scpool.trace_explainable pool t in
        Format.printf
          "trace %s: %d event(s) across %d processor(s)@.SC \
           explainability against %s (%d SC behaviour(s)): %s@."
          file n_events
          (Array.length t.Tracing.Trace.by_proc)
          p.Minilang.Ast.name (Explore.Scpool.size pool)
          (if ok then "explainable — some SC interleaving produces this trace"
           else "NOT explainable — no SC interleaving produces this trace");
        if ok then 0 else 2
      | None ->
        let so1 = if reconstruct then `Reconstructed else `Recorded in
        let a = Racedetect.Postmortem.analyze ~so1 ~order t in
        Format.printf "%a@." (Racedetect.Report.pp_analysis ?loc_name:None) a;
        if Racedetect.Postmortem.race_free a then 0 else 2
    end
    else begin
      if Option.value max_live ~default:1 < 1 then
        fail "--max-live must be at least 1";
      if ckpt_every < 1 then fail "--checkpoint-every must be at least 1";
      if reconstruct then
        fail
          "--reconstruct-so1 is not available with --stream (streaming \
           consumes the recorded pairing)";
      if Sys.file_exists file && Sys.is_directory file then
        fail "--stream reads a single trace file, not a split directory";
      let v, st =
        stream_drive ?max_live ~salvage ~follow ~idle ~ckpt ~ckpt_every file
      in
      (* the streaming driver analyzes under hb1; the SHB extras are a
         pure post-pass over the verdict it hands back *)
      let v =
        Racedetect.Postmortem.verdict_map
          (Racedetect.Postmortem.with_order order)
          v
      in
      let code = print_verdict v in
      if stats then Format.eprintf "stream: %a@." Racedetect.Stream.pp_stats st;
      code
    end
  in
  command "analyze"
    ~doc:
      "Post-mortem analysis of an existing trace file, batch or streaming \
       ($(b,--stream)); both modes print the same report.  $(b,--salvage) \
       analyzes damaged traces (degraded verdict, exit 3); \
       $(b,--checkpoint) makes a long analysis survive a kill.  \
       $(b,--order shb) additionally predicts suppressed races via the SHB \
       order; exit codes are unaffected by the order."
    ~exits:
      (exits
         [ (0, "the trace was analyzed and is race-free.");
           (1, "an undecodable trace.");
           (2, "data races were reported.");
           ( 3,
             "the trace was lossy (salvaged decode discarded damaged regions): \
              the analysis is degraded and race-freedom cannot be certified; \
              with $(b,--robust), the SC pool did not enumerate." )
         ])
    Term.(
      const run $ file_arg $ reconstruct_arg $ stream_flag $ follow_arg
      $ max_live_arg $ stats_arg $ idle_arg $ salvage_arg $ checkpoint_arg
      $ checkpoint_every_arg $ order_arg $ robust_arg)

(* -- faultfuzz --------------------------------------------------------- *)

(* The fault-injection campaign: §5 warns that a racy program can
   overwrite its own trace buffers, so the decoder must fail loudly and
   the salvage path must stay sound however the bytes are damaged.  The
   campaign damages encoded traces with every injector Corrupt knows and
   asserts the robustness contract:

     1. no exception ever escapes the salvage pipeline — damaged input
        yields a verdict or a clean refusal, never a crash;
     2. an undamaged trace salvages to the exact batch report, and is
        never reported degraded;
     3. when salvage claims a clean decode, the strict pipeline accepts
        the same bytes and prints the identical report (so "clean" is
        never a euphemism for "lost something");
     4. anything else is a degraded verdict or a refusal — a lossy trace
        is never reported race-free;
     5. checkpointing at a random byte, abandoning the engine (the
        "kill"), restoring, and finishing reproduces the uninterrupted
        batch report byte-for-byte. *)

let faultfuzz_cmd =
  let seeds_arg =
    let doc = "Damage seeds per program, trace version and damage kind." in
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let program_arg =
    let doc = "Fuzz only this stock program (default: all of them)." in
    Arg.(value & opt (some string) None & info [ "program" ] ~docv:"NAME" ~doc)
  in
  let run seeds jobs program_filter () =
    let jobs = resolve_jobs jobs in
    if seeds < 1 then fail "--seeds must be at least 1";
    let report_of a =
      Format.asprintf "%a" (Racedetect.Report.pp_analysis ?loc_name:None) a
    in
    let programs =
      match program_filter with
      | None -> Minilang.Programs.all
      | Some n ->
        (match Minilang.Programs.find n with
         | Some p -> [ (n, p) ]
         | None -> fail "unknown stock program %S" n)
    in
    (* one execution per program; every damage case reuses its encodings *)
    let fixtures =
      Array.of_list
        (List.map
           (fun (name, p) ->
             let e = exec_of p `Buffer Memsim.Model.WO `Adversarial 4_000 0 in
             let t = Tracing.Trace.of_execution e in
             let v1 = Tracing.Codec.encode_stream t in
             let v2 =
               Tracing.Codec.encode_stream
                 ~version:Tracing.Codec.version_checksummed t
             in
             (* the reference report is the batch analysis of the decoded
                file (op labels are not serialized, so analyzing the
                in-memory trace would print differently) *)
             let batch =
               match Tracing.Codec.decode v1 with
               | Ok t' -> report_of (Racedetect.Postmortem.analyze t')
               | Error e -> fail "%s: fixture decode failed: %s" name e
             in
             (name, t, batch, v1, v2))
           programs)
    in
    let preflight = ref [] in
    let pre_fail name fmt =
      Printf.ksprintf (fun m -> preflight := (name ^ ": " ^ m) :: !preflight) fmt
    in
    Array.iter
      (fun (name, t, batch, v1, v2) ->
        List.iter
          (fun (vn, text) ->
            (match Tracing.Codec.decode text with
             | Ok t' when Tracing.Codec.equivalent t t' -> ()
             | Ok _ -> pre_fail name "v%d round-trip decoded a different trace" vn
             | Error e -> pre_fail name "v%d round-trip failed: %s" vn e);
            match Racedetect.Stream.analyze_salvage_string text with
            | exception ex ->
              pre_fail name "undamaged v%d salvage raised %s" vn
                (Printexc.to_string ex)
            | Error e -> pre_fail name "undamaged v%d salvage refused: %s" vn e
            | Ok (v, _) ->
              (match v with
               | Racedetect.Postmortem.Degraded _ ->
                 pre_fail name "undamaged v%d trace reported degraded" vn
               | v ->
                 if report_of (Racedetect.Postmortem.verdict_analysis v) <> batch
                 then
                   pre_fail name "undamaged v%d salvage report differs from batch"
                     vn))
          [ (1, v1); (2, v2) ];
        let batch_enc =
          [ (1, Tracing.Codec.encode t);
            (2, Tracing.Codec.encode ~version:Tracing.Codec.version_checksummed t)
          ]
        in
        List.iter
          (fun (vn, text) ->
            match Tracing.Codec.decode text with
            | Ok t' when Tracing.Codec.equivalent t t' -> ()
            | Ok _ ->
              pre_fail name "batch-layout v%d round-trip decoded a different trace"
                vn
            | Error e -> pre_fail name "batch-layout v%d round-trip failed: %s" vn e)
          batch_enc)
      fixtures;
    let damage_name =
      let open Tracing.Corrupt in
      function
      | Garble_bytes n -> Printf.sprintf "garble:%d" n
      | Drop_lines n -> Printf.sprintf "drop-lines:%d" n
      | Swap_events -> "swap-events"
      | Truncate_tail n -> Printf.sprintf "truncate:%d" n
      | Flip_bits n -> Printf.sprintf "flip-bits:%d" n
      | Duplicate_lines n -> Printf.sprintf "dup-lines:%d" n
    in
    let kinds seed =
      let open Tracing.Corrupt in
      [ Garble_bytes (1 + (seed mod 7));
        Drop_lines (1 + (seed mod 3));
        Swap_events;
        Truncate_tail (1 + (seed * 13 mod 160));
        Flip_bits (1 + (seed mod 5));
        Duplicate_lines (1 + (seed mod 3))
      ]
    in
    let run_case label ~batch ~orig damaged =
      match Racedetect.Stream.analyze_salvage_string damaged with
      | exception ex ->
        `Fail (Printf.sprintf "%s: salvage raised %s" label (Printexc.to_string ex))
      | Error _ -> `Refused
      | Ok (v, _) ->
        let rep = report_of (Racedetect.Postmortem.verdict_analysis v) in
        (match v with
         | Racedetect.Postmortem.Degraded _ ->
           if damaged = orig then
             `Fail (label ^ ": undamaged trace reported degraded")
           else `Degraded
         | Racedetect.Postmortem.Race_free _ | Racedetect.Postmortem.Races _ ->
           if damaged = orig then
             if rep = batch then `Clean
             else `Fail (label ^ ": no-op damage changed the report")
           else (
             (* clean claim on altered bytes: the strict pipeline must
                agree on those bytes, or information was silently lost *)
             match Racedetect.Stream.analyze_string damaged with
             | exception ex ->
               `Fail
                 (Printf.sprintf "%s: strict raised %s where salvage was clean"
                    label (Printexc.to_string ex))
             | Error e ->
               `Fail
                 (Printf.sprintf
                    "%s: salvage claims a clean decode but strict analysis \
                     fails (%s)"
                    label e)
             | Ok (a, _) ->
               if report_of a = rep then `Clean
               else `Fail (label ^ ": clean salvage report differs from strict")))
    in
    let resume_check label ~batch text seed =
      let module R = Racedetect.Stream.Reader in
      let ckpt = Filename.temp_file "racedet-fuzz" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
        (fun () ->
          let cut = seed * 7919 mod (String.length text + 1) in
          let r = R.create ~salvage:false () in
          let ( let* ) res f =
            match res with
            | Error e -> `Fail (Printf.sprintf "%s: %s" label e)
            | Ok v -> f v
          in
          let* () = R.feed r (String.sub text 0 cut) in
          R.save r ckpt;
          (* the reader above is abandoned here — the simulated kill *)
          let* r = R.resume ~salvage:false ckpt in
          let pos = R.offset r in
          let* () = R.feed r (String.sub text pos (String.length text - pos)) in
          let* v, _ = R.close r in
          if report_of (Racedetect.Postmortem.verdict_analysis v) = batch then `Clean
          else `Fail (label ^ ": resumed report differs from batch"))
    in
    (* every case's outcome, in seed, fixture, damage and version order *)
    let outcomes =
      Engine.Parbatch.map_seeds ~jobs seeds (fun seed ->
          List.concat_map
            (fun (name, _t, batch, v1, v2) ->
              List.concat_map
                (fun damage ->
                  List.map
                    (fun (vn, text) ->
                      let damaged = Tracing.Corrupt.apply ~seed damage text in
                      let label =
                        Printf.sprintf "%s v%d seed %d %s" name vn seed
                          (damage_name damage)
                      in
                      run_case label ~batch ~orig:text damaged)
                    [ (1, v1); (2, v2) ])
                (kinds seed)
              @ [ resume_check
                    (Printf.sprintf "%s seed %d kill+resume" name seed)
                    ~batch v2 seed ])
            (Array.to_list fixtures))
      |> Array.to_list |> List.concat
    in
    let count o = List.length (List.filter (( = ) o) outcomes) in
    let failures =
      List.rev !preflight
      @ List.filter_map (function `Fail m -> Some m | _ -> None) outcomes
    in
    Format.printf
      "faultfuzz: %d program(s) x %d seed(s): %d case(s) — %d clean, %d \
       degraded, %d refused, %d invariant violation(s)@."
      (Array.length fixtures) seeds (List.length outcomes) (count `Clean)
      (count `Degraded) (count `Refused) (List.length failures);
    List.iteri
      (fun i m -> if i < 20 then Format.printf "  FAIL %s@." m)
      failures;
    (match List.length failures with
     | n when n > 20 -> Format.printf "  ... and %d more@." (n - 20)
     | _ -> ());
    if failures <> [] then 1 else 0
  in
  command "faultfuzz"
    ~doc:
      "Fault-injection campaign over the trace pipeline: damage encoded \
       traces (garbled bytes, flipped bits, dropped / duplicated / swapped \
       / truncated lines), salvage-analyze the wreckage, and assert that \
       no exception escapes, that lossy traces are never reported \
       race-free, that clean salvages match the strict report byte for \
       byte, and that checkpoint / kill / restore reproduces the batch \
       report exactly."
    ~exits:
      (exits
         [ (0, "every robustness invariant held.");
           (1, "at least one invariant violation.") ])
    Term.(const run $ seeds_arg $ jobs_arg $ program_arg)

(* -- enumerate ---------------------------------------------------------- *)

let enumerate_cmd =
  let limit_arg =
    let doc = "Stop after this many explored SC schedules." in
    Arg.(value & opt int 100_000 & info [ "limit" ] ~doc)
  in
  let naive_arg =
    let doc =
      "Visit every schedule instead of the DPOR-reduced set (same behaviours, \
       exponentially more schedules; kept for differential testing)."
    in
    Arg.(value & flag & info [ "naive" ] ~doc)
  in
  let run program limit naive () =
    let p = load_program program in
    let mk () = Minilang.Interp.source p in
    let execs, complete =
      if naive then
        let r = Memsim.Enumerate.explore ~limit mk in
        (r.Memsim.Enumerate.executions, r.Memsim.Enumerate.complete)
      else
        let r = Explore.Dpor.explore ~limit ~model:Memsim.Model.SC mk in
        (r.Explore.Dpor.executions, r.Explore.Dpor.complete)
    in
    let racy =
      List.filter
        (fun e ->
          Racedetect.Postmortem.data_races (Racedetect.Postmortem.analyze_execution e)
          <> [])
        execs
    in
    Format.printf "%d sequentially consistent execution(s)%s%s@."
      (List.length execs)
      (if naive then "" else " (DPOR-reduced)")
      (if complete then "" else " (incomplete)");
    Format.printf "%d exhibit data races@." (List.length racy);
    if racy <> [] then begin
      Format.printf "the program is NOT data-race-free (Def 2.4)@.";
      2
    end
    else if complete then begin
      Format.printf "the program is data-race-free: every weak execution is SC@.";
      0
    end
    else begin
      Format.printf "exploration incomplete: no verdict@.";
      1
    end
  in
  command "enumerate"
    ~doc:
      "Enumerate the SC executions (one representative per Mazurkiewicz \
       trace, via dynamic partial-order reduction) and decide whether the \
       program is data-race-free."
    ~exits:
      (exits
         [ (0, "every SC execution was covered and none races.");
           ( 1,
             "the exploration hit a bound before covering every execution (no \
              verdict)." );
           (2, "a racy SC execution was found (Def 2.4).") ])
    Term.(const run $ program_arg $ limit_arg $ naive_arg)

(* -- check (Condition 3.4) ---------------------------------------------- *)

let check_cmd =
  let seeds_arg =
    let doc = "Number of weak executions to check per model." in
    Arg.(value & opt int 10 & info [ "n"; "seeds" ] ~doc)
  in
  let limit_arg =
    let doc = "SC enumeration bound." in
    Arg.(value & opt int 200_000 & info [ "limit" ] ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Check every schedule of every weak model (store-buffer machine only; \
       litmus-sized, loop-free programs)."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let run program machine n limit exhaustive jobs () =
    let jobs = resolve_jobs jobs in
    let p = load_program program in
    let r = Memsim.Enumerate.explore ~limit (fun () -> Minilang.Interp.source p) in
    if not r.Memsim.Enumerate.complete then
      fail "SC enumeration incomplete; Condition 3.4 cannot be decided";
    let pool = r.Memsim.Enumerate.executions in
    let failures = ref 0 in
    let total = ref 0 in
    let report model tag v =
      incr total;
      if not v.Racedetect.Condition.holds then begin
        incr failures;
        Format.printf "%s %s: %a@." (Memsim.Model.name model) tag
          Racedetect.Condition.pp_verdict v
      end
    in
    List.iter
      (fun model ->
        if exhaustive then begin
          (* DPOR covers every behaviour class of the weak decision space
             with exponentially fewer schedules than [explore_weak]; the
             SC pool above stays naive because Condition needs the full
             execution pool for its SCP witness search *)
          let w =
            Explore.Dpor.explore ~limit ~model (fun () ->
                Minilang.Interp.source p)
          in
          if not w.Explore.Dpor.complete then
            fail "weak exploration incomplete for %s" (Memsim.Model.name model);
          let behaviours = Memsim.Enumerate.behaviours w.Explore.Dpor.executions in
          Engine.Parbatch.map_list ~jobs
            (fun e -> Racedetect.Condition.check ~sc:pool e)
            behaviours
          |> List.iteri (fun i v -> report model (Printf.sprintf "schedule %d" i) v)
        end
        else
          (* verdicts computed in parallel; reported in seed order *)
          Engine.Parbatch.map_seeds ~jobs n (fun seed ->
              Racedetect.Condition.check ~sc:pool
                (exec_of p machine model `Adversarial 20_000 seed))
          |> Array.iteri (fun seed v -> report model (Printf.sprintf "seed=%d" seed) v))
      Memsim.Model.weak;
    if !failures = 0 then begin
      Format.printf "Condition 3.4 obeyed on all %d weak executions%s@." !total
        (if exhaustive then " (exhaustive behaviour coverage)" else "");
      0
    end
    else begin
      Format.printf "%d violation(s)@." !failures;
      2
    end
  in
  command "check"
    ~doc:
      "Verify Condition 3.4 (Theorem 3.5) on weak executions of a program, \
       against exhaustive SC enumeration."
    ~exits:
      (exits
         [ (0, "Condition 3.4 held on every checked weak execution.");
           (1, "the SC or weak enumeration hit its bound (no verdict).");
           (2, "Condition 3.4 was violated.") ])
    Term.(
      const run $ program_arg $ machine_arg $ seeds_arg $ limit_arg $ exhaustive_arg
      $ jobs_arg)

(* -- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let seeds_arg =
    let doc = "Schedules per model." in
    Arg.(value & opt int 100 & info [ "n"; "seeds" ] ~doc)
  in
  let run program machine n max_steps () =
    let p = load_program program in
    Format.printf "%-6s %8s %10s %12s %12s@." "model" "runs" "racy-runs"
      "races(max)" "truncated";
    List.iter
      (fun model ->
        if not (machine = `Cache && Memsim.Model.fifo_buffer model) then begin
          let racy = ref 0 and max_races = ref 0 and truncated = ref 0 in
          for seed = 0 to n - 1 do
            let e = exec_of p machine model `Adversarial max_steps seed in
            if e.Memsim.Exec.truncated then incr truncated;
            let races =
              List.length
                (Racedetect.Postmortem.data_races
                   (Racedetect.Postmortem.analyze_execution e))
            in
            if races > 0 then incr racy;
            if races > !max_races then max_races := races
          done;
          Format.printf "%-6s %8d %10d %12d %12d@." (Memsim.Model.name model) n !racy
            !max_races !truncated
        end)
      Memsim.Model.all;
    0
  in
  command "sweep"
    ~doc:
      "Fuzz a program: run many adversarial schedules on every model and \
       summarize how often data races actually materialize."
    Term.(const run $ program_arg $ machine_arg $ seeds_arg $ max_steps_arg)

(* -- graph (DOT export) --------------------------------------------------- *)

let graph_cmd =
  let out_arg =
    let doc = "Write the DOT graph here instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run program machine model sched seed max_steps out () =
    let p, e = run_exec program machine model sched seed max_steps in
    let a = Racedetect.Postmortem.analyze_execution e in
    let dot = Racedetect.Report.to_dot ~loc_name:(Minilang.Ast.loc_name p) a in
    (match out with
     | None -> print_string dot
     | Some path ->
       Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc dot);
       Format.printf "wrote %s@." path);
    0
  in
  command "graph"
    ~doc:
      "Emit the augmented happens-before-1 graph (Figure 3 style) as Graphviz \
       DOT: po edges solid, so1 dashed, races red and doubly directed, first \
       partitions highlighted."
    Term.(
      const run $ program_arg $ machine_arg $ model_arg $ sched_arg $ seed_arg
      $ max_steps_arg $ out_arg)

(* -- gen (random programs) ------------------------------------------------ *)

let gen_cmd =
  let kind_arg =
    let doc = "Population: $(b,racy), $(b,racefree) (Test&Set/Unset) or $(b,racefree-ra) (release/acquire)." in
    Arg.(
      value
      & opt (enum [ ("racy", `Racy); ("racefree", `Racefree); ("racefree-ra", `Ra) ]) `Racy
      & info [ "k"; "kind" ] ~docv:"KIND" ~doc)
  in
  let gen_seed_arg =
    let doc = "Generator seed." in
    Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)
  in
  let procs_arg =
    let doc = "Processors." in
    Arg.(value & opt int 2 & info [ "procs" ] ~doc)
  in
  let ops_arg =
    let doc = "Operations per processor." in
    Arg.(value & opt int 4 & info [ "ops" ] ~doc)
  in
  let run kind seed procs ops () =
    let config =
      { Minilang.Gen.default_config with Minilang.Gen.n_procs = procs; ops_per_proc = ops }
    in
    let p =
      match kind with
      | `Racy -> Minilang.Gen.random_racy ~config ~seed ()
      | `Racefree -> Minilang.Gen.random_racefree ~config ~seed ()
      | `Ra -> Minilang.Gen.random_racefree_ra ~config ~seed ()
    in
    let p = { p with Minilang.Ast.name = "generated" } in
    print_string (Minilang.Parser.to_source p);
    0
  in
  command "gen"
    ~doc:
      "Emit a random program (in the concrete syntax) from the Monte-Carlo \
       populations used to validate Condition 3.4."
    Term.(const run $ kind_arg $ gen_seed_arg $ procs_arg $ ops_arg)

(* -- replay (SCP debugger) ----------------------------------------------- *)

let replay_cmd =
  let limit_arg =
    let doc = "SC enumeration bound for the ground-truth pool." in
    Arg.(value & opt int 500_000 & info [ "limit" ] ~doc)
  in
  let watch_arg =
    let doc = "Named location to put a watchpoint on (repeatable)." in
    Arg.(value & opt_all string [] & info [ "w"; "watch" ] ~docv:"LOC" ~doc)
  in
  let run program model sched seed max_steps limit watches () =
    let p = load_program program in
    let watched =
      List.map
        (fun name ->
          match List.assoc_opt name p.Minilang.Ast.symbols with
          | Some loc -> (name, loc)
          | None -> fail "unknown location %S" name)
        watches
    in
    let weak =
      Minilang.Interp.run ~max_steps ~model ~sched:(make_sched sched seed) p
    in
    let r = Memsim.Enumerate.explore ~limit (fun () -> Minilang.Interp.source p) in
    if not r.Memsim.Enumerate.complete then
      fail "SC enumeration incomplete; prefix replay needs ground truth";
    match
      Racedetect.Scpreplay.of_weak_execution ~sc:r.Memsim.Enumerate.executions
        ~source:(fun () -> Minilang.Interp.source p)
        weak
    with
    | None -> fail "empty SC pool"
    | Some session ->
      let loc_name = Minilang.Ast.loc_name p in
      Format.printf "%a@." (Racedetect.Scpreplay.pp_session ~loc_name) session;
      List.iter
        (fun (name, loc) ->
          Format.printf "@.watch %s:" name;
          List.iter
            (fun (step, v) -> Format.printf " [step %d] %d" step v)
            (Racedetect.Scpreplay.watch session loc);
          Format.printf "@.")
        watched;
      0
  in
  command "replay"
    ~doc:
      "Replay the sequentially consistent prefix of a weak execution on an SC \
       machine, with optional watchpoints — §5's \"debug the SC part with SC \
       tools\"."
    Term.(
      const run $ program_arg $ model_arg $ sched_arg $ seed_arg $ max_steps_arg
      $ limit_arg $ watch_arg)

(* -- cost ---------------------------------------------------------------- *)

let cost_cmd =
  let run program seed () =
    let p = load_program program in
    Format.printf "%-6s %10s %12s@." "model" "cycles" "stalls";
    List.iter
      (fun model ->
        let e =
          Minilang.Interp.run ~model ~sched:(Memsim.Sched.adversarial ~seed ()) p
        in
        let est = Memsim.Cost.estimate ~mode:model e in
        Format.printf "%-6s %10d %12d@." (Memsim.Model.name model)
          est.Memsim.Cost.makespan est.Memsim.Cost.stall_cycles)
      Memsim.Model.all;
    0
  in
  command "cost"
    ~doc:
      "Estimate execution time under each model's stall policy (the price of a \
       sequentially consistent debug mode)."
    Term.(const run $ program_arg $ seed_arg)

(* -- triage ------------------------------------------------------------ *)

let triage_exits =
  exits
    [ ( 0,
        "every data candidate was REFUTED (or none existed): within the \
         exploration bounds the program is data-race-free." );
      (2, "at least one data candidate was CONFIRMED by a witness execution.");
      ( 3,
        "no candidate was confirmed but at least one is UNKNOWN (an \
         exploration bound was hit before the candidate could be refuted)." )
    ]

let triage_steps_arg =
  let doc =
    "Truncate explored schedules after this many machine steps (truncation \
     downgrades refutations to UNKNOWN)."
  in
  Arg.(value & opt int 400 & info [ "max-steps" ] ~docv:"N" ~doc)

let triage_limit_arg =
  let doc = "Explore at most this many schedules per candidate." in
  Arg.(value & opt int 2_000 & info [ "limit" ] ~docv:"N" ~doc)

let write_witnesses dir (r : Explore.Triage.report) =
  List.iteri
    (fun i (v : Explore.Triage.verdict) ->
      match v.Explore.Triage.witness with
      | None -> ()
      | Some w ->
        let path = Filename.concat dir (Printf.sprintf "cand%d.trace" i) in
        or_fail (Explore.Triage.write_witness r path w);
        Format.printf "witness for candidate %d written to %s (verified by re-analysis)@."
          i path)
    r.Explore.Triage.data

let run_triage p ~max_steps ~limit ~sync ~jobs ~model ~witness_dir =
  or_fail (Minilang.Ast.validate p);
  Option.iter (fun dir -> or_fail (Tracing.Codec.ensure_dir dir)) witness_dir;
  let r = Explore.Triage.run ~max_steps ~limit ~sync ~jobs ~model p in
  Format.printf "%a@." Explore.Triage.pp r;
  Option.iter (fun dir -> write_witnesses dir r) witness_dir;
  Explore.Triage.exit_code r

let sc_model_arg =
  let doc =
    "Memory model whose decision space is explored.  The default SC is the \
     canonical choice: Definition 2.4 defines data-race-freedom through the \
     sequentially consistent executions."
  in
  Arg.(
    value
    & opt model_conv Memsim.Model.SC
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let witness_dir_arg =
  let doc =
    "Write each CONFIRMED candidate's minimal witness to $(docv)/candN.trace \
     (checksummed v2 format); each file is verified by decoding it back and \
     re-running the analysis, and replays through $(b,racedet analyze) to a \
     report containing the race."
  in
  Arg.(value & opt (some string) None & info [ "witness-dir" ] ~docv:"DIR" ~doc)

let triage_cmd =
  let sync_flag =
    let doc = "Also triage the unordered sync-sync pairs (informational)." in
    Arg.(value & flag & info [ "sync" ] ~doc)
  in
  let run program max_steps limit sync jobs model witness_dir () =
    let jobs = resolve_jobs jobs in
    let p = load_program program in
    run_triage p ~max_steps ~limit ~sync ~jobs ~model ~witness_dir
  in
  command "triage"
    ~doc:
      "Classify every static race candidate ($(b,racedet lint)) by \
       candidate-directed bounded exploration: CONFIRMED with a minimal \
       replayable witness trace, REFUTED by complete DPOR coverage within \
       the bounds, or UNKNOWN when a bound was hit."
    ~exits:triage_exits
    Term.(
      const run $ program_arg $ triage_steps_arg $ triage_limit_arg $ sync_flag
      $ jobs_arg $ sc_model_arg $ witness_dir_arg)

(* -- variants ---------------------------------------------------------- *)

let variants_cmd =
  let seeds_arg =
    let doc =
      "Seeds per variant x program cell (even seeds use the adversarial \
       scheduler, odd seeds the uniform one)."
    in
    Arg.(value & opt int 16 & info [ "n"; "seeds" ] ~doc)
  in
  let witness_arg =
    let doc =
      "Write each violating variant's minimized breaking schedule to \
       $(docv)/<variant>-<check>.trace (checksummed v2 format); every file is \
       verified by replaying the schedule to a byte-identical trace and by \
       decoding + re-analyzing it."
    in
    Arg.(value & opt (some string) None & info [ "witness-dir" ] ~docv:"DIR" ~doc)
  in
  let run seeds jobs witness_dir () =
    let jobs = resolve_jobs jobs in
    Option.iter (fun dir -> or_fail (Tracing.Codec.ensure_dir dir)) witness_dir;
    let r = Explore.Vcampaign.run ~seeds ~jobs ?witness_dir () in
    Format.printf "%a@." Explore.Vcampaign.pp r;
    Explore.Vcampaign.exit_code r
  in
  command "variants"
    ~doc:
      "Sweep the hardware-variant lattice (canonical models, bounded \
       buffers, stalling/bypassing reads, weakened drains) over the stock \
       litmus programs and seeds, asserting per variant whether Condition \
       3.4 is preserved and whether fences really order buffered writes; \
       violating variants get minimized, replayable v2 witness traces."
    ~exits:
      (exits
         [ (0, "every verdict matches the lattice prediction.");
           ( 1,
             "a verdict diverged from its prediction, or a witness failed \
              verification." ) ])
    Term.(const run $ seeds_arg $ jobs_arg $ witness_arg)

(* -- lint -------------------------------------------------------------- *)

let json_flag =
  let doc =
    "Emit a machine-readable JSON report instead of the text one (stable \
     schema, locked by the test suite); exit status is unchanged."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let lint_cmd =
  let run program sync model triage json max_steps limit jobs witness_dir () =
    let p = load_program program in
    or_fail (Minilang.Ast.validate p);
    if json && triage then fail "--json and --triage are mutually exclusive";
    let r = Staticcheck.Lint.analyze p in
    let delays = Staticcheck.Delayset.analyze p r.Staticcheck.Lint.results in
    if json then
      print_endline
        (Staticcheck.Jsonout.to_string (Staticcheck.Jsonout.lint ~delays r))
    else
      Format.printf "%a@."
        (Staticcheck.Lint.pp ?model ~show_sync:sync ~delays)
        r;
    if triage then begin
      let jobs = resolve_jobs jobs in
      Format.printf "@.";
      run_triage p ~max_steps ~limit ~sync ~jobs ~model:Memsim.Model.SC
        ~witness_dir
    end
    else if r.Staticcheck.Lint.data_candidates <> [] then 2
    else 0
  in
  let sync_arg =
    let doc = "Itemize the unordered sync-sync pairs instead of counting them." in
    Arg.(value & flag & info [ "sync" ] ~doc)
  in
  let triage_arg =
    let doc =
      "Follow the static report with a dynamic triage of every candidate \
       (see $(b,racedet triage)); the exit status becomes the triage one."
    in
    Arg.(value & flag & info [ "triage" ] ~doc)
  in
  let model_opt_arg =
    let doc =
      "Keep only the discipline findings relevant to this model (default: all)."
    in
    Arg.(
      value
      & opt (some model_conv) None
      & info [ "m"; "model" ] ~docv:"MODEL" ~doc)
  in
  command "lint"
    ~doc:
      "Statically check synchronization discipline and list candidate race \
       pairs (a sound over-approximation: exits 2 when data candidates \
       exist, 0 when the program is statically race-free).  Every data \
       candidate carries its delay-set explanation: the critical cycle \
       witnessing how weak hardware could order it, or a note that no \
       cycle exists.  With $(b,--triage), follow up with the dynamic \
       classification of every candidate; with $(b,--json), emit the \
       machine-readable report."
    ~exits:
      (exits
         [ ( 0,
             "no data candidate (with $(b,--triage): every candidate was \
              REFUTED)." );
           (2, "data candidates exist (with $(b,--triage): one was CONFIRMED).");
           ( 3,
             "with $(b,--triage): no candidate was confirmed but at least one \
              is UNKNOWN." ) ])
    Term.(
      const run $ program_arg $ sync_arg $ model_opt_arg $ triage_arg
      $ json_flag $ triage_steps_arg $ triage_limit_arg $ jobs_arg
      $ witness_dir_arg)

(* -- fence ------------------------------------------------------------- *)

let fence_json (plan : Staticcheck.Repair.t)
    (check : Explore.Repaircheck.t option) =
  let open Staticcheck.Jsonout in
  let module R = Staticcheck.Repair in
  let module D = Staticcheck.Delayset in
  let p = plan.R.original in
  let ds = plan.R.delays0 in
  let access_json i = of_access p (D.access ds i) in
  let fence_site (f : R.fence_site) =
    Obj
      [
        ("proc", Int f.R.fn_proc);
        ("after", Str (Minilang.Ast.path_to_string f.R.fn_after));
        ("covers", Int f.R.fn_covers);
      ]
  in
  let promotion (pr : R.promotion) =
    Obj
      [
        ("proc", Int pr.R.pr_proc);
        ("path", Str (Minilang.Ast.path_to_string pr.R.pr_path));
        ("label", match pr.R.pr_label with Some l -> Str l | None -> Null);
        ("from", Str (if pr.R.pr_store then "store" else "load"));
        ("to", Str (if pr.R.pr_store then "release" else "acquire"));
        ("forced", Bool pr.R.pr_forced);
      ]
  in
  let verify_json (c : Explore.Repaircheck.t) =
    let module RC = Explore.Repaircheck in
    Obj
      [
        ( "models",
          List (List.map (fun m -> Str (Memsim.Model.name m)) c.RC.models) );
        ( "candidates",
          List
            (List.map
               (fun (cc : RC.cand_check) ->
                 Obj
                   [
                     ("index", Int cc.RC.cc_index);
                     ("before", Str (Explore.Triage.status_name cc.RC.cc_before));
                     ( "after",
                       List
                         (List.map
                            (fun (mv : RC.model_verdict) ->
                              Obj
                                [
                                  ("model", Str (Memsim.Model.name mv.RC.mv_model));
                                  ("status", Str (Explore.Triage.status_name mv.RC.mv_status));
                                  ("schedules", Int mv.RC.mv_schedules);
                                ])
                            cc.RC.cc_after) );
                   ])
               c.RC.checks) );
        ( "cond34",
          match c.RC.cond34 with
          | RC.Cond_pass { weak_runs; sc_pool } ->
            Obj
              [
                ("status", Str "pass");
                ("weak_runs", Int weak_runs);
                ("sc_pool", Int sc_pool);
              ]
          | RC.Cond_fail m -> Obj [ ("status", Str "fail"); ("detail", Str m) ]
          | RC.Cond_skipped m ->
            Obj [ ("status", Str "skipped"); ("detail", Str m) ] );
        ("verified", Bool (RC.verified c));
      ]
  in
  Obj
    [
      ("schema", Int 1);
      ("program", Str p.Minilang.Ast.name);
      ("model", Str (Memsim.Model.name plan.R.model));
      ( "delayset",
        Obj
          [
            ("accesses", Int (Array.length ds.D.accesses));
            ("conflicts", Int (List.length ds.D.conflicts));
            ("truncated", Bool ds.D.truncated);
            ("cycles", List (List.map (of_cycle ds) ds.D.cycles));
            ( "delays",
              List
                (List.map
                   (fun (u, v) ->
                     Obj [ ("from", access_json u); ("to", access_json v) ])
                   ds.D.delays) );
          ] );
      ( "repair",
        Obj
          [
            ( "fence_only",
              match plan.R.fence_only with
              | None -> Null
              | Some sites -> List (List.map fence_site sites) );
            ("promotions", List (List.map promotion plan.R.promotions));
            ("fences", List (List.map fence_site plan.R.fences));
            ("rounds", Int plan.R.rounds);
            ("statically_drf", Bool (R.statically_drf plan));
          ] );
      ( "verify",
        match check with Some c -> verify_json c | None -> Null );
    ]

let fence_cmd =
  let repair_arg =
    let doc = "Write the repaired program (concrete syntax) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "repair" ] ~docv:"FILE" ~doc)
  in
  let explain_arg =
    let doc =
      "List every critical cycle and attach to each data candidate the cycle \
       that witnesses it (default: the first eight cycles, summary only)."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Close the loop dynamically: re-triage every former data candidate on \
       the repaired program under every canonical buffering model (expecting \
       REFUTED everywhere) and check Condition 3.4 on the chosen model."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let seeds_arg =
    let doc = "Weak runs for the Condition 3.4 check (with --verify)." in
    Arg.(value & opt int 16 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let sc_limit_arg =
    let doc =
      "SC enumeration budget for the Condition 3.4 check (with --verify); \
       spinning programs that exceed it skip the check (exit 3)."
    in
    Arg.(value & opt int 20_000 & info [ "sc-limit" ] ~docv:"N" ~doc)
  in
  let run program model repair_out explain verify json max_steps limit seeds
      sc_limit jobs () =
    let p = load_program program in
    or_fail (Minilang.Ast.validate p);
    let plan = Staticcheck.Repair.plan ~model p in
    let check =
      if verify then
        let jobs = resolve_jobs jobs in
        Some
          (Explore.Repaircheck.run ~max_steps ~limit ~seeds ~sc_limit ~jobs
             plan)
      else None
    in
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Staticcheck.Repair.source plan)))
      repair_out;
    let module R = Staticcheck.Repair in
    let module D = Staticcheck.Delayset in
    if json then print_endline (Staticcheck.Jsonout.to_string (fence_json plan check))
    else begin
      let ds = plan.R.delays0 in
      Format.printf "program %s: %d processors, %d locations@."
        p.Minilang.Ast.name
        (Array.length p.Minilang.Ast.procs)
        p.Minilang.Ast.n_locs;
      Format.printf "@.delay-set analysis (model %s):@."
        (Memsim.Model.name model);
      Format.printf "  %a@." D.pp ds;
      let n_cycles = List.length ds.D.cycles in
      let shown = if explain then n_cycles else min 8 n_cycles in
      List.iteri
        (fun i c ->
          if i < shown then
            Format.printf "  cycle %d: %a@." (i + 1) (D.pp_cycle ds) c)
        ds.D.cycles;
      if shown < n_cycles then
        Format.printf "  ... %d more cycle(s) (use --explain to list all)@."
          (n_cycles - shown);
      (match ds.D.delays with
      | [] -> ()
      | delays ->
        Format.printf "  delay pairs:@.";
        List.iter
          (fun d -> Format.printf "    %a@." (D.pp_delay ds) d)
          delays);
      if explain then begin
        match plan.R.lint0.Staticcheck.Lint.data_candidates with
        | [] -> ()
        | cands ->
          Format.printf "@.candidate explanations:@.";
          List.iter
            (fun c ->
              Format.printf "  %a@." (Staticcheck.Lint.pp_pair p) c;
              match D.cycle_for ds c with
              | Some cy -> Format.printf "    cycle: %a@." (D.pp_cycle ds) cy
              | None -> Format.printf "    %s@." (D.no_cycle_note ds))
            cands
      end;
      Format.printf "@.@[<v>%a@]@." R.pp plan;
      (match repair_out with
      | Some path -> Format.printf "@.repaired program written to %s@." path
      | None -> ());
      match check with
      | Some c -> Format.printf "@.%a@." Explore.Repaircheck.pp c
      | None -> ()
    end;
    match check with
    | Some c -> Explore.Repaircheck.exit_code c
    | None -> if R.statically_drf plan then 0 else 2
  in
  command "fence"
    ~doc:
      "Shasha-Snir delay-set analysis and verified repair: enumerate the \
       critical cycles of the static conflict graph, compute the delay \
       pairs, and synthesize the minimal variant-aware repair — fence \
       insertions where the model's fence class drains, release/acquire \
       promotions for the verified data-race-free program.  With \
       $(b,--repair) write the repaired program; with $(b,--verify) prove \
       it dynamically (triage REFUTES every former candidate; Condition \
       3.4 holds)."
    ~exits:
      (exits
         [ ( 0,
             "a repair was synthesized (and, with $(b,--verify), every former \
              candidate was REFUTED on it and Condition 3.4 held)." );
           ( 2,
             "the repair left data candidates, a candidate survived on the \
              repaired program, or Condition 3.4 failed." );
           ( 3,
             "inconclusive: an exploration bound was hit or the Condition 3.4 \
              check was skipped." ) ])
    Term.(
      const run $ program_arg $ model_arg $ repair_arg $ explain_arg
      $ verify_arg $ json_flag $ triage_steps_arg $ triage_limit_arg
      $ seeds_arg $ sc_limit_arg $ jobs_arg)

(* -- robust ------------------------------------------------------------ *)

let robust_json (t : Explore.Robustcheck.t) =
  let open Staticcheck.Jsonout in
  let module RB = Staticcheck.Robust in
  let module RC = Explore.Robustcheck in
  let module D = Staticcheck.Delayset in
  let s = t.RC.static_ in
  let ds = s.RB.ds in
  let p = t.RC.program in
  let access_json i = of_access p (D.access ds i) in
  let kind_str = function
    | Memsim.Variant.Delay_wr -> "wr"
    | Memsim.Variant.Delay_ww -> "ww"
    | Memsim.Variant.Delay_own_read -> "own-read"
  in
  let edge_json (e : RB.edge) =
    Obj
      [
        ("from", access_json e.RB.e_u);
        ("to", access_json e.RB.e_v);
        ("breakable", Bool e.RB.e_breakable);
        ( "kind",
          match e.RB.e_kind with Some k -> Str (kind_str k) | None -> Null );
        ("reason", Str e.RB.e_reason);
      ]
  in
  let cycle_json (cv : RB.cycle_verdict) =
    Obj
      [
        ("feasible", Bool cv.RB.c_feasible);
        ("cycle", of_cycle ds cv.RB.c_cycle);
        ("edges", List (List.map edge_json cv.RB.c_edges));
      ]
  in
  let hazard_json (h : RB.hazard) =
    Obj
      [ ("write", access_json h.RB.h_write); ("read", access_json h.RB.h_read) ]
  in
  let witness_json (w : RC.witness) =
    let module W = Explore.Witness in
    Obj
      [
        ("schedule_steps", Int (List.length w.W.schedule));
        ("operations", Int (Memsim.Exec.n_ops w.W.exec));
        ("verified", Bool (w.W.verified = Ok ()));
        ("path", match w.W.path with Some p -> Str p | None -> Null);
      ]
  in
  Obj
    [
      ("schema", Int 1);
      ("program", Str p.Minilang.Ast.name);
      ("model", Str (Memsim.Model.name t.RC.model));
      ("verdict", Str (RC.verdict_str t));
      ("exit", Int (RC.exit_code t));
      ( "static",
        Obj
          [
            ("robust", Bool s.RB.robust);
            ("truncated", Bool s.RB.truncated);
            ( "breakable",
              Int
                (List.length
                   (List.filter (fun e -> e.RB.e_breakable) s.RB.edges)) );
            ("cycles", List (List.map cycle_json s.RB.cycles));
            ("hazards", List (List.map hazard_json s.RB.hazards));
          ] );
      ( "closure",
        match t.RC.verdict with
        | RC.Robust_verdict `Static -> Null
        | RC.Robust_verdict `Dynamic ->
          Obj
            [
              ("sc_behaviours", Int t.RC.sc_behaviours);
              ("schedules", Int t.RC.schedules);
              ("complete", Bool true);
              ("witness", Null);
            ]
        | RC.Not_robust w ->
          Obj
            [
              ("sc_behaviours", Int t.RC.sc_behaviours);
              ("schedules", Int t.RC.schedules);
              ("complete", Bool false);
              ("witness", witness_json w);
            ]
        | RC.Unknown msg ->
          Obj
            [
              ("sc_behaviours", Int t.RC.sc_behaviours);
              ("schedules", Int t.RC.schedules);
              ("complete", Bool false);
              ("detail", Str msg);
            ] );
      ( "frontier",
        List
          (List.map
             (fun (f : RB.frontier_entry) ->
               Obj
                 [
                   ("point", Str f.RB.f_name);
                   ("robust", Bool f.RB.f_robust);
                 ])
             t.RC.frontier) );
    ]

let robust_cmd =
  let explain_arg =
    let doc =
      "Attach the full static explanation: every critical cycle's po edges \
       with the delay kind that breaks them or the knob that enforces them, \
       and every bypass coherence hazard."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let sc_limit_arg =
    let doc =
      "SC enumeration budget for the dynamic closure; spinning programs that \
       exceed it are UNKNOWN (exit 3)."
    in
    Arg.(value & opt int 100_000 & info [ "sc-limit" ] ~docv:"N" ~doc)
  in
  let max_steps_arg =
    let doc = "Machine steps per explored weak schedule." in
    Arg.(value & opt int 2_000 & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let limit_arg =
    let doc = "Weak schedules the dynamic closure may explore." in
    Arg.(value & opt int 100_000 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let witness_dir_arg =
    let doc =
      "Write the minimized non-SC witness to $(docv)/<program>.robust.trace \
       (checksummed v2 format, replay + round-trip verified)."
    in
    Arg.(value & opt (some string) None & info [ "witness-dir" ] ~docv:"DIR" ~doc)
  in
  let run program model explain json witness_dir max_steps limit sc_limit () =
    let p = load_program program in
    or_fail (Minilang.Ast.validate p);
    let witness_path =
      Option.map
        (fun dir ->
          or_fail (Tracing.Codec.ensure_dir dir);
          Filename.concat dir (p.Minilang.Ast.name ^ ".robust.trace"))
        witness_dir
    in
    let t =
      Explore.Robustcheck.run ~max_steps ~limit ~sc_limit ?witness_path ~model
        p
    in
    if json then print_endline (Staticcheck.Jsonout.to_string (robust_json t))
    else Format.printf "%a@." (Explore.Robustcheck.pp ~explain) t;
    Explore.Robustcheck.exit_code t
  in
  command "robust"
    ~doc:
      "Static robustness certification with a dynamic closure: classify \
       every Shasha-Snir critical cycle as feasible or infeasible under \
       the model's hardware variant (mapping each program-order edge to \
       the store-buffer delay kind that would break it), prove ROBUST \
       when none is feasible, and otherwise hunt for a minimal non-SC \
       execution with candidate-directed DPOR, emitted as a \
       replay-verified v2 witness.  Reports the static verdict at every \
       lattice point ($(b,racedet variants)).  Robustness is orthogonal \
       to race-freedom: sb is racy and non-robust, iriw is racy yet \
       robust everywhere."
    ~exits:
      (exits
         [ ( 0,
             "ROBUST: proved statically (no feasible critical cycle, no \
              coherence hazard) or dynamically (exhaustive closure, every \
              behaviour SC-explainable)." );
           (1, "a witness failed verification.");
           (2, "NOT ROBUST: a replay-verified non-SC witness was found.");
           ( 3,
             "UNKNOWN: the exploration budget was hit or the SC pool did not \
              enumerate." ) ])
    Term.(
      const run $ program_arg $ model_arg $ explain_arg $ json_flag
      $ witness_dir_arg $ max_steps_arg $ limit_arg $ sc_limit_arg)

(* -- serve / client / loadgen / chaos --------------------------------- *)

let addr_conv =
  let parse s =
    match Serve.Server.parse_addr s with Ok a -> Ok a | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Serve.Server.pp_addr)

let connect_arg =
  let doc = "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or $(b,tcp:PORT)." in
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "c"; "connect" ] ~docv:"ADDR" ~doc)

let harness_programs_arg =
  let doc =
    "Programs to build traces from (stock names or files); repeatable.  \
     Defaults to a mixed racy/race-free stock set."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"PROGRAM" ~doc)

(* Default fixture set: stock programs of both verdicts plus two larger
   generated ones, so the corpus spans several v2 epoch marks (the
   checkpoint/resume scenarios need cut points well before the end). *)
let default_harness_programs () =
  let stock =
    List.map
      (fun n -> (n, load_program n))
      [ "fig1b"; "barrier_phases"; "lazy_init"; "counter_racy" ]
  in
  let config =
    { Minilang.Gen.n_procs = 4; n_shared = 6; n_locks = 2; ops_per_proc = 80;
      sync_freq = 4 }
  in
  stock
  @ [ ("gen_racy", Minilang.Gen.random_racy ~config ~seed:7 ());
      ("gen_racefree", Minilang.Gen.random_racefree ~config ~seed:11 ()) ]

let harness_fixtures ?seeds_per_program programs =
  let progs =
    if programs = [] then default_harness_programs ()
    else
      List.map (fun n -> (Filename.basename n, load_program n)) programs
  in
  or_fail (Serve.Harness.fixtures ?seeds_per_program progs)

let serve_cmd =
  let listen_arg =
    let doc =
      "Address to listen on: $(b,unix:PATH), $(b,tcp:HOST:PORT), or \
       $(b,tcp:PORT) (port 0 binds an ephemeral port, printed on stdout)."
    in
    Arg.(value & opt addr_conv (Serve.Server.Tcp ("", 0)) & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let shards_arg =
    let doc = "Worker domains; sessions are sharded round-robin (0 = one per core)." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let max_sessions_arg =
    let doc =
      "Streaming-session budget: beyond it, the least-recently-active session \
       is shed with $(b,verdict shed reason max-sessions)."
    in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let global_live_arg =
    let doc = "Global resident-event budget across all sessions (sheds when over)." in
    Arg.(value & opt (some int) None & info [ "global-live" ] ~docv:"EVENTS" ~doc)
  in
  let max_live_arg =
    let doc = "Per-session live-set cap (forced retirement above it, as in analyze)." in
    Arg.(value & opt (some int) None & info [ "max-live" ] ~docv:"EVENTS" ~doc)
  in
  let idle_timeout_arg =
    let doc = "Disconnect sessions silent for $(docv) seconds (0 disables)." in
    Arg.(value & opt float 30. & info [ "idle-timeout" ] ~docv:"SEC" ~doc)
  in
  let session_timeout_arg =
    let doc =
      "Abort sessions older than $(docv) seconds regardless of activity — the \
       slowloris guard (0 disables)."
    in
    Arg.(value & opt float 0. & info [ "session-timeout" ] ~docv:"SEC" ~doc)
  in
  let finish_timeout_arg =
    let doc =
      "Run each session's final analysis under a $(docv)-second wall-clock \
       budget; a wedged analysis yields $(b,verdict aborted reason \
       analysis-timeout) instead of stalling its shard (0 runs inline)."
    in
    Arg.(value & opt float 30. & info [ "finish-timeout" ] ~docv:"SEC" ~doc)
  in
  let checkpoint_dir_arg =
    let doc =
      "Checkpoint sessions into $(docv) at v2 epoch marks, making them \
       SIGKILL-safe; see $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Minimum events between two checkpoints of one session." in
    Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~docv:"EVENTS" ~doc)
  in
  let resume_arg =
    let doc =
      "Adopt the checkpoints already in $(b,--checkpoint-dir): reconnecting \
       clients are told the byte offset to resend from and final verdicts are \
       byte-identical to an uninterrupted session."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the per-event log lines on stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run listen shards max_sessions global_live max_live idle_timeout
      session_timeout finish_timeout checkpoint_dir checkpoint_every resume
      quiet () =
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    let cfg =
      {
        (Serve.Server.default_config listen) with
        shards = resolve_jobs shards;
        max_sessions;
        global_live;
        session_max_live = max_live;
        idle_timeout;
        session_timeout;
        finish_timeout;
        checkpoint_dir;
        checkpoint_every;
        resume;
        log =
          (if quiet then ignore
           else fun line -> Printf.eprintf "racedet-serve: %s\n%!" line);
        ready =
          (fun bound ->
            Printf.printf "serving on %s\n%!" bound);
      }
    in
    match Serve.Server.run ~stop cfg with
    | Ok () -> 0
    | Error msg -> fail "%s" msg
  in
  command "serve"
    ~doc:
      "Run the analysis daemon: many concurrent trace sessions over \
       Unix/TCP sockets, one streaming engine per connection, sharded \
       across a domain pool — with per-session fault isolation, load \
       shedding, idle/slowloris timeouts, and SIGKILL-safe checkpoints \
       ($(b,--checkpoint-dir) + $(b,--resume))."
    ~exits:
      (exits
         [ (0, "the daemon stopped gracefully.");
           (1, "startup failed (bad address, bind error).") ])
    Term.(
      const run $ listen_arg $ shards_arg $ max_sessions_arg $ global_live_arg
      $ max_live_arg $ idle_timeout_arg $ session_timeout_arg
      $ finish_timeout_arg $ checkpoint_dir_arg $ checkpoint_every_arg
      $ resume_arg $ quiet_arg)

let client_cmd =
  let trace_arg =
    let doc = "Trace file to stream (required unless --metrics or --stop)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let session_arg =
    let doc = "Session id (default: the trace's basename, sanitized)." in
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"ID" ~doc)
  in
  let chunk_arg =
    let doc = "Bytes per socket write." in
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"BYTES" ~doc)
  in
  let delay_arg =
    let doc = "Seconds to sleep between chunks (a deliberately slow writer)." in
    Arg.(value & opt float 0. & info [ "delay" ] ~docv:"SEC" ~doc)
  in
  let abort_after_arg =
    let doc =
      "Drop the connection after sending $(docv) bytes — a simulated client \
       crash (exits 1)."
    in
    Arg.(value & opt (some int) None & info [ "abort-after" ] ~docv:"BYTES" ~doc)
  in
  let metrics_flag =
    let doc = "Print the daemon's plaintext metrics snapshot and exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let stop_flag =
    let doc = "Ask the daemon to shut down gracefully and exit." in
    Arg.(value & flag & info [ "stop" ] ~doc)
  in
  let sanitize_id s =
    let s = String.map (fun c -> if Serve.Protocol.session_id_char c then c else '-') s in
    let s = if s = "" then "cli" else s in
    String.sub s 0 (min 64 (String.length s))
  in
  let run addr trace session chunk delay abort_after metrics stop () =
    match trace with
    | _ when metrics ->
      print_string (or_fail (Serve.Client.metrics addr));
      0
    | _ when stop ->
      or_fail (Serve.Client.stop addr);
      0
    | None -> fail "a TRACE argument is required (or --metrics/--stop)"
    | Some file ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      let id =
        match session with Some s -> s | None -> sanitize_id (Filename.basename file)
      in
      let o =
        or_fail
          (Serve.Client.session ~chunk ~delay ?abort_after addr ~id ~trace:text)
      in
      print_string o.Serve.Client.report;
      Serve.Protocol.exit_code o.Serve.Client.cls
  in
  command "client"
    ~doc:
      "Stream a trace to a $(b,racedet serve) daemon and print the verdict \
       report — byte-identical to $(b,racedet analyze) on the same trace.  \
       If the server offers a resume offset (it holds a checkpoint for this \
       session id), only the tail is resent."
    ~exits:
      (exits
         [ (0, "the session was analyzed and is race-free.");
           (1, "a transport error, or the server refused the session.");
           (2, "data races were reported.");
           (3, "the session was lossy: the analysis is degraded.");
           (4, "the session was shed by the server (over budget).");
           (5, "the session was aborted by the server (timeout/shutdown).") ])
    Term.(
      const run $ connect_arg $ trace_arg $ session_arg $ chunk_arg $ delay_arg
      $ abort_after_arg $ metrics_flag $ stop_flag)

let loadgen_cmd =
  let sessions_arg =
    let doc = "Total sessions to replay." in
    Arg.(value & opt int 200 & info [ "n"; "sessions" ] ~docv:"N" ~doc)
  in
  let concurrency_arg =
    let doc = "Concurrent client connections." in
    Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"N" ~doc)
  in
  let chunk_arg =
    let doc = "Bytes per socket write." in
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"BYTES" ~doc)
  in
  let seeds_arg =
    let doc = "Distinct executions (seeds) per program." in
    Arg.(value & opt int 2 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let min_throughput_arg =
    let doc = "Fail (exit 1) below $(docv) aggregate events/sec." in
    Arg.(value & opt float 0. & info [ "min-throughput" ] ~docv:"EPS" ~doc)
  in
  let run addr programs sessions concurrency chunk seeds min_throughput () =
    let fx = harness_fixtures ~seeds_per_program:seeds programs in
    let r = Serve.Harness.load ~concurrency ~chunk ~sessions ~fixtures:fx addr in
    List.iter (fun m -> Format.eprintf "racedet-loadgen: %s@." m)
      r.Serve.Harness.l_failures;
    Format.printf "%a@." Serve.Harness.pp_load r;
    if r.Serve.Harness.l_failures <> [] then 1
    else if
      min_throughput > 0. && r.Serve.Harness.l_events_per_sec < min_throughput
    then begin
      Format.eprintf
        "racedet-loadgen: throughput %.0f events/sec below the %.0f floor@."
        r.Serve.Harness.l_events_per_sec min_throughput;
      1
    end
    else 0
  in
  command "loadgen"
    ~doc:
      "Drive a running daemon with many interleaved trace sessions and \
       assert every verdict and report byte-identical to a local reference \
       analysis; prints aggregate throughput."
    ~exits:
      (exits
         [ (0, "every session matched its reference.");
           ( 1,
             "a verdict mismatched, a session failed, or throughput was below \
              the floor." ) ])
    Term.(
      const run $ connect_arg $ harness_programs_arg $ sessions_arg
      $ concurrency_arg $ chunk_arg $ seeds_arg $ min_throughput_arg)

let chaos_cmd =
  let seeds_arg =
    let doc = "Fault seeds per scenario (scales the corrupt and kill sweeps)." in
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let log_dir_arg =
    let doc = "On violations, copy server logs and offending traces into $(docv)." in
    Arg.(value & opt (some string) None & info [ "log-dir" ] ~docv:"DIR" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress scenario progress lines on stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run programs seeds log_dir quiet () =
    let fx = harness_fixtures programs in
    let log =
      if quiet then ignore else fun m -> Printf.eprintf "racedet-chaos: %s\n%!" m
    in
    let r =
      or_fail
        (Serve.Harness.chaos ~exe:Sys.executable_name ~seeds ~log_dir ~log
           ~fixtures:fx ())
    in
    List.iter
      (fun v -> Format.eprintf "racedet-chaos: violation: %s@." v)
      r.Serve.Harness.c_violations;
    Format.printf "%a@." Serve.Harness.pp_chaos r;
    Serve.Harness.chaos_exit_code r
  in
  command "chaos"
    ~doc:
      "Fault-injection campaign against real $(b,racedet serve) daemons: \
       concurrent baseline sessions (cross-talk check), corrupted frames, \
       mid-stream connection kills, slowloris writers, duplicate session \
       ids, and SIGKILL-then-$(b,--resume) — asserting lossy sessions are \
       never certified race-free, resumed verdicts are byte-identical, and \
       the server stays live throughout."
    ~exits:
      (exits
         [ (0, "every invariant held.");
           (1, "an invariant was violated (or the campaign could not run).") ])
    Term.(const run $ harness_programs_arg $ seeds_arg $ log_dir_arg $ quiet_arg)

let () =
  let doc = "dynamic data-race detection on weak memory systems (ISCA 1991)" in
  let info = Cmd.info "racedet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; show_cmd; run_cmd; detect_cmd; trace_cmd; analyze_cmd;
            faultfuzz_cmd; enumerate_cmd; check_cmd; cost_cmd; replay_cmd;
            graph_cmd; gen_cmd; sweep_cmd; lint_cmd; fence_cmd; robust_cmd;
            triage_cmd;
            variants_cmd; serve_cmd; client_cmd; loadgen_cmd; chaos_cmd ]))
