module Exec = Memsim.Exec
module Machine = Memsim.Machine
module Postmortem = Racedetect.Postmortem
module Race = Racedetect.Race
module Trace = Tracing.Trace
module Event = Tracing.Event
module Codec = Tracing.Codec

type t = {
  schedule : Exec.decision list;
  exec : Exec.t;
  path : string option;
  verified : (unit, string) result;
}

let execution ~model mk prefix =
  let m = Machine.replay ~model mk prefix in
  if not (Machine.finished m) then Machine.set_truncated m;
  Machine.force_drain m;
  Machine.to_execution m

(* Greedy minimization: scan prefixes from the short end and keep the
   first whose drained replay still violates.  For the properties the
   callers check — a race, an SC-inexplicable behaviour — this finds the
   shortest such prefix. *)
let minimize ~model ~violates mk sched =
  let n = List.length sched in
  let rec go k =
    if k > n then invalid_arg "Witness.minimize: full schedule no longer violates"
    else
      let prefix = List.filteri (fun i _ -> i < k) sched in
      let exec = execution ~model mk prefix in
      match violates exec with
      | Some x -> (prefix, exec, x)
      | None -> go (k + 1)
  in
  go 1

let race_endpoints (trace : Trace.t) (r : Race.t) =
  let ev e = (trace.Trace.events.(e).Event.proc, trace.Trace.events.(e).Event.seq) in
  (ev r.Race.a, ev r.Race.b, r.Race.locs)

(* A witness must replay and survive the file round trip:
   1. re-performing the schedule yields a byte-identical v2 trace (the
      machine is deterministic in the schedule);
   2. the written v2 trace decodes to the same bytes, and re-analysis of
      the decoded copy reports exactly the races of the original. *)
let verify ~model mk ?path schedule exec =
  let ( let* ) = Result.bind in
  let encode t = Codec.encode ~version:Codec.version_checksummed t in
  let t0 = Trace.of_execution exec in
  let enc0 = encode t0 in
  let* () =
    if encode (Trace.of_execution (execution ~model mk schedule)) = enc0 then Ok ()
    else Error "replaying the schedule does not reproduce the trace byte for byte"
  in
  let* decoded =
    match path with
    | None -> Codec.decode enc0
    | Some path ->
      Codec.write_file ~version:Codec.version_checksummed path t0;
      Codec.read_file path
  in
  let races t =
    List.map (race_endpoints t) (Postmortem.analyze t).Postmortem.races
    |> List.sort compare
  in
  if encode decoded = enc0 && races decoded = races t0 then Ok ()
  else Error "decoded witness does not re-analyze identically"

let make ~model mk ?path schedule exec =
  { schedule; exec; path; verified = verify ~model mk ?path schedule exec }

let pp_verification ppf w =
  match (w.verified, w.path) with
  | Ok (), Some p -> Format.fprintf ppf ", verified v2 trace at %s" p
  | Ok (), None -> Format.pp_print_string ppf ", replay + round-trip verified"
  | Error e, _ -> Format.fprintf ppf ", VERIFICATION FAILED: %s" e

let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s: not a directory" dir)
  else
    match ensure_dir (Filename.dirname dir) with
    | Error _ as e -> e
    | Ok () ->
      (try Ok (Sys.mkdir dir 0o755) with
       | Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
       | Sys_error msg -> Error msg)
