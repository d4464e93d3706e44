let version = 1
let magic = "weakrace-serve"

type hello =
  | Session of string
  | Metrics
  | Stop

let session_id_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '-'

let valid_session_id id =
  let n = String.length id in
  n >= 1 && n <= 64 && String.for_all session_id_char id

let hello_line = function
  | Session id -> Printf.sprintf "%s %d session %s" magic version id
  | Metrics -> Printf.sprintf "%s %d metrics" magic version
  | Stop -> Printf.sprintf "%s %d stop" magic version

let parse_hello line =
  match String.split_on_char ' ' (String.trim line) with
  | [ m; v; "session"; id ] when m = magic ->
    if v <> string_of_int version then
      Error (Printf.sprintf "unsupported protocol version %s (this build speaks %d)" v version)
    else if not (valid_session_id id) then
      Error (Printf.sprintf "invalid session id %S (1-64 chars of [A-Za-z0-9._-])" id)
    else Ok (Session id)
  | [ m; v; "metrics" ] when m = magic ->
    if v <> string_of_int version then
      Error (Printf.sprintf "unsupported protocol version %s (this build speaks %d)" v version)
    else Ok Metrics
  | [ m; v; "stop" ] when m = magic ->
    if v <> string_of_int version then
      Error (Printf.sprintf "unsupported protocol version %s (this build speaks %d)" v version)
    else Ok Stop
  | _ -> Error "malformed hello (expected \"weakrace-serve 1 session <id>\")"

type outcome =
  | Analyzed of Racedetect.Postmortem.verdict * int
  | Shed of string
  | Aborted of string
  | Failed of string

type outcome_class =
  | Race_free
  | Races of int
  | Degraded of int
  | Shed_c
  | Aborted_c
  | Error_c

(* Failure reasons travel as a single token in the verdict line (the
   full message goes in the report body), so the line stays trivially
   splittable. *)
let reason_token s =
  let s = if s = "" then "unknown" else s in
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'
      then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '-')
    (String.sub s 0 (min 32 (String.length s)))

let races_of a = List.length (Racedetect.Postmortem.reported_races a)

let verdict_line = function
  | Analyzed (Racedetect.Postmortem.Race_free _, events) ->
    Printf.sprintf "verdict race-free events %d" events
  | Analyzed (Racedetect.Postmortem.Races a, events) ->
    Printf.sprintf "verdict races %d events %d" (races_of a) events
  | Analyzed (Racedetect.Postmortem.Degraded { analysis; _ }, events) ->
    Printf.sprintf "verdict degraded races %d events %d" (races_of analysis) events
  | Shed reason -> Printf.sprintf "verdict shed reason %s" (reason_token reason)
  | Aborted reason -> Printf.sprintf "verdict aborted reason %s" (reason_token reason)
  | Failed reason -> Printf.sprintf "verdict error reason %s" (reason_token reason)

let parse_verdict_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "verdict"; "race-free"; "events"; n ] ->
    (match int_of_string_opt n with
     | Some n -> Ok (Race_free, Some n, None)
     | None -> Error ("bad verdict line: " ^ line))
  | [ "verdict"; "races"; k; "events"; n ] ->
    (match int_of_string_opt k, int_of_string_opt n with
     | Some k, Some n -> Ok (Races k, Some n, None)
     | _ -> Error ("bad verdict line: " ^ line))
  | [ "verdict"; "degraded"; "races"; k; "events"; n ] ->
    (match int_of_string_opt k, int_of_string_opt n with
     | Some k, Some n -> Ok (Degraded k, Some n, None)
     | _ -> Error ("bad verdict line: " ^ line))
  | [ "verdict"; "shed"; "reason"; w ] -> Ok (Shed_c, None, Some w)
  | [ "verdict"; "aborted"; "reason"; w ] -> Ok (Aborted_c, None, Some w)
  | [ "verdict"; "error"; "reason"; w ] -> Ok (Error_c, None, Some w)
  | _ -> Error ("bad verdict line: " ^ line)

let exit_code = function
  | Race_free -> 0
  | Races _ -> 2
  | Degraded _ -> 3
  | Shed_c -> 4
  | Aborted_c -> 5
  | Error_c -> 1

(* Must stay byte-identical to what bin/racedet's [print_verdict]
   writes to stdout — the serve cram test [cmp]s the two. *)
let render_verdict_report v =
  let buf = Buffer.create 1024 in
  let degraded =
    match v with Racedetect.Postmortem.Degraded _ -> true | _ -> false
  in
  Racedetect.Report.render ~degraded buf (Racedetect.Postmortem.verdict_analysis v);
  Buffer.add_char buf '\n';
  (match v with
   | Racedetect.Postmortem.Degraded { loss; _ } ->
     Format.fprintf (Format.formatter_of_buffer buf) "@.@[<v>%a@]@."
       Racedetect.Postmortem.pp_loss loss
   | _ -> ());
  Buffer.contents buf

let outcome_report = function
  | Analyzed (v, _) -> render_verdict_report v
  | Shed reason -> Printf.sprintf "session shed by the server: %s\n" reason
  | Aborted reason -> Printf.sprintf "session aborted by the server: %s\n" reason
  | Failed msg -> Printf.sprintf "session failed: %s\n" msg
