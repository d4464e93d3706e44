(* What every workload receives and returns. *)

type size = Full | Smoke

type ctx = {
  seed : int;
  seconds : float;  (* measured time; a unit in flight when it runs out finishes *)
  traced : bool;
  size : size;
  work : string;  (* private scratch directory, removed after the run *)
  racedet : string;  (* the racedet binary, for the serve daemon *)
}

type outcome = {
  e2e : (string * float * int) list;  (* end-to-end metric, value, samples *)
  layers : (string * float) list;  (* per-layer metrics this workload exercises *)
  attempted : int;
  failures : string list;
  facts : (string * Json.t) list;  (* compared against pins.json *)
}

(* Operations attempted, how many reached a definite verdict (race-free,
   races, ROBUST, ...), and one line per failed operation.  The serve
   load generator writes to it from two domains. *)
type log = {
  mutable attempted : int;
  mutable decided : int;
  mutable failed : string list;
  lock : Mutex.t;
}

let log () = { attempted = 0; decided = 0; failed = []; lock = Mutex.create () }
let attempt l = Mutex.protect l.lock (fun () -> l.attempted <- l.attempted + 1)
let decide l = Mutex.protect l.lock (fun () -> l.decided <- l.decided + 1)
let decided_ratio l = float l.decided /. float (max 1 l.attempted)
let fail l fmt = Printf.ksprintf (fun m -> Mutex.protect l.lock (fun () -> l.failed <- m :: l.failed)) fmt
let check l ok fmt = Printf.ksprintf (fun m -> if not ok then fail l "%s" m) fmt

(* Run units [f i], i = 0, 1, ..., for about [seconds]: at least [min]
   of them, and a further one only while half of the last unit's time
   still fits, so a run overshoots by at most half a unit. *)
let repeat ~seconds ?(min = 1) f =
  let t0 = Obs.now () in
  let rec go i last =
    let elapsed = Obs.now () -. t0 in
    if i < min || elapsed +. (last /. 2.) < seconds then begin
      f i;
      go (i + 1) (Obs.now () -. t0 -. elapsed)
    end
    else i
  in
  go 0 0.

(* Set-up runs this many times per run; setup_s is the median. *)
let setup_reps = 5

(* Time [f ()] [setup_reps] times; return the median and the last
   result.  [between ()] runs untimed before each set-up. *)
let setup_median ?(between = ignore) f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    between ();
    let t0 = Obs.now () in
    let r = f () in
    times := (Obs.now () -. t0) :: !times;
    last := Some r
  done;
  (Obs.median !times, Option.get !last)

(* Per-layer shares: each span name's total self time over [wall]. *)
let shares ~wall selfs names =
  List.map
    (fun (metric, span_name) ->
      let t =
        List.fold_left
          (fun acc ((s : Obs.span), self) -> if s.Obs.name = span_name then acc +. self else acc)
          0. selfs
      in
      (metric, if wall > 0. then t /. wall else 0.))
    names

(* Summed duration of every span called [name]. *)
let total_duration spans name =
  List.fold_left
    (fun acc (s : Obs.span) -> if s.Obs.name = name then acc +. (s.Obs.stop -. s.Obs.start) else acc)
    0. spans

(* 1 - (self time of [name]) / (duration of [name]): the share of a
   pipeline span that its timed stages account for. *)
let coverage selfs name =
  let dur, self =
    List.fold_left
      (fun (d, s) ((sp : Obs.span), self) ->
        if sp.Obs.name = name then (d +. (sp.Obs.stop -. sp.Obs.start), s +. self) else (d, s))
      (0., 0.) selfs
  in
  if dur > 0. then 1. -. (self /. dur) else 0.

(* Traced vs untraced units of the same kind: in a traced run every
   other unit runs without spans. *)
let overhead ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.
  | _ -> (Obs.median traced /. Obs.median untraced) -. 1.

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ when Sys.file_exists p -> ()
    end
  in
  go path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()
