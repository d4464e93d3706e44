(* Measurement helpers: wall clock, in-memory spans, statistics, GC
   deltas and /proc readings.

   Spans are recorded only by the benchmark's own code, around each call
   it makes into a library's public function; nothing inside the
   libraries is instrumented.  When tracing is off [span] is a plain
   call, so untraced runs pay nothing for it. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  unit_id : int;  (* the rep, session or check the span belongs to *)
  start : float;
  stop : float;
}

(* Tracing is switched per domain, so concurrent load-generator domains
   can trace alternate sessions independently. *)
let enabled_key = Domain.DLS.new_key (fun () -> false)
let set_tracing b = Domain.DLS.set enabled_key b
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0

(* The open spans of the calling domain, innermost first. *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span ?(unit_id = -1) name f =
  if not (Domain.DLS.get enabled_key) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get stack in
    let parent, unit_id =
      match outer with
      | (p, u) :: _ -> (p, if unit_id >= 0 then unit_id else u)
      | [] -> (-1, unit_id)
    in
    Domain.DLS.set stack ((id, unit_id) :: outer);
    let start = now () in
    let finish () =
      let stop = now () in
      Domain.DLS.set stack outer;
      Mutex.protect lock (fun () ->
          recorded := { id; name; parent; unit_id; start; stop } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Self time: a span's duration minus the time its direct children
   cover.  Children run on the parent's domain, one after another, so
   their durations never overlap. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, (s.stop -. s.start) -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let write_trace path ~workload spans =
  let j =
    Json.Obj
      [ ("workload", Json.Str workload);
        ( "spans",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Obj
                   [ ("id", Json.Num (float s.id));
                     ("name", Json.Str s.name);
                     ("parent", Json.Num (float s.parent));
                     ("unit", Json.Num (float s.unit_id));
                     ("start", Json.Num s.start);
                     ("end", Json.Num s.stop) ])
               spans) ) ]
  in
  Json.write_file path j

(* -- statistics ---------------------------------------------------------- *)

(* Quantile by linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median l = quantile 0.5 l

(* First and third quartiles as Python's statistics.quantiles(l, n=4)
   computes them (its default, exclusive method). *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)

(* -- GC and process readings --------------------------------------------- *)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> Option.map (fun k -> float k /. 1024.) (int_of_string_opt kb)
           | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' text)

let md5 s = Digest.to_hex (Digest.string s)
