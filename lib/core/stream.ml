module Codec = Tracing.Codec
module Event = Tracing.Event
module Trace = Tracing.Trace
module Bitset = Graphlib.Bitset

exception Fail of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

type stats = {
  total_events : int;
  peak_live : int;
  retired : int;
  forced_retired : int;
  surviving : int;
  races : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "events %d, peak live %d, retired %d (forced %d), surviving %d, races %d"
    s.total_events s.peak_live s.retired s.forced_retired s.surviving s.races

(* A processed event that is still a race candidate: its payload is
   resident, and [epoch] packs (proc, own hb1 clock component) — a later
   event [f] is ordered after it iff [Epoch.leq epoch C_f], one integer
   comparison against [f]'s clock.  [stamp] is the id of the last event
   whose race scan looked at this candidate, so a candidate reached
   through several shared locations is checked once. *)
type cand = { ev : Event.t; epoch : Epoch.t; mutable stamp : int }

type t = {
  max_live : int option;
  tolerant : bool;
  mutable dropped : int; (* records rejected and discarded (tolerant mode) *)
  mutable model : string;
  mutable truncated : bool;
  mutable sizes : Codec.sizes option;
  mutable seen_any : bool;
  mutable ended : bool;
  mutable so1_complete : bool;
  (* dimensioned once the procs/locs/events header arrives *)
  mutable pending : Event.t Queue.t array; (* decoded, waiting on so1 info *)
  mutable pending_count : int;
  mutable frontier : Vclock.t array; (* clock of each proc's last processed event *)
  mutable minclock : int array;      (* pointwise min of the frontiers *)
  mutable minholders : int array;    (* per column: frontiers equal to the min *)
  mutable held : (int * int) Queue.t array;
    (* per proc: (eid, own tick) of each processed event whose clock is
       still held, in processing order, so ticks ascend *)
  mutable arrival_seq : int array;
  mutable ev_proc : int array;       (* eid -> proc; -1 = not yet seen *)
  mutable ev_seq : int array;
  mutable processed : Bytes.t;
  mutable proc_eids : int list array; (* processed eids per proc, newest first *)
  mutable loc_writers : cand list array; (* live candidates per location *)
  mutable loc_touchers : cand list array;
  cands : (int, cand) Hashtbl.t;
  clocks : (int, Vclock.t) Hashtbl.t; (* processed events not yet clock-dominated *)
  so1_in : (int, int list) Hashtbl.t; (* acquire -> releases, newest first *)
  so1_known : (int, unit) Hashtbl.t;
  pinned : (int, Event.t) Hashtbl.t;
  fifo : int Queue.t; (* candidates in processing order, for --max-live *)
  mutable so1_list : (int * int) list;       (* newest first *)
  mutable sync_order : (int * int list) list;
  mutable races : Race.t list;
  mutable seen_events : int;
  mutable live : int; (* resident payloads: pending + candidates *)
  mutable peak_live : int;
  mutable retired : int;
  mutable forced : int;
}

let create ?max_live ?(tolerant = false) () =
  (match max_live with
   | Some k when k < 1 -> invalid_arg "Stream.create: max_live must be >= 1"
   | _ -> ());
  {
    max_live;
    tolerant;
    dropped = 0;
    model = "";
    truncated = false;
    sizes = None;
    seen_any = false;
    ended = false;
    so1_complete = false;
    pending = [||];
    pending_count = 0;
    frontier = [||];
    minclock = [||];
    minholders = [||];
    held = [||];
    arrival_seq = [||];
    ev_proc = [||];
    ev_seq = [||];
    processed = Bytes.empty;
    proc_eids = [||];
    loc_writers = [||];
    loc_touchers = [||];
    cands = Hashtbl.create 64;
    clocks = Hashtbl.create 64;
    so1_in = Hashtbl.create 16;
    so1_known = Hashtbl.create 16;
    pinned = Hashtbl.create 16;
    fifo = Queue.create ();
    so1_list = [];
    sync_order = [];
    races = [];
    seen_events = 0;
    live = 0;
    peak_live = 0;
    retired = 0;
    forced = 0;
  }

let saw_end t = t.ended
let seen_events t = t.seen_events
let live_events t = t.live

let sizes_exn t what =
  match t.sizes with
  | Some s -> s
  | None -> failf "%s before the procs/locs/events header" what

let is_processed t eid = Bytes.get t.processed eid <> '\000'

let rels_of t eid =
  match Hashtbl.find_opt t.so1_in eid with
  | Some l -> l
  | None -> []

let is_acquire (ev : Event.t) =
  match ev.Event.body with
  | Event.Sync { op; _ } -> op.Memsim.Op.cls = Memsim.Op.Acquire
  | _ -> false

(* An event is processable once its hb1 predecessors outside program
   order are settled: non-acquires immediately, acquires once their so1
   record (or unpaired marker, or end of input) has arrived and every
   incoming release has itself been processed. *)
let ready t (ev : Event.t) =
  if not (is_acquire ev) then true
  else if Hashtbl.mem t.so1_known ev.Event.eid || t.so1_complete then
    List.for_all (fun r -> is_processed t r) (rels_of t ev.Event.eid)
  else false

(* [write l] for each location [ev] writes, then [read l] for each it
   reads.  A sync event names its one location directly, so no
   n_locs-wide bitset view ({!Event.writes}) is built per event. *)
let iter_accesses (ev : Event.t) ~write ~read =
  match ev.Event.body with
  | Event.Sync { op; _ } ->
    if op.Memsim.Op.kind = Memsim.Op.Write then write op.Memsim.Op.loc
    else read op.Memsim.Op.loc
  | Event.Computation { reads; writes; _ } ->
    Bitset.iter write writes;
    Bitset.iter read reads

let remove_from_loc_index t cand =
  let drop l = List.filter (fun c -> c != cand) l in
  iter_accesses cand.ev
    ~write:(fun l ->
      t.loc_writers.(l) <- drop t.loc_writers.(l);
      t.loc_touchers.(l) <- drop t.loc_touchers.(l))
    ~read:(fun l -> t.loc_touchers.(l) <- drop t.loc_touchers.(l))

(* §5 event GC: once every processor's frontier clock dominates an
   event's clock, every future event is hb1-after it — it can neither
   race with anything to come nor contribute to a future so1 join, so
   both its payload and its clock are dropped.

   Every clock here is built by join-and-tick, so for an event [e] of
   processor [q], [C_e <= C_f] iff [C_e.(q) <= C_f.(q)] — the same fact
   behind [Epoch.leq].  [C_e] is below every frontier exactly when its
   own tick is at most [minclock.(q)], and since [q]'s ticks ascend in
   processing order, the dominated events of [q] are a prefix of
   [held.(q)]. *)
let retire_held t q =
  let held = t.held.(q) in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt held with
    | Some (eid, tick) when tick <= t.minclock.(q) -> (
      ignore (Queue.pop held);
      Hashtbl.remove t.clocks eid;
      match Hashtbl.find_opt t.cands eid with
      | Some cand ->
        Hashtbl.remove t.cands eid;
        remove_from_loc_index t cand;
        t.retired <- t.retired + 1;
        t.live <- t.live - 1
      | None -> () (* already force-retired; only the clock remained *))
    | _ -> continue := false
  done

(* A processor's frontier rose from [old] to [c].  A column's minimum
   can only rise when its last holder leaves it, so a column is rescanned
   only then; a column whose minimum rose retires a prefix of that
   processor's held events. *)
let advance_frontier t old c =
  let n = Array.length t.minclock in
  for i = 0 to n - 1 do
    let o = Vclock.get old i in
    if o = t.minclock.(i) && Vclock.get c i > o then begin
      t.minholders.(i) <- t.minholders.(i) - 1;
      if t.minholders.(i) = 0 then begin
        let m = ref max_int and k = ref 0 in
        for q = 0 to n - 1 do
          let v = Vclock.get t.frontier.(q) i in
          if v < !m then begin m := v; k := 1 end
          else if v = !m then incr k
        done;
        t.minclock.(i) <- !m;
        t.minholders.(i) <- !k;
        retire_held t i
      end
    end
  done

(* --max-live degradation: evict the oldest candidates beyond the cap.
   Their payload and candidacy are dropped — a race against a later
   event in the stream is silently missed, which is the documented
   closure-on-window degradation — but their clocks are kept so hb1
   ordering stays exact. *)
let enforce_max_live t =
  match t.max_live with
  | None -> ()
  | Some k ->
    let continue = ref true in
    while !continue && Hashtbl.length t.cands > k do
      match Queue.take_opt t.fifo with
      | None -> continue := false
      | Some eid -> (
        match Hashtbl.find_opt t.cands eid with
        | None -> () (* retired since it was queued *)
        | Some cand ->
          Hashtbl.remove t.cands eid;
          remove_from_loc_index t cand;
          t.forced <- t.forced + 1;
          t.live <- t.live - 1)
    done

let pin t (ev : Event.t) =
  if not (Hashtbl.mem t.pinned ev.Event.eid) then Hashtbl.add t.pinned ev.Event.eid ev

let process t (ev : Event.t) =
  let eid = ev.Event.eid and p = ev.Event.proc in
  (* the event's hb1 clock: join of its po predecessor (the frontier)
     and its incoming releases, plus its own tick.  A release whose
     clock was retired is already dominated by the frontier, so the
     missing join is a no-op. *)
  let old = t.frontier.(p) in
  let c = Vclock.copy old in
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.clocks r with
      | Some rc -> Vclock.join_into c rc
      | None -> ())
    (rels_of t eid);
  Vclock.tick_into c p;
  t.frontier.(p) <- c;
  let epoch = Epoch.of_clock c p in
  (* race scan against the live candidates sharing a location: a
     candidate reached through [loc_touchers] of a location [ev] writes,
     or through [loc_writers] of one it reads, conflicts with [ev] *)
  let check cand =
    if cand.stamp <> eid then begin
      cand.stamp <- eid;
      if cand.ev.Event.proc <> p && not (Epoch.leq cand.epoch c) then begin
        t.races <- Race.make cand.ev ev :: t.races;
        pin t cand.ev;
        pin t ev
      end
    end
  in
  iter_accesses ev
    ~write:(fun l -> List.iter check t.loc_touchers.(l))
    ~read:(fun l -> List.iter check t.loc_writers.(l));
  (* publish as a live candidate *)
  let cand = { ev; epoch; stamp = -1 } in
  iter_accesses ev
    ~write:(fun l ->
      t.loc_writers.(l) <- cand :: t.loc_writers.(l);
      t.loc_touchers.(l) <- cand :: t.loc_touchers.(l))
    ~read:(fun l -> t.loc_touchers.(l) <- cand :: t.loc_touchers.(l));
  Hashtbl.replace t.cands eid cand;
  Hashtbl.replace t.clocks eid c;
  Queue.add (eid, Vclock.get c p) t.held.(p);
  Queue.add eid t.fifo;
  Bytes.set t.processed eid '\001';
  t.proc_eids.(p) <- eid :: t.proc_eids.(p);
  advance_frontier t old c;
  enforce_max_live t

let drain t =
  match t.sizes with
  | None -> ()
  | Some s ->
    let progress = ref true in
    while !progress do
      progress := false;
      for p = 0 to s.n_procs - 1 do
        let q = t.pending.(p) in
        let go = ref true in
        while !go do
          match Queue.peek_opt q with
          | Some ev when ready t ev ->
            ignore (Queue.pop q);
            t.pending_count <- t.pending_count - 1;
            process t ev;
            progress := true
          | _ -> go := false
        done
      done
    done

let bump_live t =
  t.live <- t.live + 1;
  if t.live > t.peak_live then t.peak_live <- t.live

let on_sizes t (s : Codec.sizes) =
  (match t.sizes with
   | Some _ -> failf "duplicate procs/locs/events header"
   | None -> ());
  t.sizes <- Some s;
  t.pending <- Array.init s.n_procs (fun _ -> Queue.create ());
  t.frontier <- Array.init s.n_procs (fun _ -> Vclock.make s.n_procs);
  t.minclock <- Array.make s.n_procs 0;
  t.minholders <- Array.make s.n_procs s.n_procs;
  t.held <- Array.init s.n_procs (fun _ -> Queue.create ());
  t.arrival_seq <- Array.make s.n_procs min_int;
  t.ev_proc <- Array.make s.n_events (-1);
  t.ev_seq <- Array.make s.n_events 0;
  t.processed <- Bytes.make s.n_events '\000';
  t.proc_eids <- Array.make s.n_procs [];
  t.loc_writers <- Array.make s.n_locs [];
  t.loc_touchers <- Array.make s.n_locs []

let on_event t (ev : Event.t) =
  let s = sizes_exn t "event record" in
  let eid = ev.Event.eid and p = ev.Event.proc in
  if eid < 0 || eid >= s.n_events then failf "event id %d out of range" eid;
  if t.ev_proc.(eid) >= 0 then failf "duplicate event %d" eid;
  if ev.Event.seq <= t.arrival_seq.(p) then
    failf "event %d of processor %d arrived out of program order" eid p;
  t.arrival_seq.(p) <- ev.Event.seq;
  t.ev_proc.(eid) <- p;
  t.ev_seq.(eid) <- ev.Event.seq;
  t.seen_events <- t.seen_events + 1;
  Queue.add ev t.pending.(p);
  t.pending_count <- t.pending_count + 1;
  bump_live t;
  drain t

let on_so1 t release acquire =
  let s = sizes_exn t "so1 record" in
  if release < 0 || release >= s.n_events || acquire < 0 || acquire >= s.n_events then
    failf "so1 pair out of range";
  if is_processed t acquire then
    failf "so1 record for event %d after it was already processed" acquire;
  t.so1_list <- (release, acquire) :: t.so1_list;
  Hashtbl.replace t.so1_in acquire (release :: rels_of t acquire);
  Hashtbl.replace t.so1_known acquire ();
  drain t

let on_so1_unpaired t acquire =
  let s = sizes_exn t "so1 record" in
  if acquire < 0 || acquire >= s.n_events then failf "so1 acquire out of range";
  Hashtbl.replace t.so1_known acquire ();
  drain t

let on_end t n =
  let s = sizes_exn t "end record" in
  if n <> s.n_events then
    failf "end record announces %d events, header says %d" n s.n_events;
  if t.seen_events <> s.n_events then
    failf "end record after %d of %d events" t.seen_events s.n_events;
  t.ended <- true

let push t (r : Codec.record) =
  try
    (match r with
     | Codec.Mark _ ->
       (* v2 integrity framing, verified (or salvaged) at the codec
          layer; the final mark legitimately follows the end record *)
       ()
     | _ ->
       if t.ended then failf "record after the end marker";
       t.seen_any <- true;
       (match r with
        | Codec.Magic _ | Codec.Mark _ -> ()
        | Codec.Model m -> t.model <- m
        | Codec.Truncated b -> t.truncated <- b
        | Codec.Sizes s -> on_sizes t s
        | Codec.Event ev -> on_event t ev
        | Codec.So1 { release; acquire } -> on_so1 t release acquire
        | Codec.So1_unpaired a -> on_so1_unpaired t a
        | Codec.Sync_order (l, es) -> t.sync_order <- (l, es) :: t.sync_order
        | Codec.End n -> on_end t n));
    Ok ()
  with Fail msg ->
    if t.tolerant then begin
      (* every handler validates before it mutates, so a rejected record
         leaves the engine consistent; drop it, count it, carry on *)
      t.dropped <- t.dropped + 1;
      Ok ()
    end
    else Error msg

let stats_of t =
  {
    total_events = t.seen_events;
    peak_live = t.peak_live;
    retired = t.retired;
    forced_retired = t.forced;
    surviving = Hashtbl.length t.pinned;
    races = List.length t.races;
  }

(* A stand-in for an event whose payload the engine no longer holds (or,
   salvaged, never received): no accesses, so it is never raced or
   printed.  A lost id has no processor; it gets 0 and, listed in no
   by_proc row, is ordered with nothing. *)
let stand_in t (s : Codec.sizes) =
  let empty = Bitset.create s.n_locs in
  let body = Event.Computation { reads = empty; writes = empty; ops = [] } in
  fun eid ->
    let proc = if t.ev_proc.(eid) >= 0 then t.ev_proc.(eid) else 0 in
    { Event.eid; proc; seq = t.ev_seq.(eid); body }

let mk_trace t (s : Codec.sizes) ~so1 ~sync_order events by_proc =
  {
    Trace.n_procs = s.n_procs;
    n_locs = s.n_locs;
    model = t.model;
    truncated = t.truncated;
    events;
    by_proc;
    so1;
    sync_order;
  }

(* Full-payload reassembly for a cyclic hb1 (possible on weak
   executions, §3.1): as long as nothing has been retired every payload
   is still resident, so the exact batch pipeline runs on the rebuilt
   trace.  [absent eid] stands for an id with no payload. *)
let resident_trace t s ~absent ~so1 ~sync_order =
  let events = Array.make s.Codec.n_events None in
  Hashtbl.iter (fun eid (cand : cand) -> events.(eid) <- Some cand.ev) t.cands;
  Array.iter
    (fun q -> Queue.iter (fun (ev : Event.t) -> events.(ev.Event.eid) <- Some ev) q)
    t.pending;
  let events =
    Array.mapi (fun eid ev -> match ev with Some e -> e | None -> absent eid) events
  in
  let by_proc = Array.make s.n_procs [] in
  Array.iter
    (fun (e : Event.t) ->
      if t.ev_proc.(e.Event.eid) >= 0 then
        by_proc.(e.Event.proc) <- e :: by_proc.(e.Event.proc))
    events;
  let by_proc =
    Array.map
      (fun evs ->
        let arr = Array.of_list (List.rev evs) in
        Array.sort (fun (a : Event.t) b -> compare a.Event.seq b.Event.seq) arr;
        arr)
      by_proc
  in
  mk_trace t s ~so1 ~sync_order events by_proc

(* The hb1 graph is rebuilt over the full event-id skeleton so SCC
   component numbering — and with it the partition report — is
   identical to the batch pipeline's, while only the surviving racy
   events keep their payloads.  The report reads payloads at race
   endpoints only, so the stand-ins are never printed. *)
let skeleton_trace t s ~so1 ~sync_order =
  let stand_in = stand_in t s in
  let events =
    Array.init s.Codec.n_events (fun eid ->
        match Hashtbl.find_opt t.pinned eid with Some ev -> ev | None -> stand_in eid)
  in
  let by_proc =
    Array.map
      (fun eids -> Array.of_list (List.rev_map (fun eid -> events.(eid)) eids))
      t.proc_eids
  in
  mk_trace t s ~so1 ~sync_order events by_proc

(* The batch pipeline's last stages over a skeleton trace whose races
   the engine already found, in the order the batch pipeline reports
   them. *)
let skeleton_analysis t trace =
  let hb = Hb.build ~so1:`Recorded trace in
  let races = Race.sort ~n:(Array.length trace.Trace.events) t.races in
  let augmented = Augment.build hb races in
  let partitions = Partition.compute augmented in
  { Postmortem.trace; hb; races; augmented; partitions; order = `Hb1; shb_extra = [] }

let finish t =
  try
    let s =
      match t.sizes with
      | Some s -> s
      | None ->
        (* the batch decoder accepts a sizes-less header as an empty
           trace; mirror it so both modes agree on degenerate input *)
        if t.seen_any then { Codec.n_procs = 0; n_locs = 0; n_events = 0 }
        else failf "empty trace"
    in
    t.so1_complete <- true;
    drain t;
    if t.seen_events < s.n_events then begin
      let missing = ref 0 in
      (try
         for eid = 0 to s.n_events - 1 do
           if t.ev_proc.(eid) < 0 then begin missing := eid; raise Exit end
         done
       with Exit -> ());
      failf "missing event %d (saw %d of %d)" !missing t.seen_events s.n_events
    end;
    let so1 = List.rev t.so1_list and sync_order = List.rev t.sync_order in
    let analysis =
      if t.pending_count = 0 then
        skeleton_analysis t (skeleton_trace t s ~so1 ~sync_order)
      else if t.retired > 0 || t.forced > 0 then
        failf
          "hb1 cycle encountered after %d events were retired; re-run without --stream"
          (t.retired + t.forced)
      else
        (* every id was counted before this path is taken, so a hole
           means the engine's own bookkeeping went wrong — still report
           it as a decode error, never abort the process *)
        let absent eid = failf "event %d has no payload during the cyclic fallback" eid in
        Postmortem.analyze ~so1:`Recorded (resident_trace t s ~absent ~so1 ~sync_order)
    in
    Ok (analysis, stats_of t)
  with Fail msg -> Error msg

(* -- degraded (salvaged) finish -------------------------------------- *)

(* Holes in each processor's surviving [seq] sequence.  Head and tail
   holes are already covered by the global missing-event count; interior
   holes localize the loss for the report. *)
let compute_gaps t (s : Codec.sizes) =
  let by = Array.make s.n_procs [] in
  for eid = s.n_events - 1 downto 0 do
    if t.ev_proc.(eid) >= 0 then
      by.(t.ev_proc.(eid)) <- t.ev_seq.(eid) :: by.(t.ev_proc.(eid))
  done;
  let gaps = ref [] in
  Array.iteri
    (fun p seqs ->
      let rec go = function
        | a :: (b :: _ as rest) ->
          if b > a + 1 then
            gaps :=
              { Postmortem.proc = p; after_seq = a; before_seq = b;
                missing = b - a - 1 }
              :: !gaps;
          go rest
        | _ -> ()
      in
      go (List.sort compare seqs))
    by;
  List.sort
    (fun (a : Postmortem.gap) b -> compare (a.proc, a.after_seq) (b.proc, b.after_seq))
    !gaps

(* End of salvaged input.  When nothing was actually lost this delegates
   to {!finish} — the report stays byte-identical to batch.  Otherwise it
   produces a [Degraded] verdict over the surviving events: so1 edges
   whose endpoint never arrived are dropped (an acquire must not wait
   forever for a lost release), lost event ids become isolated stand-in
   nodes with {e no} hb1 edges at all, listed in no by_proc row, so the
   hb1 index orders them with nothing (a chain index is a position in
   the surviving row, not a [seq]).  Removing events and
   edges from hb1 can only enlarge the set of unordered conflicting
   pairs, so the degraded report may over-report races among survivors
   but never under-reports them. *)
let finish_salvaged t ~decode_losses =
  try
    let s =
      match t.sizes with
      | Some s -> s
      | None ->
        if t.seen_any then { Codec.n_procs = 0; n_locs = 0; n_events = 0 }
        else failf "empty trace"
    in
    (* drop so1 edges with a lost endpoint before the final drain *)
    let dropped_so1 = ref 0 in
    let so1 =
      List.filter
        (fun (r, a) ->
          if t.ev_proc.(r) < 0 || t.ev_proc.(a) < 0 then begin
            incr dropped_so1;
            false
          end
          else true)
        (List.rev t.so1_list)
    in
    if !dropped_so1 > 0 then begin
      let acquires = Hashtbl.fold (fun a _ acc -> a :: acc) t.so1_in [] in
      List.iter
        (fun a ->
          let rels = rels_of t a in
          let kept = List.filter (fun r -> t.ev_proc.(r) >= 0) rels in
          if List.length kept <> List.length rels then
            Hashtbl.replace t.so1_in a kept)
        acquires
    end;
    t.so1_complete <- true;
    drain t;
    let missing_events = ref 0 in
    for eid = 0 to s.n_events - 1 do
      if t.ev_proc.(eid) < 0 then incr missing_events
    done;
    let loss =
      {
        Postmortem.decode_losses;
        missing_events = !missing_events;
        gaps = compute_gaps t s;
        dropped_records = t.dropped;
        dropped_so1 = !dropped_so1;
      }
    in
    if not (Postmortem.lossy loss) then
      (* nothing was lost: the strict finish applies unchanged, and the
         report is byte-identical to the batch pipeline's *)
      (match finish t with
       | Ok (a, st) -> Ok (Postmortem.verdict a, st)
       | Error _ as e -> e)
    else
      let sync_order =
        List.rev t.sync_order
        |> List.map (fun (l, es) -> (l, List.filter (fun e -> t.ev_proc.(e) >= 0) es))
      in
      let analysis =
        if t.pending_count = 0 then
          skeleton_analysis t (skeleton_trace t s ~so1 ~sync_order)
        else if t.retired > 0 || t.forced > 0 then
          failf
            "hb1 cycle among salvaged events after %d were retired; re-run without --stream"
            (t.retired + t.forced)
        else
          (* survivors form an hb1 cycle: as in {!finish}, the batch
             pipeline runs over survivors plus isolated stand-ins *)
          Postmortem.analyze ~so1:`Recorded
            (resident_trace t s ~absent:(stand_in t s) ~so1 ~sync_order)
      in
      Ok (Postmortem.Degraded { analysis; loss }, stats_of t)
  with Fail msg -> Error msg

(* -- checkpoint / restore -------------------------------------------- *)

(* A checkpoint is one header line — magic, format version, kind token,
   payload length, payload CRC-32 — followed by the marshalled
   (engine, extra) pair.  The Marshal payload is untyped, so the header
   carries everything needed to refuse a file we would otherwise
   misread: a version bump (the engine's or [extra]'s shape changed;
   version 3 added the per-processor retirement queues), a kind
   mismatch (an [analyze --checkpoint] file fed to [serve --resume],
   whose [extra] has a different type), truncation, or corruption all
   come back as structured [Error]s naming the file.  The write goes through
   a temporary file and a rename, so a kill mid-write leaves either the
   previous checkpoint or a complete new one. *)
let ckpt_magic = "weakrace-ckpt"
let ckpt_version = 3

let valid_kind k =
  k <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_')
       k

let checkpoint ?(kind = "stream") path t ~extra =
  if not (valid_kind kind) then
    invalid_arg "Stream.checkpoint: kind must be a lowercase token";
  let payload = Marshal.to_string (t, extra) [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s %d %s %d %08x\n" ckpt_magic ckpt_version kind
       (String.length payload)
       (Tracing.Crc32.string payload);
     output_string oc payload
   with exn -> close_out_noerr oc; raise exn);
  close_out oc;
  Sys.rename tmp path

let restore ?(kind = "stream") path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data ->
    (match String.index_opt data '\n' with
     | None -> Error (Printf.sprintf "%s: not a checkpoint file" path)
     | Some i ->
       let header = String.sub data 0 i in
       let payload = String.sub data (i + 1) (String.length data - i - 1) in
       (match String.split_on_char ' ' header with
        | [ "weakrace-ckpt"; v; k; len; crc ] when v = string_of_int ckpt_version ->
          if k <> kind then
            Error
              (Printf.sprintf "%s: checkpoint kind is %S, expected %S" path k kind)
          else
            (match int_of_string_opt len, int_of_string_opt ("0x" ^ crc) with
             | Some l, Some c ->
               if String.length payload < l then
                 Error
                   (Printf.sprintf "%s: checkpoint truncated (%d of %d payload bytes)"
                      path (String.length payload) l)
               else if String.length payload > l then
                 Error
                   (Printf.sprintf
                      "%s: checkpoint payload is %d bytes but the header announces %d"
                      path (String.length payload) l)
               else if Tracing.Crc32.string payload <> c then
                 Error (Printf.sprintf "%s: checkpoint checksum mismatch" path)
               else
                 (try Ok (Marshal.from_string payload 0)
                  with _ -> Error (Printf.sprintf "%s: corrupt checkpoint payload" path))
             | _ -> Error (Printf.sprintf "%s: not a checkpoint file" path))
        | "weakrace-ckpt" :: v :: _ when int_of_string_opt v <> None ->
          Error
            (Printf.sprintf
               "%s: unsupported checkpoint format version %s (this build writes %d)"
               path v ckpt_version)
        | _ -> Error (Printf.sprintf "%s: not a checkpoint file" path)))

(* -- checkpointed reader ---------------------------------------------- *)

(* The decoder in front of the engine.  A reader checkpoint marshals it
   as the [extra] (salvage flag, codec, byte offset), so its shape and
   constructor order are part of checkpoint format version 3. *)
type codec = Strict of Codec.decoder | Salvage of Codec.Salvage.t

module Reader = struct
  type nonrec t = {
    engine : t;
    salvage : bool;
    codec : codec;
    mutable offset : int;
  }

  let create ?max_live ~salvage () =
    {
      engine = create ?max_live ~tolerant:salvage ();
      salvage;
      codec =
        (if salvage then Salvage (Codec.Salvage.create ())
         else Strict (Codec.decoder ()));
      offset = 0;
    }

  let engine r = r.engine
  let offset r = r.offset
  let push_to r () record = push r.engine record

  let feed r chunk =
    let fed =
      match r.codec with
      | Strict d -> Codec.feed d chunk ~f:(push_to r) ()
      | Salvage s -> Codec.Salvage.feed s chunk ~f:(push_to r) ()
    in
    if Result.is_ok fed then r.offset <- r.offset + String.length chunk;
    fed

  let save r path = checkpoint path r.engine ~extra:(r.salvage, r.codec, r.offset)

  let resume ~salvage path =
    match (restore path : (_ * (bool * codec * int), string) result) with
    | Error _ as e -> e
    | Ok (_, (was_salvage, _, _)) when was_salvage <> salvage ->
      Error
        (Printf.sprintf "%s: checkpoint was taken %s --salvage" path
           (if was_salvage then "with" else "without"))
    | Ok (engine, (_, codec, offset)) -> Ok { engine; salvage; codec; offset }

  let close r =
    match r.codec with
    | Strict d ->
      Result.bind (Codec.finish_feed d ~f:(push_to r) ()) (fun () ->
          Result.map
            (fun (a, st) -> (Postmortem.verdict a, st))
            (finish r.engine))
    | Salvage s ->
      Result.bind (Codec.Salvage.finish_feed s ~f:(push_to r) ()) (fun () ->
          finish_salvaged r.engine ~decode_losses:(Codec.Salvage.losses s))
end

let analyze_fold fold ?max_live () =
  let t = create ?max_live () in
  match fold ~init:() ~f:(fun () r -> push t r) with
  | Error _ as e -> e
  | Ok () -> finish t

let analyze_file ?chunk_size ?max_live path =
  analyze_fold (fun ~init ~f -> Codec.fold_file ?chunk_size path ~init ~f) ?max_live ()

let analyze_string ?chunk_size ?max_live text =
  analyze_fold (fun ~init ~f -> Codec.fold_string ?chunk_size text ~init ~f) ?max_live ()

let analyze_salvage_string ?chunk_size ?max_live text =
  let t = create ?max_live ~tolerant:true () in
  let push () r = push t r in
  match Codec.fold_salvage_string ?chunk_size text ~init:() ~f:push with
  | Error _ as e -> e
  | Ok ((), losses) -> finish_salvaged t ~decode_losses:losses
