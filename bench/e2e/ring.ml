(* The ring-long input: a synthetic token ring written as a trace.

   Simulated programs cannot reach this size: a spin-lock program's
   trace carries O(n²) sync-sync races (4 processors × 20 lock rounds
   already give 2.0k events and 2.0×10⁵ races), so the trace is built
   directly.  Processor p acquires the token from link p-1, runs one
   computation event over a few random data locations, and releases the
   token on link p.  Every event of the ring is therefore hb1-ordered
   with every other, and a streaming analyzer can retire an event about
   one round (≈3P events) after it was issued.  After the last round
   two distinct processors each write one location no other event
   touches: that unsynchronized pair is the trace's only race. *)

let n_procs = 32
let n_locs = 256  (* locations 0..31 are the ring links, the rest data *)

let sync_op ~eid ~proc ~seq ~loc ~kind ~cls ~value =
  { Memsim.Op.id = eid; proc; pindex = seq; loc; kind; cls; value; label = None }

(* [rounds] full rounds give 3·P·rounds - 1 + 2 events. *)
let generate ~seed ~rounds =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let planted = n_procs + Random.State.int rng (n_locs - n_procs) in
  let rec data_loc () =
    let l = n_procs + Random.State.int rng (n_locs - n_procs) in
    if l = planted then data_loc () else l
  in
  let set k =
    let s = Graphlib.Bitset.create n_locs in
    for _ = 1 to k do Graphlib.Bitset.add s (data_loc ()) done;
    s
  in
  let events = ref [] and n = ref 0 in
  let seq = Array.make n_procs 0 in
  let slots = Array.make n_procs 0 in
  let order = Array.make n_procs [] in
  let so1 = ref [] in
  let last_release = Array.make n_procs (-1) in
  let emit proc body =
    let eid = !n in
    events := { Tracing.Event.eid; proc; seq = seq.(proc); body } :: !events;
    incr n;
    seq.(proc) <- seq.(proc) + 1;
    eid
  in
  let sync proc loc kind cls value =
    let eid = !n in
    let op = sync_op ~eid ~proc ~seq:seq.(proc) ~loc ~kind ~cls ~value in
    let slot = slots.(loc) in
    slots.(loc) <- slot + 1;
    order.(loc) <- eid :: order.(loc);
    ignore (emit proc (Tracing.Event.Sync { op; slot }))
  in
  let comp proc reads writes =
    ignore (emit proc (Tracing.Event.Computation { reads; writes; ops = [] }))
  in
  for round = 0 to rounds - 1 do
    for p = 0 to n_procs - 1 do
      if not (p = 0 && round = 0) then begin
        let link = (p + n_procs - 1) mod n_procs in
        let rel = last_release.(link) in
        let value = if p = 0 then round else round + 1 in
        so1 := (rel, !n) :: !so1;
        sync p link Memsim.Op.Read Memsim.Op.Acquire value
      end;
      comp p (set (1 + Random.State.int rng 4)) (set (1 + Random.State.int rng 3));
      last_release.(p) <- !n;
      sync p p Memsim.Op.Write Memsim.Op.Release (round + 1)
    done
  done;
  let a = Random.State.int rng n_procs in
  let b = (a + 1 + Random.State.int rng (n_procs - 1)) mod n_procs in
  List.iter
    (fun p -> comp p (Graphlib.Bitset.create n_locs) (Graphlib.Bitset.of_list n_locs [ planted ]))
    [ a; b ];
  let events = Array.of_list (List.rev !events) in
  let by_proc = Array.make n_procs [] in
  Array.iter (fun (e : Tracing.Event.t) -> by_proc.(e.proc) <- e :: by_proc.(e.proc)) events;
  {
    Tracing.Trace.n_procs;
    n_locs;
    model = "WO";
    truncated = false;
    events;
    by_proc = Array.map (fun l -> Array.of_list (List.rev l)) by_proc;
    so1 = List.rev !so1;
    sync_order = List.init n_procs (fun l -> (l, List.rev order.(l)));
  }
