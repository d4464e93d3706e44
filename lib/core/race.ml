type t = {
  a : int;
  b : int;
  locs : Memsim.Op.loc list;
  is_data : bool;
}

(* ------------------------------------------------------------------ *)
(* Epoch-compressed engine (FastTrack adapted to events).

   Events are processed in [Hb.order]: hb1's strongly connected
   components in topological order, every member carrying its
   component's clock (DESIGN.md §7 argues why those clocks are exact
   here).  Per location the engine keeps:

   - [wr_ep]: the epoch of the last write.  While the location is
     "clean", all prior writes form an hb1 chain ending at that event,
     and every read older than the current read window is hb-before
     some event of that chain.
   - the read window — every read since the last write — as either a
     single epoch [rd_ep] (the window reads form an hb chain) or,
     after two concurrent reads, a promoted per-processor tick vector
     in the flat [rd_shared] table.

   A write checks [wr_ep] and the read window; a read checks [wr_ep];
   both in O(1) (O(P) once read-shared).  A passed check proves the
   event ordered after EVERY prior access of the location, by hb
   transitivity through the chains — clean locations never enumerate
   prior accesses at all.  The first failed check proves a race exists
   on the location but not with whom, so the location turns
   sticky-[dirty]: from then on events scan its exact per-location
   access tables (pre-sized int arrays) with one clock comparison per
   entry, so the race list is exactly the per-location pair scan's.    *)
(* ------------------------------------------------------------------ *)

let find_all hb =
  let trace = Hb.trace hb in
  let clocks = Hb.clocks hb and order = Hb.order hb in
  let events = trace.Tracing.Trace.events in
  let n = Array.length events in
  let n_locs = trace.Tracing.Trace.n_locs in
  let n_procs = trace.Tracing.Trace.n_procs in
  if n = 0 || n_locs = 0 then []
  else begin
    (* pre-sized access tables: one counting pass, then a single flat
       arena per table with prefix-sum slice offsets — location l's
       writers live in wbuf.[woff l, wfill l), so setup allocates O(1)
       arrays of total size O(accesses + n_locs) instead of a sub-array
       per location (which dominates on wide, short traces) *)
    let woff = Array.make n_locs 0 in
    let toff = Array.make n_locs 0 in
    (* sync events carry a single (kind, loc) op: count and process them
       directly rather than through the allocating bitset views *)
    Array.iter
      (fun (ev : Tracing.Event.t) ->
        match ev.Tracing.Event.body with
        | Tracing.Event.Sync { op; _ } ->
          let l = op.Memsim.Op.loc in
          if op.Memsim.Op.kind = Memsim.Op.Write then woff.(l) <- woff.(l) + 1;
          toff.(l) <- toff.(l) + 1
        | Tracing.Event.Computation { reads; writes; _ } ->
          Graphlib.Bitset.iter
            (fun l -> woff.(l) <- woff.(l) + 1; toff.(l) <- toff.(l) + 1)
            writes;
          Graphlib.Bitset.iter (fun l -> toff.(l) <- toff.(l) + 1) reads)
      events;
    let wtotal = ref 0 and ttotal = ref 0 in
    for l = 0 to n_locs - 1 do
      let c = woff.(l) in
      woff.(l) <- !wtotal;
      wtotal := !wtotal + c;
      let c = toff.(l) in
      toff.(l) <- !ttotal;
      ttotal := !ttotal + c
    done;
    let wbuf = Array.make (max 1 !wtotal) 0 in
    let tbuf = Array.make (max 1 !ttotal) 0 in
    (* fill cursors double as slice ends: the live entries for l are
       wbuf.[woff l, wfill l) *)
    let wfill = Array.copy woff in
    let tfill = Array.copy toff in
    (* per-location epoch state *)
    let wr_ep = Array.make n_locs Epoch.none in
    let rd_ep = Array.make n_locs Epoch.none in
    (* the promoted-window table is n_locs*n_procs wide but only needed
       once two reads of one location run concurrently — allocate it on
       the first promotion so traces whose read windows stay chains
       (most of them) never pay for it *)
    let rd_shared = ref [||] in
    let rd_shared_table () =
      if Array.length !rd_shared = 0 then
        rd_shared := Array.make (n_locs * n_procs) 0;
      !rd_shared
    in
    let rd_is_shared = Bytes.make n_locs '\000' in
    let dirty = Bytes.make n_locs '\000' in
    (* per-event dedupe for the scan path: a pair is examined only while
       processing its topologically later endpoint, so a stamp valid for
       the current event suffices — no global hashtable *)
    let considered = Array.make n (-1) in
    (* flat copy of each event's processor, so the scan inner loop never
       chases the event record *)
    let proc_of =
      Array.map (fun (ev : Tracing.Event.t) -> ev.Tracing.Event.proc) events
    in
    let races = ref [] in
    let record u o =
      let a = min u o and b = max u o in
      let ea = events.(a) and eb = events.(b) in
      races :=
        {
          a;
          b;
          locs = Tracing.Event.conflict_locs ea eb ~n_locs;
          is_data = Tracing.Event.involves_data ea || Tracing.Event.involves_data eb;
        }
        :: !races
    in
    let scan u c p buf lo hi =
      for i = lo to hi - 1 do
        let o = buf.(i) in
        if considered.(o) <> u then begin
          considered.(o) <- u;
          let po = proc_of.(o) in
          if po <> p && Vclock.get c po < Vclock.get clocks.(o) po then record u o
        end
      done
    in
    let read_window_covered l c =
      if Bytes.get rd_is_shared l <> '\000' then begin
        let t = !rd_shared in
        let base = l * n_procs in
        let ok = ref true in
        for q = 0 to n_procs - 1 do
          if t.(base + q) > Vclock.get c q then ok := false
        done;
        !ok
      end
      else Epoch.leq rd_ep.(l) c
    in
    let check_write u c p l =
      if Bytes.get dirty l <> '\000' then scan u c p tbuf toff.(l) tfill.(l)
      else if not (Epoch.leq wr_ep.(l) c && read_window_covered l c) then begin
        Bytes.set dirty l '\001';
        scan u c p tbuf toff.(l) tfill.(l)
      end
    in
    let check_read u c p l =
      if Bytes.get dirty l <> '\000' then scan u c p wbuf woff.(l) wfill.(l)
      else if not (Epoch.leq wr_ep.(l) c) then begin
        Bytes.set dirty l '\001';
        scan u c p wbuf woff.(l) wfill.(l)
      end
    in
    let update_write u c p l =
      wbuf.(wfill.(l)) <- u;
      wfill.(l) <- wfill.(l) + 1;
      tbuf.(tfill.(l)) <- u;
      tfill.(l) <- tfill.(l) + 1;
      if Bytes.get dirty l = '\000' then begin
        (* the write passed its checks, so it is ordered after the
           whole read window: the window resets behind it *)
        wr_ep.(l) <- Epoch.of_clock c p;
        rd_ep.(l) <- Epoch.none;
        Bytes.set rd_is_shared l '\000'
      end
    in
    let update_read u c p l =
      tbuf.(tfill.(l)) <- u;
      tfill.(l) <- tfill.(l) + 1;
      if Bytes.get dirty l = '\000' then begin
        if Bytes.get rd_is_shared l <> '\000' then
          (!rd_shared).((l * n_procs) + p) <- Vclock.get c p
        else if Epoch.leq rd_ep.(l) c then
          (* the window reads still form an hb chain; this read becomes
             its new head *)
          rd_ep.(l) <- Epoch.of_clock c p
        else begin
          (* two concurrent reads (benign — reads never race with
             reads): promote the window to a tick vector *)
          let t = rd_shared_table () in
          let base = l * n_procs in
          for q = 0 to n_procs - 1 do
            t.(base + q) <- 0
          done;
          t.(base + Epoch.proc rd_ep.(l)) <- Epoch.tick rd_ep.(l);
          t.(base + p) <- Vclock.get c p;
          Bytes.set rd_is_shared l '\001'
        end
      end
    in
    for i = 0 to n - 1 do
      let u = order.(i) in
      let ev = events.(u) in
      let p = ev.Tracing.Event.proc in
      let c = clocks.(u) in
      match ev.Tracing.Event.body with
      | Tracing.Event.Sync { op; _ } ->
        (* single-location fast path — no bitset views, no iteration *)
        let l = op.Memsim.Op.loc in
        if op.Memsim.Op.kind = Memsim.Op.Write then begin
          check_write u c p l;
          update_write u c p l
        end
        else begin
          check_read u c p l;
          update_read u c p l
        end
      | Tracing.Event.Computation { reads = r; writes = w; _ } ->
        (* checks before updates, so the event never sees itself *)
        Graphlib.Bitset.iter (fun l -> check_write u c p l) w;
        Graphlib.Bitset.iter
          (fun l -> if not (Graphlib.Bitset.mem w l) then check_read u c p l)
          r;
        Graphlib.Bitset.iter (fun l -> update_write u c p l) w;
        Graphlib.Bitset.iter
          (fun l -> if not (Graphlib.Bitset.mem w l) then update_read u c p l)
          r
    done;
    List.sort
      (fun r1 r2 ->
        let c = compare r1.a r2.a in
        if c <> 0 then c else compare r1.b r2.b)
      !races
  end

let data_races = List.filter (fun r -> r.is_data)

let equal r1 r2 = r1.a = r2.a && r1.b = r2.b

let pp ppf r =
  Format.fprintf ppf "<E%d,E%d>%s@@{%a}" r.a r.b
    (if r.is_data then "" else "[sync]")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    r.locs
