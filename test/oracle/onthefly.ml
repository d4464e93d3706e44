open Racedetect

type report = { prev_op : int; cur_op : int; loc : Memsim.Op.loc }

(* Per-location access state lives in flat unboxed arrays: the epoch of
   the last write and of the last read per processor (packed (proc,
   stamp) ints, Epoch.none when absent), with the op id and data-ness of
   each access alongside.  The old [access option] records allocated on
   every access; the epoch tables never allocate after [create]. *)
type t = {
  clocks : Vclock.t array;
  wr_ep : Epoch.t array;          (* per loc: epoch of last write *)
  wr_op : int array;              (* ... its op id *)
  wr_data : Bytes.t;              (* ... whether it was a data access *)
  rd_ep : Epoch.t array;          (* per loc*proc: epoch of last read *)
  rd_op : int array;
  rd_data : Bytes.t;
  rel_clock : Vclock.t array;     (* per loc: clock of the last release *)
  rel_valid : Bytes.t;            (* ... whether its value is still live *)
  rel_value : int array;          (* ... the value it wrote *)
  n_procs : int;
  seen : (int * int, unit) Hashtbl.t;
  mutable reports_rev : report list;
}

let create ~n_procs ~n_locs =
  {
    (* each processor's own component starts at 1 so that every stamp is
       positive and fresh accesses are never spuriously "covered" *)
    clocks = Array.init n_procs (fun p -> Vclock.tick (Vclock.make n_procs) p);
    wr_ep = Array.make n_locs Epoch.none;
    wr_op = Array.make n_locs (-1);
    wr_data = Bytes.make n_locs '\000';
    rd_ep = Array.make (n_locs * n_procs) Epoch.none;
    rd_op = Array.make (n_locs * n_procs) (-1);
    rd_data = Bytes.make (n_locs * n_procs) '\000';
    rel_clock = Array.init n_locs (fun _ -> Vclock.make n_procs);
    rel_valid = Bytes.make n_locs '\000';
    rel_value = Array.make n_locs 0;
    n_procs;
    seen = Hashtbl.create 16;
    reports_rev = [];
  }

let observe t (o : Memsim.Op.t) =
  let fresh = ref [] in
  let report prev_op cur loc =
    let key = (min prev_op cur, max prev_op cur) in
    if not (Hashtbl.mem t.seen key) then begin
      Hashtbl.add t.seen key ();
      let r = { prev_op; cur_op = cur; loc } in
      t.reports_rev <- r :: t.reports_rev;
      fresh := r :: !fresh
    end
  in
  let p = o.Memsim.Op.proc in
  let l = o.Memsim.Op.loc in
  let data = Memsim.Op.is_data o.Memsim.Op.cls in
  let c = t.clocks.(p) in
  (* an access is unordered iff its epoch has not reached this
     processor's clock — the O(1) epoch check *)
  let write_races () =
    let w = t.wr_ep.(l) in
    (not (Epoch.is_none w))
    && Epoch.proc w <> p
    && (not (Epoch.leq w c))
    && (Bytes.get t.wr_data l <> '\000' || data)
  in
  (match o.Memsim.Op.kind with
   | Memsim.Op.Read ->
     (* pairing first: an acquire that returned the last release's value
        becomes ordered after it before any race check runs *)
     if
       o.Memsim.Op.cls = Memsim.Op.Acquire
       && Bytes.get t.rel_valid l <> '\000'
       && t.rel_value.(l) = o.Memsim.Op.value
     then Vclock.join_into c t.rel_clock.(l);
     if write_races () then report t.wr_op.(l) o.Memsim.Op.id l;
     let i = (l * t.n_procs) + p in
     t.rd_ep.(i) <- Epoch.make ~proc:p ~tick:(Vclock.get c p);
     t.rd_op.(i) <- o.Memsim.Op.id;
     Bytes.set t.rd_data i (if data then '\001' else '\000')
   | Memsim.Op.Write ->
     if write_races () then report t.wr_op.(l) o.Memsim.Op.id l;
     let base = l * t.n_procs in
     for q = 0 to t.n_procs - 1 do
       let r = t.rd_ep.(base + q) in
       if
         (not (Epoch.is_none r))
         && q <> p
         && (not (Epoch.leq r c))
         && (Bytes.get t.rd_data (base + q) <> '\000' || data)
       then report t.rd_op.(base + q) o.Memsim.Op.id l
     done;
     t.wr_ep.(l) <- Epoch.make ~proc:p ~tick:(Vclock.get c p);
     t.wr_op.(l) <- o.Memsim.Op.id;
     Bytes.set t.wr_data l (if data then '\001' else '\000');
     (match o.Memsim.Op.cls with
      | Memsim.Op.Release ->
        (* publish a snapshot of the clock including this write, then
           advance in place so the processor's subsequent accesses are
           not covered by it — the snapshot reuses the location's scratch
           buffer; joins, ticks, and snapshots no longer allocate *)
        Vclock.blit c t.rel_clock.(l);
        Bytes.set t.rel_valid l '\001';
        t.rel_value.(l) <- o.Memsim.Op.value;
        Vclock.tick_into c p
      | Memsim.Op.Data | Memsim.Op.Plain_sync | Memsim.Op.Acquire ->
        (* any other write destroys the pairing window (an acquire that
           reads it is not synchronizing with the old release) *)
        Bytes.set t.rel_valid l '\000'));
  List.rev !fresh

let reports t = List.rev t.reports_rev

let detect (e : Memsim.Exec.t) =
  let t = create ~n_procs:e.Memsim.Exec.n_procs ~n_locs:e.Memsim.Exec.n_locs in
  Array.iter (fun o -> ignore (observe t o)) e.Memsim.Exec.ops;
  reports t

let race_pairs reports =
  List.map (fun r -> (min r.prev_op r.cur_op, max r.prev_op r.cur_op)) reports
  |> List.sort_uniq compare
