type t = {
  model : Memsim.Model.t;
  src : Memsim.Thread_intf.source;
  mem : Memsim.Op.value array;
  mem_writer : int array;
  caches : Cache.t array;
  inval_queues : (Memsim.Op.loc, unit) Hashtbl.t array;
  mutable ops_rev : Memsim.Op.t list;
  mutable n_ops : int;
  pindex : int array;
  rf : (int, int) Hashtbl.t;
  commit : (int, int) Hashtbl.t;
  mutable clock : int;
  mutable sched_rev : Memsim.Exec.decision list;
  mutable truncated : bool;
  mutable n_steps : int;
}

let create ?n_lines ?(warm = true) ~model (src : Memsim.Thread_intf.source) =
  if Memsim.Model.fifo_buffer model then
    invalid_arg
      "Cmachine.create: lazy invalidation cannot implement TSO (delayed \
       invalidations reorder reads, which TSO forbids)";
  let n_lines = match n_lines with Some n -> n | None -> max 1 src.n_locs in
  let mem = Array.make src.n_locs 0 in
  List.iter (fun (l, v) -> mem.(l) <- v) src.init;
  let caches = Array.init src.n_procs (fun _ -> Cache.create ~n_lines) in
  if warm then
    Array.iter (fun c -> Cache.warm c ~n_locs:src.n_locs ~init:src.init) caches;
  {
    model;
    src;
    mem;
    mem_writer = Array.make src.n_locs (-1);
    caches;
    inval_queues = Array.init src.n_procs (fun _ -> Hashtbl.create 8);
    ops_rev = [];
    n_ops = 0;
    pindex = Array.make src.n_procs 0;
    rf = Hashtbl.create 64;
    commit = Hashtbl.create 64;
    clock = 0;
    sched_rev = [];
    truncated = false;
    n_steps = 0;
  }

let record_op t ~proc ~loc ~kind ~cls ~value ~label =
  let id = t.n_ops in
  let o = { Memsim.Op.id; proc; pindex = t.pindex.(proc); loc; kind; cls; value; label } in
  t.pindex.(proc) <- t.pindex.(proc) + 1;
  t.ops_rev <- o :: t.ops_rev;
  t.n_ops <- t.n_ops + 1;
  o

let tick t =
  let c = t.clock in
  t.clock <- c + 1;
  c

(* -- invalidation queues -------------------------------------------- *)

let enqueue_inval t ~except loc =
  Array.iteri
    (fun p q ->
      if p <> except then
        match Cache.lookup t.caches.(p) loc with
        | Some _ ->
          if Memsim.Model.buffers_writes t.model (* weak: delay *) then
            Hashtbl.replace q loc ()
          else Cache.invalidate t.caches.(p) loc
        | None -> ())
    t.inval_queues

let apply_inval t p loc =
  Hashtbl.remove t.inval_queues.(p) loc;
  Cache.invalidate t.caches.(p) loc

let flush_invals t p =
  let locs = Hashtbl.fold (fun l () acc -> l :: acc) t.inval_queues.(p) [] in
  List.iter (apply_inval t p) locs

(* Which sync classes force the issuing processor's queue to flush:
   reader-side dual of [Model.drains_on].  SC and TSO-like models keep
   their queues empty (or are rejected); release/acquire-distinguishing
   ones flush on acquires only; the rest on every sync class. *)
let flushes_on model (cls : Memsim.Op.op_class) =
  Memsim.Op.is_sync cls
  && Memsim.Model.buffers_writes model
  && (not (Memsim.Model.fifo_buffer model))
  && ((not (Memsim.Model.distinguishes_release_acquire model))
     || cls = Memsim.Op.Acquire)

(* -- bus ------------------------------------------------------------- *)

(* Current global value of [loc]: the Modified owner's copy, else memory.
   A Modified owner is downgraded to Shared and written back. *)
let bus_read_global t loc =
  let owner = ref None in
  Array.iteri
    (fun p c ->
      match Cache.lookup c loc with
      | Some ({ Cache.state = Cache.Modified; _ } as line) -> owner := Some (p, line)
      | Some _ | None -> ())
    t.caches;
  match !owner with
  | Some (p, line) ->
    t.mem.(loc) <- line.Cache.value;
    t.mem_writer.(loc) <- line.Cache.writer;
    Cache.update t.caches.(p) loc ~value:line.Cache.value ~writer:line.Cache.writer
      ~state:Cache.Shared;
    (line.Cache.value, line.Cache.writer)
  | None -> (t.mem.(loc), t.mem_writer.(loc))

let write_back_victim t = function
  | Some { Cache.state = Cache.Modified; loc; value; writer } ->
    t.mem.(loc) <- value;
    t.mem_writer.(loc) <- writer
  | Some { Cache.state = Cache.Shared; _ } | None -> ()

(* -- issue ----------------------------------------------------------- *)

let do_issue t p =
  match t.src.peek p with
  | None -> invalid_arg "Cmachine.perform: issue on halted processor"
  | Some req ->
    let now = tick t in
    let cache = t.caches.(p) in
    let stats = Cache.stats cache in
    (match req with
     | Memsim.Thread_intf.Read { loc; cls; label; k } ->
       if flushes_on t.model cls then flush_invals t p;
       let value, writer =
         if Memsim.Op.is_sync cls then
           (* sync reads are bus-direct and never served from the cache *)
           bus_read_global t loc
         else begin
           match Cache.lookup cache loc with
           | Some line ->
             stats.Cache.hits <- stats.Cache.hits + 1;
             (line.Cache.value, line.Cache.writer)
           | None ->
             stats.Cache.misses <- stats.Cache.misses + 1;
             let value, writer = bus_read_global t loc in
             write_back_victim t
               (Cache.insert cache
                  { Cache.loc; state = Cache.Shared; value; writer });
             (value, writer)
         end
       in
       let o = record_op t ~proc:p ~loc ~kind:Memsim.Op.Read ~cls ~value ~label in
       Hashtbl.replace t.rf o.Memsim.Op.id writer;
       Hashtbl.replace t.commit o.Memsim.Op.id now;
       k value
     | Memsim.Thread_intf.Write { loc; value; cls; label; k } ->
       if flushes_on t.model cls then flush_invals t p;
       let o = record_op t ~proc:p ~loc ~kind:Memsim.Op.Write ~cls ~value ~label in
       if Memsim.Op.is_sync cls then begin
         (* bus-direct: make the global copy current, kill every cached
            copy (others lazily on weak models, own immediately) *)
         ignore (bus_read_global t loc);
         t.mem.(loc) <- value;
         t.mem_writer.(loc) <- o.Memsim.Op.id;
         enqueue_inval t ~except:p loc;
         Cache.invalidate cache loc;
         Hashtbl.remove t.inval_queues.(p) loc
       end
       else begin
         (* BusRdX / upgrade: take the line Modified *)
         (match Cache.lookup cache loc with
          | Some { Cache.state = Cache.Modified; _ } ->
            stats.Cache.hits <- stats.Cache.hits + 1
          | Some { Cache.state = Cache.Shared; _ } | None -> (
            stats.Cache.misses <- stats.Cache.misses + 1;
            (* pull the current copy home first so a Modified peer is not
               lost, then claim ownership *)
            ignore (bus_read_global t loc)));
         enqueue_inval t ~except:p loc;
         Hashtbl.remove t.inval_queues.(p) loc;
         (match Cache.lookup cache loc with
          | Some _ ->
            Cache.update cache loc ~value ~writer:o.Memsim.Op.id ~state:Cache.Modified
          | None ->
            write_back_victim t
              (Cache.insert cache
                 { Cache.loc; state = Cache.Modified; value; writer = o.Memsim.Op.id }))
       end;
       Hashtbl.replace t.commit o.Memsim.Op.id now;
       k ()
     | Memsim.Thread_intf.Rmw { loc; f; rcls; wcls; label; k } ->
       if flushes_on t.model rcls || flushes_on t.model wcls then flush_invals t p;
       let old, old_writer = bus_read_global t loc in
       let r = record_op t ~proc:p ~loc ~kind:Memsim.Op.Read ~cls:rcls ~value:old ~label in
       Hashtbl.replace t.rf r.Memsim.Op.id old_writer;
       Hashtbl.replace t.commit r.Memsim.Op.id now;
       let nv = f old in
       let w = record_op t ~proc:p ~loc ~kind:Memsim.Op.Write ~cls:wcls ~value:nv ~label in
       t.mem.(loc) <- nv;
       t.mem_writer.(loc) <- w.Memsim.Op.id;
       enqueue_inval t ~except:p loc;
       Cache.invalidate cache loc;
       Hashtbl.remove t.inval_queues.(p) loc;
       Hashtbl.replace t.commit w.Memsim.Op.id now;
       k old
     | Memsim.Thread_intf.Fence { k; label = _ } ->
       flush_invals t p;
       k ())

(* -- stepping --------------------------------------------------------- *)

let enabled t =
  let issues = ref [] in
  for p = t.src.n_procs - 1 downto 0 do
    match t.src.peek p with
    | Some _ -> issues := Memsim.Exec.Issue p :: !issues
    | None -> ()
  done;
  let invals = ref [] in
  for p = t.src.n_procs - 1 downto 0 do
    Hashtbl.iter
      (fun loc () -> invals := Memsim.Exec.Retire (p, loc) :: !invals)
      t.inval_queues.(p)
  done;
  !issues @ List.sort compare !invals

let perform t d =
  (match d with
   | Memsim.Exec.Issue p -> do_issue t p
   | Memsim.Exec.Retire (p, loc) ->
     if not (Hashtbl.mem t.inval_queues.(p) loc) then
       invalid_arg "Cmachine.perform: no such pending invalidation";
     ignore (tick t);
     apply_inval t p loc);
  t.sched_rev <- d :: t.sched_rev;
  t.n_steps <- t.n_steps + 1

let finished t = enabled t = []

let pending_invalidations t =
  Array.fold_left (fun acc q -> acc + Hashtbl.length q) 0 t.inval_queues

let cache_stats t = Array.map Cache.stats t.caches

let to_execution t =
  let ops = Array.of_list (List.rev t.ops_rev) in
  let by_proc = Array.make t.src.n_procs [] in
  Array.iter
    (fun (o : Memsim.Op.t) -> by_proc.(o.Memsim.Op.proc) <- o :: by_proc.(o.Memsim.Op.proc))
    ops;
  let by_proc = Array.map (fun l -> Array.of_list (List.rev l)) by_proc in
  let rf = Array.make (Array.length ops) (-2) in
  let commit = Array.make (Array.length ops) max_int in
  Array.iter
    (fun (o : Memsim.Op.t) ->
      (match Hashtbl.find_opt t.rf o.Memsim.Op.id with
       | Some w -> rf.(o.Memsim.Op.id) <- w
       | None -> ());
      match Hashtbl.find_opt t.commit o.Memsim.Op.id with
      | Some c -> commit.(o.Memsim.Op.id) <- c
      | None -> ())
    ops;
  (* fold Modified lines into the memory image *)
  let final_mem = Array.copy t.mem in
  Array.iter
    (fun c ->
      Cache.iter_lines c (fun line ->
          if line.Cache.state = Cache.Modified then
            final_mem.(line.Cache.loc) <- line.Cache.value))
    t.caches;
  {
    Memsim.Exec.model = t.model;
    n_procs = t.src.n_procs;
    n_locs = t.src.n_locs;
    ops;
    by_proc;
    rf;
    commit;
    final_mem;
    truncated = t.truncated;
    schedule = List.rev t.sched_rev;
  }

let run ?(max_steps = 20_000) ?n_lines ?warm ~model ~sched src =
  let t = create ?n_lines ?warm ~model src in
  let rec loop () =
    if t.n_steps >= max_steps then t.truncated <- true
    else
      match enabled t with
      | [] -> ()
      | decisions ->
        perform t (Memsim.Sched.choose sched decisions);
        loop ()
  in
  loop ();
  to_execution t

let run_program ?max_steps ?n_lines ?warm ~model ~sched p =
  run ?max_steps ?n_lines ?warm ~model ~sched (Minilang.Interp.source p)
