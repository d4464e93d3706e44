type buffered = { op_id : int; loc : Op.loc; value : Op.value }

type t = {
  model : Model.t;
  variant : Variant.t;              (* the model's lattice point: all rules read it *)
  src : Thread_intf.source;
  mem : Op.value array;
  mem_writer : int array;           (* op id of last write to each loc; -1 initial *)
  buffers : buffered list array ref; (* oldest first, per proc *)
  mutable ops_rev : Op.t list;
  mutable n_ops : int;
  pindex : int array;
  rf : (int, int) Hashtbl.t;
  commit : (int, int) Hashtbl.t;
  mutable clock : int;
  mutable sched_rev : Exec.decision list;
  mutable truncated : bool;
  mutable n_steps : int;
  mutable st_retires : int;
  mutable st_max_buffer : int;
  mutable st_buffered : int;
  mutable st_delay : int;
  issue_time : (int, int) Hashtbl.t;  (* buffered write op id -> issue clock *)
  on_op : (Op.t -> unit) option;
}

type stats = {
  retires : int;
  max_buffer : int;
  buffered_writes : int;
  delay_total : int;
}

let create ?on_op ~model (src : Thread_intf.source) =
  let mem = Array.make src.n_locs 0 in
  List.iter (fun (l, v) -> mem.(l) <- v) src.init;
  {
    model;
    variant = Model.variant model;
    src;
    mem;
    mem_writer = Array.make src.n_locs (-1);
    buffers = ref (Array.make src.n_procs []);
    ops_rev = [];
    n_ops = 0;
    pindex = Array.make src.n_procs 0;
    rf = Hashtbl.create 64;
    commit = Hashtbl.create 64;
    clock = 0;
    sched_rev = [];
    truncated = false;
    n_steps = 0;
    st_retires = 0;
    st_max_buffer = 0;
    st_buffered = 0;
    st_delay = 0;
    issue_time = Hashtbl.create 32;
    on_op;
  }

let buffer t p = !(t.buffers).(p)
let set_buffer t p b = !(t.buffers).(p) <- b

let buffer_empty t p = buffer t p = []

let has_pending_write_to t p loc = List.exists (fun e -> e.loc = loc) (buffer t p)

(* The newest pending write of [p] to [loc], for read forwarding. *)
let forwardable t p loc =
  List.fold_left
    (fun acc e -> if e.loc = loc then Some e else acc)
    None (buffer t p)

let record_op t ~proc ~loc ~kind ~cls ~value ~label =
  let id = t.n_ops in
  let o =
    { Op.id; proc; pindex = t.pindex.(proc); loc; kind; cls; value; label }
  in
  t.pindex.(proc) <- t.pindex.(proc) + 1;
  t.ops_rev <- o :: t.ops_rev;
  t.n_ops <- t.n_ops + 1;
  (match t.on_op with Some f -> f o | None -> ());
  o

(* -- issue rules ---------------------------------------------------------

   Every model, named or custom, is a point of the {!Variant} lattice;
   these rules read only its knobs. *)

(* Whether a data write of class [cls] goes into the store buffer rather
   than straight to memory. *)
let buffered t (cls : Op.op_class) = Variant.has_buffer t.variant && cls = Op.Data

(* [Drain] waits for an empty buffer; [Partial] only for pending writes
   to the operation's own location (fences name no location, so every
   pending write is theirs: Partial = Drain). *)
let drain_ok t p (d : Variant.drain) ~loc =
  match d with
  | Variant.Drain -> buffer_empty t p
  | Variant.Nop -> true
  | Variant.Partial -> (
    match loc with
    | Some l -> not (has_pending_write_to t p l)
    | None -> buffer_empty t p)

let may_issue t p (req : Thread_intf.request) =
  let v = t.variant in
  let drained cls ~loc =
    match (cls : Op.op_class) with
    | Op.Data -> true
    | _ -> drain_ok t p (Variant.drain_on v cls) ~loc
  in
  match req with
  | Thread_intf.Read { cls; loc; _ } ->
    drained cls ~loc:(Some loc)
    && (match v.Variant.read with
       | Variant.Stall -> not (has_pending_write_to t p loc)
       | Variant.Forward | Variant.Bypass -> true)
  | Thread_intf.Write { cls; loc; _ } ->
    drained cls ~loc:(Some loc)
    &&
    if buffered t cls then
      match v.Variant.depth with
      | Variant.Unbounded -> true
      | Variant.Bounded n -> List.length (buffer t p) < n
    else not (has_pending_write_to t p loc)
  | Thread_intf.Rmw { rcls; wcls; loc; _ } ->
    drained rcls ~loc:(Some loc)
    && drained wcls ~loc:(Some loc)
    && not (has_pending_write_to t p loc)
  | Thread_intf.Fence _ -> drain_ok t p v.Variant.on_fence ~loc:None

let enabled t =
  let issues = ref [] in
  for p = t.src.n_procs - 1 downto 0 do
    match t.src.peek p with
    | None -> ()
    | Some req -> if may_issue t p req then issues := Exec.Issue p :: !issues
  done;
  let retires = ref [] in
  for p = t.src.n_procs - 1 downto 0 do
    if t.variant.Variant.retire = Variant.Fifo then (
      (* only the oldest buffered write may retire *)
      match buffer t p with
      | e :: _ -> retires := Exec.Retire (p, e.loc) :: !retires
      | [] -> ())
    else begin
      let seen = Hashtbl.create 4 in
      List.iter
        (fun e ->
          if not (Hashtbl.mem seen e.loc) then begin
            Hashtbl.add seen e.loc ();
            retires := Exec.Retire (p, e.loc) :: !retires
          end)
        (buffer t p)
    end
  done;
  !issues @ List.rev !retires

(* Whether a read issued now would return a buffered value rather than
   consult memory.  Stall and Bypass variants always read memory (Stall
   is only enabled once no same-location write is pending; Bypass reads
   memory even when one is — that is its defect). *)
let reads_forward t p loc =
  t.variant.Variant.read = Variant.Forward && forwardable t p loc <> None

let footprint t d =
  match d with
  | Exec.Retire (_, loc) -> [ (loc, Op.Write) ]
  | Exec.Issue p -> (
    match t.src.peek p with
    | None -> []
    | Some (Thread_intf.Read { loc; _ }) ->
      (* a forwarded read returns the processor's own buffered value and
         never consults memory, so it commutes with everything remote *)
      if reads_forward t p loc then [] else [ (loc, Op.Read) ]
    | Some (Thread_intf.Write { loc; cls; _ }) ->
      if buffered t cls then [] else [ (loc, Op.Write) ]
    | Some (Thread_intf.Rmw { loc; _ }) -> [ (loc, Op.Read); (loc, Op.Write) ]
    | Some (Thread_intf.Fence _) -> [])

type buffer_footprint =
  | BNone
  | BReads of Op.loc
  | BAppends of Op.loc
  | BWrites of Op.loc
  | BAll

(* The knobs widen the same-processor dependences the explorer must
   see beyond forwarding and appends:
   - a [Stall] read's enabledness flips when a same-location write
     retires, and a [Partial] drain waits on exactly those retires, so
     both are [BReads loc] even though neither touches the buffer's
     contents ([BReads l] conflicts with [BWrites l]);
   - a draining read, an unbuffered write, a read-modify-write and a
     draining fence are enabled only over an empty buffer: [BAll];
   - a data write into a [Bounded] buffer is enabled only while a slot
     is free, so a retire of {e any} location can enable it: [BAll]
     (which conflicts with every [BWrites]);
   - a [Bypass] read and a [fence=nop] fence ignore the buffer
     entirely: [BNone]. *)
let issue_buffer_footprint t p (req : Thread_intf.request) =
  let v = t.variant in
  let drain_dep cls ~loc =
    match (cls : Op.op_class) with
    | Op.Data -> BNone
    | _ -> (
      match Variant.drain_on v cls with
      | Variant.Drain -> BAll
      | Variant.Partial -> (
        match loc with Some l -> BReads l | None -> BAll)
      | Variant.Nop -> BNone)
  in
  match req with
  | Thread_intf.Read { cls; loc; _ } -> (
    match drain_dep cls ~loc:(Some loc) with
    | BNone -> (
      match v.Variant.read with
      | Variant.Forward -> if forwardable t p loc <> None then BReads loc else BNone
      | Variant.Stall -> BReads loc
      | Variant.Bypass -> BNone)
    | dep -> dep)
  | Thread_intf.Write { cls; loc; _ } ->
    if buffered t cls then (
      match v.Variant.depth with
      | Variant.Unbounded -> BAppends loc
      | Variant.Bounded _ -> BAll)
    else BAll
  | Thread_intf.Rmw _ -> BAll
  | Thread_intf.Fence _ ->
    if Variant.has_buffer v && v.Variant.on_fence = Variant.Nop then BNone
    else BAll

let buffer_footprint t d =
  match d with
  | Exec.Retire (_, loc) -> BWrites loc
  | Exec.Issue p -> (
    match t.src.peek p with
    | None -> BNone
    | Some req -> issue_buffer_footprint t p req)

let finished t = enabled t = []

let steps t = t.n_steps

let memory t = Array.copy t.mem

let write_memory t ~op_id ~loc ~value =
  t.mem.(loc) <- value;
  t.mem_writer.(loc) <- op_id

let tick t =
  let c = t.clock in
  t.clock <- c + 1;
  c

let do_issue t p =
  match t.src.peek p with
  | None -> invalid_arg "Machine.perform: issue on halted processor"
  | Some req ->
    if not (may_issue t p req) then
      invalid_arg "Machine.perform: issue not enabled";
    let now = tick t in
    (match req with
     | Thread_intf.Read { loc; cls; label; k } ->
       let value, writer =
         if reads_forward t p loc then
           match forwardable t p loc with
           | Some e -> (e.value, e.op_id)
           | None -> assert false
         else (t.mem.(loc), t.mem_writer.(loc))
       in
       let o = record_op t ~proc:p ~loc ~kind:Op.Read ~cls ~value ~label in
       Hashtbl.replace t.rf o.Op.id writer;
       Hashtbl.replace t.commit o.Op.id now;
       k value
     | Thread_intf.Write { loc; value; cls; label; k } ->
       let o = record_op t ~proc:p ~loc ~kind:Op.Write ~cls ~value ~label in
       if buffered t cls then begin
         set_buffer t p (buffer t p @ [ { op_id = o.Op.id; loc; value } ]);
         t.st_buffered <- t.st_buffered + 1;
         t.st_max_buffer <- max t.st_max_buffer (List.length (buffer t p));
         Hashtbl.replace t.issue_time o.Op.id now
       end
       else begin
         write_memory t ~op_id:o.Op.id ~loc ~value;
         Hashtbl.replace t.commit o.Op.id now
       end;
       k ()
     | Thread_intf.Rmw { loc; f; rcls; wcls; label; k } ->
       let old = t.mem.(loc) in
       let r = record_op t ~proc:p ~loc ~kind:Op.Read ~cls:rcls ~value:old ~label in
       Hashtbl.replace t.rf r.Op.id t.mem_writer.(loc);
       Hashtbl.replace t.commit r.Op.id now;
       let nv = f old in
       let w = record_op t ~proc:p ~loc ~kind:Op.Write ~cls:wcls ~value:nv ~label in
       write_memory t ~op_id:w.Op.id ~loc ~value:nv;
       Hashtbl.replace t.commit w.Op.id now;
       k old
     | Thread_intf.Fence { k; label = _ } -> k ())

let do_retire t p loc =
  let rec split acc = function
    | [] -> invalid_arg "Machine.perform: nothing to retire for that location"
    | e :: rest when e.loc = loc -> (e, List.rev_append acc rest)
    | e :: rest -> split (e :: acc) rest
  in
  let e, rest = split [] (buffer t p) in
  set_buffer t p rest;
  let now = tick t in
  write_memory t ~op_id:e.op_id ~loc:e.loc ~value:e.value;
  Hashtbl.replace t.commit e.op_id now;
  t.st_retires <- t.st_retires + 1;
  (match Hashtbl.find_opt t.issue_time e.op_id with
   | Some issued -> t.st_delay <- t.st_delay + (now - issued)
   | None -> ())

let perform t d =
  (match d with
   | Exec.Issue p -> do_issue t p
   | Exec.Retire (p, loc) -> do_retire t p loc);
  t.sched_rev <- d :: t.sched_rev;
  t.n_steps <- t.n_steps + 1

let force_drain t =
  for p = 0 to t.src.n_procs - 1 do
    while buffer t p <> [] do
      match buffer t p with
      | [] -> ()
      | e :: _ -> perform t (Exec.Retire (p, e.loc))
    done
  done

let set_truncated t = t.truncated <- true

let to_execution t =
  let ops = Array.of_list (List.rev t.ops_rev) in
  let by_proc = Array.make t.src.n_procs [] in
  Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc)) ops;
  let by_proc = Array.map (fun l -> Array.of_list (List.rev l)) by_proc in
  let rf = Array.make (Array.length ops) (-2) in
  let commit = Array.make (Array.length ops) max_int in
  Array.iter
    (fun (o : Op.t) ->
      (match Hashtbl.find_opt t.rf o.id with
       | Some w -> rf.(o.id) <- w
       | None -> ());
      match Hashtbl.find_opt t.commit o.id with
      | Some c -> commit.(o.id) <- c
      | None -> ())
    ops;
  (* never-retired buffered writes keep commit = max_int, i.e. "after the
     end"; [force_drain] avoids this in normal operation *)
  {
    Exec.model = t.model;
    n_procs = t.src.n_procs;
    n_locs = t.src.n_locs;
    ops;
    by_proc;
    rf;
    commit;
    final_mem = Array.copy t.mem;
    truncated = t.truncated;
    schedule = List.rev t.sched_rev;
  }

let stats t =
  {
    retires = t.st_retires;
    max_buffer = t.st_max_buffer;
    buffered_writes = t.st_buffered;
    delay_total = t.st_delay;
  }

let replay ~model mk prefix =
  let t = create ~model (mk ()) in
  List.iter (perform t) prefix;
  t

let drive ?(max_steps = 20_000) ?on_op ~model ~sched (src : Thread_intf.source) =
  let t = create ?on_op ~model src in
  let rec loop () =
    if t.n_steps >= max_steps then begin
      set_truncated t;
      force_drain t
    end
    else
      match enabled t with
      | [] -> ()
      | decisions ->
        perform t (Sched.choose sched decisions);
        loop ()
  in
  loop ();
  t

let run ?max_steps ?on_op ~model ~sched src =
  to_execution (drive ?max_steps ?on_op ~model ~sched src)

let run_with_stats ?max_steps ~model ~sched src =
  let t = drive ?max_steps ~model ~sched src in
  (to_execution t, stats t)
