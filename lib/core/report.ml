let default_loc_name l = Printf.sprintf "loc%d" l

(* The one renderer.  It appends to a [Buffer] the lines the report is
   made of, each indented by hand as the vertical boxes of the former
   [Format] printer laid them out, with no trailing newline.  An event's
   [E<id>(P<p> <class>[ <label>])] text and a location's name are built
   at most once per report: a race-heavy trace names a few thousand
   events in hundreds of thousands of races. *)
type ctx = {
  buf : Buffer.t;
  trace : Tracing.Trace.t;
  refs : string array;  (* "" until the event is first named *)
  loc_name : int -> string;
  locs : string array;  (* [loc_name] of every location the trace declares *)
}

let ctx ?(loc_name = default_loc_name) buf (trace : Tracing.Trace.t) =
  {
    buf;
    trace;
    refs = Array.make (Tracing.Trace.n_events trace) "";
    loc_name;
    locs = Array.init trace.Tracing.Trace.n_locs loc_name;
  }

let event_ref c eid =
  match c.refs.(eid) with
  | "" ->
    let ev = c.trace.Tracing.Trace.events.(eid) in
    let what, label =
      match ev.Tracing.Event.body with
      | Tracing.Event.Sync { op; _ } ->
        (Memsim.Op.class_name op.Memsim.Op.cls, op.Memsim.Op.label)
      | Tracing.Event.Computation { ops; _ } ->
        ("comp", List.find_map (fun (o : Memsim.Op.t) -> o.Memsim.Op.label) ops)
    in
    let s =
      Printf.sprintf "E%d(P%d %s%s)" eid ev.Tracing.Event.proc what
        (match label with None -> "" | Some l -> " " ^ l)
    in
    c.refs.(eid) <- s;
    s
  | s -> s

let loc c l = if l >= 0 && l < Array.length c.locs then c.locs.(l) else c.loc_name l

let add c s = Buffer.add_string c.buf s
let addf c fmt = Printf.bprintf c.buf fmt

let race c (r : Race.t) =
  add c (event_ref c r.Race.a);
  add c " <-> ";
  add c (event_ref c r.Race.b);
  add c " on ";
  List.iteri
    (fun i l ->
      if i > 0 then add c ", ";
      add c (loc c l))
    r.Race.locs

let partition c (p : Partition.partition) =
  addf c "partition #%d (%d events, %d data races)" p.Partition.component
    (List.length p.Partition.events)
    (List.length p.Partition.races);
  List.iter
    (fun r ->
      add c "\n  ";
      race c r)
    p.Partition.races

let render ?loc_name ?(degraded = false) buf (a : Postmortem.analysis) =
  let first = Postmortem.first_partitions a in
  let non_first = Partition.non_first_partitions a.Postmortem.partitions in
  if first = [] then
    Buffer.add_string buf
      (if degraded then "No data races detected among the surviving events."
       else
         "No data races detected.\n\
          By Condition 3.4(1) the execution was sequentially consistent.")
  else begin
    let c = ctx ?loc_name buf a.Postmortem.trace in
    addf c
      "%d data race(s) in %d first partition(s) — each contains at least\n\
       one race that also occurs in a sequentially consistent execution:\n"
      (List.length (Postmortem.reported_races a))
      (List.length first);
    List.iter
      (fun p ->
        add c "\n";
        partition c p)
      first;
    if non_first <> [] then begin
      addf c
        "\n\n%d non-first partition(s) suppressed (their races may not occur\n\
         under sequential consistency):"
        (List.length non_first);
      List.iter
        (fun (p : Partition.partition) ->
          addf c "\n  partition #%d: %d data race(s)" p.Partition.component
            (List.length p.Partition.races))
        non_first
    end;
    match a.Postmortem.order with
    | `Hb1 -> ()
    | `Shb ->
      let extra = a.Postmortem.shb_extra in
      addf c
        "\n\nSHB (hb1 + reads-from) predicts %d additional race(s) among the\n\
         suppressed partitions%s"
        (List.length extra)
        (if extra = [] then "." else ":");
      List.iter
        (fun r ->
          add c "\n  ";
          race c r)
        extra
  end

(* Print rendered lines as one vertical box, so a report placed at any
   column of a formatter is laid out as the nested boxes used to. *)
let pp_lines ppf s =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i line ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.pp_print_string ppf line)
    (String.split_on_char '\n' s);
  Format.pp_close_box ppf ()

let rendered f =
  let buf = Buffer.create 256 in
  f buf;
  Buffer.contents buf

let to_string ?loc_name a = rendered (fun buf -> render ?loc_name buf a)

let pp_analysis ?loc_name ppf a = pp_lines ppf (to_string ?loc_name a)

let pp_analysis_degraded ?loc_name ppf a =
  pp_lines ppf (rendered (fun buf -> render ?loc_name ~degraded:true buf a))

let pp_partition ?loc_name ~trace ppf p =
  pp_lines ppf (rendered (fun buf -> partition (ctx ?loc_name buf trace) p))

let to_dot ?(loc_name = default_loc_name) (a : Postmortem.analysis) =
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let trace = a.Postmortem.trace in
  let hb_graph = Hb.graph a.Postmortem.hb in
  let first_events =
    List.concat_map
      (fun (p : Partition.partition) -> p.Partition.events)
      (Postmortem.first_partitions a)
  in
  let node_label (ev : Tracing.Event.t) =
    match ev.Tracing.Event.body with
    | Tracing.Event.Sync { op; _ } ->
      Printf.sprintf "%s %s %s"
        (Memsim.Op.class_name op.Memsim.Op.cls)
        (Format.asprintf "%a" Memsim.Op.pp_kind op.Memsim.Op.kind)
        (loc_name op.Memsim.Op.loc)
    | Tracing.Event.Computation { reads; writes; _ } ->
      let names s =
        Graphlib.Bitset.elements s |> List.map loc_name |> String.concat ","
      in
      Printf.sprintf "R{%s} W{%s}" (names reads) (names writes)
  in
  out "digraph augmented_hb1 {\n";
  out "  rankdir=TB; node [shape=box, fontsize=10];\n";
  Array.iteri
    (fun p evs ->
      out "  subgraph cluster_P%d {\n    label=\"P%d\";\n" p p;
      Array.iter
        (fun (ev : Tracing.Event.t) ->
          let fill =
            if List.mem ev.Tracing.Event.eid first_events then
              ", style=filled, fillcolor=lightyellow"
            else ""
          in
          out "    e%d [label=\"E%d: %s\"%s];\n" ev.Tracing.Event.eid
            ev.Tracing.Event.eid (node_label ev) fill)
        evs;
      out "  }\n")
    trace.Tracing.Trace.by_proc;
  (* po edges (within clusters) and so1 edges *)
  Array.iter
    (fun evs ->
      for i = 0 to Array.length evs - 2 do
        out "  e%d -> e%d;\n" evs.(i).Tracing.Event.eid evs.(i + 1).Tracing.Event.eid
      done)
    trace.Tracing.Trace.by_proc;
  List.iter
    (fun (rel, acq) ->
      if Graphlib.Digraph.mem_edge hb_graph rel acq then
        out "  e%d -> e%d [style=dashed, label=\"so1\"];\n" rel acq)
    trace.Tracing.Trace.so1;
  (* race edges, doubly directed *)
  List.iter
    (fun (r : Race.t) ->
      out "  e%d -> e%d [dir=both, color=red, penwidth=2%s];\n" r.Race.a r.Race.b
        (if r.Race.is_data then "" else ", style=dotted"))
    a.Postmortem.races;
  out "}\n";
  Buffer.contents buf
