let magic = "weakrace-trace"
let version = 1
let version_checksummed = 2

(* Dimension cap applied to the procs/locs/events header.  A corrupted
   header must not drive [Array.make] into [Invalid_argument] or an
   out-of-memory abort; anything past this bound is rejected as a parse
   error instead.  4M events is far beyond any trace this repo emits. *)
let max_dim = 1 lsl 22

(* Epoch marker cadence for the checksummed (v2) framing: one
   [mark <events> <crc>] line per this many event lines, plus a final
   mark as the very last line of the file. *)
let mark_period = 32

let encode_class = function
  | Memsim.Op.Data -> "data"
  | Memsim.Op.Acquire -> "acquire"
  | Memsim.Op.Release -> "release"
  | Memsim.Op.Plain_sync -> "sync"

let decode_class = function
  | "data" -> Some Memsim.Op.Data
  | "acquire" -> Some Memsim.Op.Acquire
  | "release" -> Some Memsim.Op.Release
  | "sync" -> Some Memsim.Op.Plain_sync
  | _ -> None

let encode_set s =
  match Graphlib.Bitset.elements s with
  | [] -> "-"
  | xs -> String.concat "," (List.map string_of_int xs)

let event_line (ev : Event.t) =
  match ev.Event.body with
  | Event.Computation { reads; writes; _ } ->
    Printf.sprintf "event %d proc %d seq %d comp reads %s writes %s" ev.Event.eid
      ev.Event.proc ev.Event.seq (encode_set reads) (encode_set writes)
  | Event.Sync { op; slot } ->
    Printf.sprintf "event %d proc %d seq %d sync loc %d kind %s cls %s value %d slot %d label %s"
      ev.Event.eid ev.Event.proc ev.Event.seq op.Memsim.Op.loc
      (match op.Memsim.Op.kind with Memsim.Op.Read -> "R" | Memsim.Op.Write -> "W")
      (encode_class op.Memsim.Op.cls)
      op.Memsim.Op.value slot
      (match op.Memsim.Op.label with None -> "-" | Some l -> l)

(* -- emitter ---------------------------------------------------------- *)

(* All encoders funnel through an [emitter] so the two on-disk framings
   share one code path.  At [version] (v1) it appends plain lines and the
   output is byte-identical to the historical format.  At
   [version_checksummed] (v2) every line after the magic carries a
   [ ~%08x] CRC-32 suffix over its own body, a cumulative CRC + event
   count runs over every non-mark body line (body text plus the newline,
   suffix excluded), and a [mark <events> <crc>] line is emitted every
   [mark_period] event lines and once more as the final line.  Marks are
   excluded from the cumulative CRC so a lost mark is benign. *)
type emitter = {
  ebuf : Buffer.t;
  ever : int;
  mutable ecum : int;
  mutable eevents : int;
  mutable esince : int; (* event lines since the last mark *)
}

let emitter v =
  if v <> version && v <> version_checksummed then
    invalid_arg (Printf.sprintf "Codec: unsupported format version %d" v);
  { ebuf = Buffer.create 4096; ever = v; ecum = 0; eevents = 0; esince = 0 }

let checksummed e = e.ever >= version_checksummed

let emit_line e body =
  Buffer.add_string e.ebuf body;
  if checksummed e then
    Printf.bprintf e.ebuf " ~%08x" (Crc32.string body);
  Buffer.add_char e.ebuf '\n';
  if checksummed e then e.ecum <- Crc32.update e.ecum (body ^ "\n")

let emit_mark e =
  if checksummed e then begin
    let body = Printf.sprintf "mark %d %08x" e.eevents e.ecum in
    Buffer.add_string e.ebuf body;
    Printf.bprintf e.ebuf " ~%08x" (Crc32.string body);
    Buffer.add_char e.ebuf '\n';
    e.esince <- 0
  end

let emit_event_line e body =
  emit_line e body;
  if checksummed e then begin
    e.eevents <- e.eevents + 1;
    e.esince <- e.esince + 1;
    if e.esince >= mark_period then emit_mark e
  end

let eline e fmt = Printf.ksprintf (emit_line e) fmt

let emit_header e (t : Trace.t) =
  (* the magic line is neither suffixed nor counted: its checksum regime
     cannot be known before the version it announces has been read *)
  Buffer.add_string e.ebuf (Printf.sprintf "%s %d\n" magic e.ever);
  eline e "model %s" t.Trace.model;
  eline e "truncated %d" (if t.Trace.truncated then 1 else 0);
  eline e "procs %d locs %d events %d" t.Trace.n_procs t.Trace.n_locs
    (Array.length t.Trace.events)

let emit_sync_order e (t : Trace.t) =
  List.iter
    (fun (loc, eids) ->
      eline e "syncorder %d %s" loc
        (match eids with
         | [] -> "-"
         | _ -> String.concat "," (List.map string_of_int eids)))
    t.Trace.sync_order

let encode_into e (t : Trace.t) =
  emit_header e t;
  Array.iter (fun ev -> emit_event_line e (event_line ev)) t.Trace.events;
  List.iter (fun (r, a) -> eline e "so1 %d %d" r a) t.Trace.so1;
  emit_sync_order e t

let encode ?version:(v = version) (t : Trace.t) =
  let e = emitter v in
  encode_into e t;
  emit_mark e;
  Buffer.contents e.ebuf

let write_file ?version:(v = version) path t =
  let oc = open_out path in
  (try output_string oc (encode ~version:v t)
   with exn -> close_out_noerr oc; raise exn);
  close_out oc

(* -- stream-ordered encoding ----------------------------------------- *)

exception Stuck

let is_acquire (ev : Event.t) =
  match ev.Event.body with
  | Event.Sync { op; _ } -> op.Memsim.Op.cls = Memsim.Op.Acquire
  | _ -> false

(* Emit events in an hb1-topological interleaving (Kahn's algorithm over
   po + so1, breaking ties toward the smallest (seq, proc)), with each
   acquire's so1 record immediately before it and unpaired acquires
   marked "so1 -" so a streaming consumer never stalls an event whose
   predecessors it has already seen.  Raises [Stuck] on a cyclic hb1. *)
let add_stream_body e (t : Trace.t) =
  let n = Array.length t.Trace.events in
  let rels = Array.make n [] in
  List.iter (fun (r, a) -> rels.(a) <- r :: rels.(a)) t.Trace.so1;
  Array.iteri (fun i l -> rels.(i) <- List.rev l) rels;
  let emitted = Array.make n false in
  let idx = Array.make t.Trace.n_procs 0 in
  let remaining = ref n in
  while !remaining > 0 do
    let best = ref None in
    for p = 0 to t.Trace.n_procs - 1 do
      if idx.(p) < Array.length t.Trace.by_proc.(p) then begin
        let ev = t.Trace.by_proc.(p).(idx.(p)) in
        if List.for_all (fun r -> emitted.(r)) rels.(ev.Event.eid) then begin
          let key = (ev.Event.seq, p) in
          match !best with
          | Some (k, _, _) when compare k key <= 0 -> ()
          | _ -> best := Some (key, p, ev)
        end
      end
    done;
    match !best with
    | None -> raise Stuck
    | Some (_, p, ev) ->
      let eid = ev.Event.eid in
      (match rels.(eid) with
       | [] -> if is_acquire ev then eline e "so1 - %d" eid
       | rs -> List.iter (fun r -> eline e "so1 %d %d" r eid) rs);
      emit_event_line e (event_line ev);
      emitted.(eid) <- true;
      idx.(p) <- idx.(p) + 1;
      decr remaining
  done

let encode_stream ?version:(v = version) (t : Trace.t) =
  let n = Array.length t.Trace.events in
  let e = emitter v in
  emit_header e t;
  match add_stream_body e t with
  | () ->
    emit_sync_order e t;
    eline e "end %d" n;
    emit_mark e;
    Buffer.contents e.ebuf
  | exception Stuck ->
    (* hb1 has a cycle, so no topological interleaving exists; fall back
       to the batch layout (so1 records trailing), still terminated. *)
    let e = emitter v in
    encode_into e t;
    eline e "end %d" n;
    emit_mark e;
    Buffer.contents e.ebuf

let write_stream_file ?version:(v = version) path t =
  let oc = open_out path in
  (try output_string oc (encode_stream ~version:v t)
   with exn -> close_out_noerr oc; raise exn);
  close_out oc

(* -- decoding ------------------------------------------------------- *)

exception Parse of string

let fail lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse (Printf.sprintf "line %d: %s" lineno msg))) fmt

let parse_int lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail lineno "expected an integer, got %S" s

let parse_set lineno n_locs s =
  let set = Graphlib.Bitset.create n_locs in
  if s <> "-" && s <> "" then
    String.split_on_char ',' s
    |> List.iter (fun tok ->
           let v = parse_int lineno tok in
           if v < 0 || v >= n_locs then fail lineno "location %d out of range" v;
           Graphlib.Bitset.add set v);
  set

type sizes = { n_procs : int; n_locs : int; n_events : int }

type record =
  | Magic of int
  | Model of string
  | Truncated of bool
  | Sizes of sizes
  | Event of Event.t
  | So1 of { release : int; acquire : int }
  | So1_unpaired of int
  | Sync_order of int * int list
  | End of int
  | Mark of { events : int; crc : int }

type decoder = {
  mutable seen_magic : bool;
  mutable fversion : int;
  verify_epochs : bool;
  mutable dsizes : sizes option;
  partial : Buffer.t;
  mutable lineno : int;
  mutable offset : int; (* byte offset of the start of the current line *)
  mutable cum_crc : int;
  mutable cum_events : int;
  mutable last_mark : bool;
  mutable failed : string option;
}

let make_decoder ~verify_epochs =
  { seen_magic = false; fversion = version; verify_epochs; dsizes = None;
    partial = Buffer.create 256; lineno = 0; offset = 0;
    cum_crc = 0; cum_events = 0; last_mark = false; failed = None }

let decoder () = make_decoder ~verify_epochs:true

let decoder_sizes d = d.dsizes
let decoder_version d = d.fversion

(* A v2 line ends in " ~XXXXXXXX": one space, a tilde, eight hex digits
   of CRC-32 over everything before the space. *)
let strip_suffix l =
  match String.rindex_opt l ' ' with
  | Some i when String.length l - i = 10 && l.[i + 1] = '~' ->
    (match int_of_string_opt ("0x" ^ String.sub l (i + 2) 8) with
     | Some crc -> Some (String.sub l 0 i, crc)
     | None -> None)
  | _ -> None

(* The record grammar proper, over a body line with any checksum suffix
   already stripped.  Raises [Parse] on malformed input. *)
let decode_body d ~lineno body =
  let ns =
    match d.dsizes with
    | Some s -> s
    | None -> { n_procs = 0; n_locs = 0; n_events = 0 }
  in
  let check_eid what e =
    if e < 0 || e >= ns.n_events then fail lineno "%s %d out of range" what e
  in
  match String.split_on_char ' ' body with
  | [ "model"; m ] -> Model m
  | [ "truncated"; v ] -> Truncated (parse_int lineno v <> 0)
  | [ "procs"; p; "locs"; lo; "events"; ev ] ->
    let p = parse_int lineno p
    and lo = parse_int lineno lo
    and ev = parse_int lineno ev in
    if p < 0 || lo < 0 || ev < 0 then fail lineno "negative size";
    if p > max_dim || lo > max_dim || ev > max_dim then
      fail lineno "size exceeds limit %d (corrupt header?)" max_dim;
    let s = { n_procs = p; n_locs = lo; n_events = ev } in
    d.dsizes <- Some s;
    Sizes s
  | "event" :: eid :: "proc" :: proc :: "seq" :: seq :: "comp" :: "reads" :: r
    :: "writes" :: w :: [] ->
    let eid = parse_int lineno eid in
    check_eid "event id" eid;
    let proc = parse_int lineno proc in
    if proc < 0 || proc >= ns.n_procs then
      fail lineno "processor %d out of range" proc;
    Event
      {
        Event.eid;
        proc;
        seq = parse_int lineno seq;
        body =
          Event.Computation
            {
              reads = parse_set lineno ns.n_locs r;
              writes = parse_set lineno ns.n_locs w;
              ops = [];
            };
      }
  | "event" :: eid :: "proc" :: proc :: "seq" :: seq :: "sync" :: "loc" :: loc
    :: "kind" :: kind :: "cls" :: cls :: "value" :: value :: "slot" :: slot
    :: "label" :: label ->
    let eid = parse_int lineno eid in
    check_eid "event id" eid;
    let kind =
      match kind with
      | "R" -> Memsim.Op.Read
      | "W" -> Memsim.Op.Write
      | k -> fail lineno "bad kind %S" k
    in
    let cls =
      match decode_class cls with
      | Some c -> c
      | None -> fail lineno "bad class %S" cls
    in
    let label =
      match String.concat " " label with "-" -> None | l -> Some l
    in
    let proc = parse_int lineno proc in
    if proc < 0 || proc >= ns.n_procs then
      fail lineno "processor %d out of range" proc;
    let loc = parse_int lineno loc in
    if loc < 0 || loc >= ns.n_locs then fail lineno "location %d out of range" loc;
    Event
      {
        Event.eid;
        proc;
        seq = parse_int lineno seq;
        body =
          Event.Sync
            {
              op =
                {
                  Memsim.Op.id = -1;
                  proc;
                  pindex = -1;
                  loc;
                  kind;
                  cls;
                  value = parse_int lineno value;
                  label;
                };
              slot = parse_int lineno slot;
            };
      }
  | [ "so1"; "-"; a ] ->
    let a = parse_int lineno a in
    check_eid "so1 acquire" a;
    So1_unpaired a
  | [ "so1"; r; a ] ->
    let r = parse_int lineno r and a = parse_int lineno a in
    if r < 0 || r >= ns.n_events || a < 0 || a >= ns.n_events then
      fail lineno "so1 pair out of range";
    So1 { release = r; acquire = a }
  | [ "syncorder"; loc; eids ] ->
    let loc = parse_int lineno loc in
    let eids =
      if eids = "-" || eids = "" then []
      else String.split_on_char ',' eids |> List.map (parse_int lineno)
    in
    List.iter (fun e -> check_eid "sync order id" e) eids;
    Sync_order (loc, eids)
  | [ "end"; n ] ->
    let n = parse_int lineno n in
    (match d.dsizes with
     | Some s when n <> s.n_events ->
       fail lineno "end record announces %d events, header says %d" n s.n_events
     | _ -> ());
    End n
  | [ "mark"; ev; crc ] ->
    let events = parse_int lineno ev in
    let crc =
      match int_of_string_opt ("0x" ^ crc) with
      | Some c when String.length crc = 8 -> c
      | _ -> fail lineno "bad mark checksum %S" crc
    in
    if events < 0 then fail lineno "negative mark event count";
    Mark { events; crc }
  | _ -> fail lineno "unrecognized record %S" body

(* Parse one (possibly padded) line into a record; [None] for blanks.
   Verifies the v2 per-line checksum and — unless the decoder was built
   for salvage — the cumulative epoch state announced by mark records.
   Raises [Parse], without positional prefix beyond the line number, so
   callers can add their own byte-offset context. *)
let decode_record d ~lineno raw =
  let l = String.trim raw in
  if l = "" then None
  else if not d.seen_magic then begin
    (match String.split_on_char ' ' l with
     | [ m; v ] when m = magic ->
       let v = parse_int lineno v in
       if v <> version && v <> version_checksummed then
         fail lineno "unsupported version %d" v;
       d.fversion <- v
     | _ -> fail lineno "bad magic");
    d.seen_magic <- true;
    Some (Magic d.fversion)
  end
  else begin
    let body =
      if d.fversion >= version_checksummed then
        match strip_suffix l with
        | Some (body, crc) ->
          if Crc32.string body <> crc then fail lineno "line checksum mismatch";
          body
        | None -> fail lineno "missing line checksum"
      else l
    in
    let r = decode_body d ~lineno body in
    (match r with
     | Mark { events; crc } ->
       if d.verify_epochs && d.fversion >= version_checksummed
          && (events <> d.cum_events || crc <> d.cum_crc) then
         fail lineno
           "epoch mark mismatch: mark announces %d events (crc %08x), decoded %d (crc %08x)"
           events crc d.cum_events d.cum_crc;
       d.last_mark <- true
     | _ ->
       if d.fversion >= version_checksummed then begin
         d.cum_crc <- Crc32.update d.cum_crc (body ^ "\n");
         match r with
         | Event _ -> d.cum_events <- d.cum_events + 1
         | _ -> ()
       end;
       d.last_mark <- false);
    Some r
  end

(* -- incremental (chunked) decoding ---------------------------------- *)

let run_line d line ~f acc =
  d.lineno <- d.lineno + 1;
  let start = d.offset in
  d.offset <- d.offset + String.length line + 1;
  match decode_record d ~lineno:d.lineno line with
  | None -> Ok acc
  | Some r ->
    (match f acc r with
     | Ok _ as ok -> ok
     | Error e -> Error (Printf.sprintf "line %d (byte %d): %s" d.lineno start e))
  | exception Parse msg -> Error (Printf.sprintf "byte %d: %s" start msg)

let feed d chunk ~f acc =
  match d.failed with
  | Some e -> Error e
  | None ->
    let n = String.length chunk in
    let rec go pos acc =
      if pos >= n then Ok acc
      else
        match String.index_from_opt chunk pos '\n' with
        | None ->
          Buffer.add_substring d.partial chunk pos (n - pos);
          Ok acc
        | Some j ->
          Buffer.add_substring d.partial chunk pos (j - pos);
          let line = Buffer.contents d.partial in
          Buffer.clear d.partial;
          (match run_line d line ~f acc with
           | Ok acc -> go (j + 1) acc
           | Error e -> d.failed <- Some e; Error e)
    in
    go 0 acc

let finish_feed d ~f acc =
  match d.failed with
  | Some e -> Error e
  | None ->
    let flushed =
      if Buffer.length d.partial = 0 then Ok acc
      else begin
        let line = Buffer.contents d.partial in
        Buffer.clear d.partial;
        run_line d line ~f acc
      end
    in
    (match flushed with
     | Error e -> d.failed <- Some e; Error e
     | Ok acc ->
       (* a well-formed v2 trace ends with an epoch mark: its absence
          means the tail of the file was cleanly cut off *)
       if d.verify_epochs && d.fversion >= version_checksummed
          && not d.last_mark && d.seen_magic then begin
         let e = "missing final epoch mark (truncated trace?)" in
         d.failed <- Some e;
         Error e
       end
       else Ok acc)

let default_chunk = 65536

let fold_string ?(chunk_size = default_chunk) text ~init ~f =
  if chunk_size <= 0 then invalid_arg "Codec.fold_string: chunk_size";
  let d = decoder () in
  let n = String.length text in
  let rec go pos acc =
    if pos >= n then finish_feed d ~f acc
    else
      let len = min chunk_size (n - pos) in
      match feed d (String.sub text pos len) ~f acc with
      | Ok acc -> go (pos + len) acc
      | Error _ as e -> e
  in
  go 0 init

let fold_file ?(chunk_size = default_chunk) path ~init ~f =
  if chunk_size <= 0 then invalid_arg "Codec.fold_file: chunk_size";
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let d = decoder () in
    let buf = Bytes.create chunk_size in
    let rec go acc =
      match input ic buf 0 chunk_size with
      | 0 -> finish_feed d ~f acc
      | n ->
        (match feed d (Bytes.sub_string buf 0 n) ~f acc with
         | Ok acc -> go acc
         | Error _ as e -> e)
      | exception Sys_error msg -> Error msg
    in
    let r = go init in
    close_in_noerr ic;
    r

(* -- salvage decoding ------------------------------------------------ *)

module Salvage = struct
  type loss = {
    start_line : int;
    start_byte : int;
    end_line : int;
    end_byte : int;
    lines_lost : int;
    events_lost : int option;
    reason : string;
  }

  let pp_loss ppf l =
    Format.fprintf ppf "lines %d-%d (bytes %d-%d): %d line%s discarded%s — %s"
      l.start_line l.end_line l.start_byte l.end_byte l.lines_lost
      (if l.lines_lost = 1 then "" else "s")
      (match l.events_lost with
       | None -> ", events lost unknown"
       | Some 0 -> ", no events lost"
       | Some n -> Printf.sprintf ", ~%d event%s lost" n (if n = 1 then "" else "s"))
      l.reason

  (* A damaged region we are still extending, or have closed but cannot
     yet quantify (the next epoch mark tells us how many events the
     writer had emitted by then). *)
  type pending = {
    pl_start_line : int;
    pl_start_byte : int;
    pl_reason : string;
    mutable pl_end_line : int;
    mutable pl_end_byte : int;
    mutable pl_lines : int;
  }

  type t = {
    sd : decoder; (* verify_epochs = false: marks are adopted, not enforced *)
    spartial : Buffer.t;
    mutable slineno : int;
    mutable soffset : int;
    mutable skipping : pending option;
    mutable unquant : pending list; (* closed since the last mark, newest first *)
    mutable sclosed : loss list; (* newest first *)
    mutable sdirty : bool; (* resynced without a mark since the last mark *)
    mutable smark_line : int; (* line just after the last adopted mark *)
    mutable smark_byte : int;
    mutable sfailed : string option;
  }

  let create () =
    { sd = make_decoder ~verify_epochs:false; spartial = Buffer.create 256;
      slineno = 0; soffset = 0; skipping = None; unquant = []; sclosed = [];
      sdirty = false; smark_line = 1; smark_byte = 0; sfailed = None }

  let mk_loss p ~events_lost =
    { start_line = p.pl_start_line; start_byte = p.pl_start_byte;
      end_line = p.pl_end_line; end_byte = p.pl_end_byte;
      lines_lost = p.pl_lines; events_lost; reason = p.pl_reason }

  (* Close the open skip region, if any, into the unquantified list. *)
  let close_skipping t =
    match t.skipping with
    | None -> ()
    | Some p ->
      t.skipping <- None;
      t.unquant <- p :: t.unquant

  (* At an adopted mark, [lost] = writer's event count minus ours.  With
     exactly one damaged region since the previous mark the delta is
     attributable; with several we only know the aggregate, so each loss
     keeps [events_lost = None]. *)
  let settle t ~lost =
    (match t.unquant with
     | [ p ] -> t.sclosed <- mk_loss p ~events_lost:(Some (max 0 lost)) :: t.sclosed
     | ps ->
       List.iter
         (fun p -> t.sclosed <- mk_loss p ~events_lost:None :: t.sclosed)
         (List.rev ps));
    t.unquant <- []

  let close_unquant_unknown t =
    List.iter
      (fun p -> t.sclosed <- mk_loss p ~events_lost:None :: t.sclosed)
      (List.rev t.unquant);
    t.unquant <- []

  let run_salvage_line t line ~f acc =
    t.slineno <- t.slineno + 1;
    let lineno = t.slineno in
    let start = t.soffset in
    t.soffset <- t.soffset + String.length line + 1;
    match decode_record t.sd ~lineno line with
    | None -> Ok acc
    | exception Parse msg ->
      (match t.skipping with
       | Some p ->
         p.pl_end_line <- lineno;
         p.pl_end_byte <- t.soffset;
         p.pl_lines <- p.pl_lines + 1
       | None ->
         t.skipping <-
           Some { pl_start_line = lineno; pl_start_byte = start; pl_reason = msg;
                  pl_end_line = lineno; pl_end_byte = t.soffset; pl_lines = 1 });
      Ok acc
    | Some r ->
      (* a cleanly decoding line: if we were skipping, this is a resync.
         It is optimistic — nothing proves our epoch state matches the
         writer's again — so flag the epoch dirty; the next mark adopts
         the writer's announced state and settles the damage. *)
      (match t.skipping with
       | Some _ ->
         close_skipping t;
         t.sdirty <- true
       | None -> ());
      (match r with
       | Mark { events; crc } when t.sd.fversion >= version_checksummed ->
         let lost = events - t.sd.cum_events in
         let crc_ok = crc = t.sd.cum_crc in
         if t.unquant <> [] then settle t ~lost
         else if lost <> 0 || ((not crc_ok) && not t.sdirty) then begin
           (* every line since the previous mark parsed cleanly, yet the
              epoch disagrees: whole lines were dropped or duplicated *)
           let reason =
             if lost > 0 then "epoch event count short (dropped lines?)"
             else if lost < 0 then "epoch event count excess (duplicated lines?)"
             else "epoch checksum mismatch (dropped or duplicated non-event lines?)"
           in
           t.sclosed <-
             { start_line = t.smark_line; start_byte = t.smark_byte;
               end_line = lineno - 1; end_byte = start; lines_lost = 0;
               events_lost = Some (max 0 lost); reason }
             :: t.sclosed
         end;
         t.sd.cum_events <- events;
         t.sd.cum_crc <- crc;
         t.sdirty <- false;
         t.smark_line <- lineno + 1;
         t.smark_byte <- t.soffset;
         (match f acc r with
          | Ok _ as ok -> ok
          | Error e ->
            Error (Printf.sprintf "line %d (byte %d): %s" lineno start e))
       | _ ->
         (match f acc r with
          | Ok _ as ok -> ok
          | Error e ->
            Error (Printf.sprintf "line %d (byte %d): %s" lineno start e)))

  let feed t chunk ~f acc =
    match t.sfailed with
    | Some e -> Error e
    | None ->
      let n = String.length chunk in
      let rec go pos acc =
        if pos >= n then Ok acc
        else
          match String.index_from_opt chunk pos '\n' with
          | None ->
            Buffer.add_substring t.spartial chunk pos (n - pos);
            Ok acc
          | Some j ->
            Buffer.add_substring t.spartial chunk pos (j - pos);
            let line = Buffer.contents t.spartial in
            Buffer.clear t.spartial;
            (match run_salvage_line t line ~f acc with
             | Ok acc -> go (j + 1) acc
             | Error e -> t.sfailed <- Some e; Error e)
      in
      go 0 acc

  let finish_feed t ~f acc =
    match t.sfailed with
    | Some e -> Error e
    | None ->
      let flushed =
        if Buffer.length t.spartial = 0 then Ok acc
        else begin
          let line = Buffer.contents t.spartial in
          Buffer.clear t.spartial;
          run_salvage_line t line ~f acc
        end
      in
      (match flushed with
       | Error e -> t.sfailed <- Some e; Error e
       | Ok acc ->
         close_skipping t;
         close_unquant_unknown t;
         if t.sd.seen_magic && t.sd.fversion >= version_checksummed
            && not t.sd.last_mark then
           t.sclosed <-
             { start_line = t.smark_line; start_byte = t.smark_byte;
               end_line = t.slineno; end_byte = t.soffset; lines_lost = 0;
               events_lost = None;
               reason = "missing final epoch mark (truncated trace?)" }
             :: t.sclosed;
         Ok acc)

  let losses t = List.rev t.sclosed
  let clean t = t.sclosed = [] && t.unquant = [] && t.skipping = None
  let decoder t = t.sd
end

let fold_salvage_string ?(chunk_size = default_chunk) text ~init ~f =
  if chunk_size <= 0 then invalid_arg "Codec.fold_salvage_string: chunk_size";
  let s = Salvage.create () in
  let n = String.length text in
  let rec go pos acc =
    if pos >= n then Salvage.finish_feed s ~f acc
    else
      let len = min chunk_size (n - pos) in
      match Salvage.feed s (String.sub text pos len) ~f acc with
      | Ok acc -> go (pos + len) acc
      | Error _ as e -> e
  in
  (match go 0 init with
   | Ok acc -> Ok (acc, Salvage.losses s)
   | Error _ as e -> e)

(* -- batch decoding -------------------------------------------------- *)

(* Shared accumulator for the batch entry points ([decode], [read_dir]):
   folds records into the trace components and validates completeness. *)
type builder = {
  mutable bmodel : string;
  mutable btrunc : bool;
  mutable bsizes : sizes;
  mutable bevents : Event.t option array;
  mutable bso1 : (int * int) list; (* newest first *)
  mutable bsync : (int * int list) list; (* newest first *)
  mutable bsaw : bool;
}

let builder () =
  { bmodel = ""; btrunc = false;
    bsizes = { n_procs = 0; n_locs = 0; n_events = 0 };
    bevents = [||]; bso1 = []; bsync = []; bsaw = false }

let builder_add b r =
  b.bsaw <- true;
  match r with
  | Magic _ | So1_unpaired _ | End _ | Mark _ -> ()
  | Model m -> b.bmodel <- m
  | Truncated v -> b.btrunc <- v
  | Sizes s ->
    b.bsizes <- s;
    b.bevents <- Array.make s.n_events None
  | Event e -> b.bevents.(e.Event.eid) <- Some e
  | So1 { release; acquire } -> b.bso1 <- (release, acquire) :: b.bso1
  | Sync_order (loc, eids) -> b.bsync <- (loc, eids) :: b.bsync

(* Raises [Parse] on an incomplete trace. *)
let builder_finish b =
  if not b.bsaw then raise (Parse "empty trace");
  let events =
    Array.mapi
      (fun i ev ->
        match ev with
        | Some e -> e
        | None -> fail 0 "missing event %d" i)
      b.bevents
  in
  let by_proc = Array.make b.bsizes.n_procs [] in
  Array.iter
    (fun (e : Event.t) -> by_proc.(e.Event.proc) <- e :: by_proc.(e.Event.proc))
    events;
  let by_proc =
    Array.map
      (fun evs ->
        let arr = Array.of_list (List.rev evs) in
        Array.sort (fun (a : Event.t) (b : Event.t) -> compare a.Event.seq b.Event.seq) arr;
        arr)
      by_proc
  in
  {
    Trace.n_procs = b.bsizes.n_procs;
    n_locs = b.bsizes.n_locs;
    model = b.bmodel;
    truncated = b.btrunc;
    events;
    by_proc;
    so1 = List.rev b.bso1;
    sync_order = List.rev b.bsync;
  }

let decode text =
  let d = decoder () in
  let b = builder () in
  try
    List.iteri
      (fun i line ->
        match decode_record d ~lineno:(i + 1) line with
        | None -> ()
        | Some r -> builder_add b r)
      (String.split_on_char '\n' text);
    if d.fversion >= version_checksummed && not d.last_mark then
      raise (Parse "missing final epoch mark (truncated trace?)");
    Ok (builder_finish b)
  with Parse msg -> Error msg

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    (match decode text with
     | Ok _ as ok -> ok
     | Error e -> Error (Printf.sprintf "%s: %s" path e))

let equivalent a b =
  (* compare via the canonical encoding, which drops the ops payload;
     so1 is a set of edges whose list order is a layout artifact (the
     stream layout interleaves so1 records in topological order), so it
     is sorted on both sides *)
  let canonical (t : Trace.t) =
    encode { t with Trace.so1 = List.sort compare t.Trace.so1 }
  in
  String.equal (canonical a) (canonical b)

(* -- split (per-processor) trace files ------------------------------- *)

(* The single-file format is already line-oriented with self-describing
   records, so the split encoding reuses it: each processor file carries
   that processor's event lines under the same header, and the sync file
   carries everything else.  [read_dir] decodes the sync file (header
   first) and then each processor file through one decoder, so errors
   name the file they came from.  Split directories are always written
   at format v1: the v2 cumulative epoch runs over a single byte stream,
   which a per-processor split has no meaningful order for. *)

let proc_file dir p = Filename.concat dir (Printf.sprintf "proc%d.trace" p)
let sync_file dir = Filename.concat dir "sync.trace"

let write_dir dir (t : Trace.t) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let full = encode t in
  let lines = String.split_on_char '\n' full in
  let is_event_of p l =
    match String.split_on_char ' ' l with
    | "event" :: _ :: "proc" :: q :: _ -> int_of_string_opt q = Some p
    | _ -> false
  in
  let write path keep =
    let oc = open_out path in
    List.iter
      (fun l -> if keep l then (output_string oc l; output_char oc '\n'))
      lines;
    close_out oc
  in
  for p = 0 to t.Trace.n_procs - 1 do
    write (proc_file dir p) (is_event_of p)
  done;
  let is_any_event l =
    match String.split_on_char ' ' l with "event" :: _ -> true | _ -> false
  in
  write (sync_file dir) (fun l -> l <> "" && not (is_any_event l))

let read_dir dir =
  let d = decoder () in
  let b = builder () in
  let read_into path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | text ->
      (try
         List.iteri
           (fun i line ->
             match decode_record d ~lineno:(i + 1) line with
             | None -> ()
             | Some r -> builder_add b r)
           (String.split_on_char '\n' text);
         Ok ()
       with Parse msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  (* the header must come first; event records may follow in any order *)
  match read_into (sync_file dir) with
  | Error _ as e -> e
  | Ok () ->
    (match d.dsizes with
     | None -> Error (Printf.sprintf "%s: missing procs header" (sync_file dir))
     | Some s ->
       let rec procs p =
         if p >= s.n_procs then
           (try Ok (builder_finish b)
            with Parse msg -> Error (Printf.sprintf "%s: %s" dir msg))
         else
           match read_into (proc_file dir p) with
           | Error _ as e -> e
           | Ok () -> procs (p + 1)
       in
       procs 0)
