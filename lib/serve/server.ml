module Reader = Racedetect.Stream.Reader

type addr =
  | Unix_sock of string
  | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" (if h = "" then "127.0.0.1" else h) p

let parse_addr s =
  match String.index_opt s ':' with
  | None ->
    (match int_of_string_opt s with
     | Some p when p >= 0 -> Ok (Tcp ("", p))
     | _ -> Ok (Unix_sock s))
  | Some i ->
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match scheme with
     | "unix" -> if rest = "" then Error "unix: needs a path" else Ok (Unix_sock rest)
     | "tcp" ->
       (match String.rindex_opt rest ':' with
        | None ->
          (match int_of_string_opt rest with
           | Some p when p >= 0 -> Ok (Tcp ("", p))
           | _ -> Error (Printf.sprintf "tcp: bad port %S" rest))
        | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          (match int_of_string_opt port with
           | Some p when p >= 0 -> Ok (Tcp (host, p))
           | _ -> Error (Printf.sprintf "tcp: bad port %S" port)))
     | _ -> Ok (Unix_sock s) (* a bare path with a colon in it *))

type config = {
  addr : addr;
  shards : int;
  max_sessions : int;
  global_live : int option;
  session_max_live : int option;
  idle_timeout : float;
  session_timeout : float;
  finish_timeout : float;
  checkpoint_dir : string option;
  checkpoint_every : int;
  resume : bool;
  log : string -> unit;
  ready : string -> unit;
}

let default_config addr =
  {
    addr;
    shards = 2;
    max_sessions = 64;
    global_live = None;
    session_max_live = None;
    idle_timeout = 30.;
    session_timeout = 0.;
    finish_timeout = 30.;
    checkpoint_dir = None;
    checkpoint_every = 64;
    resume = false;
    log = (fun _ -> ());
    ready = (fun _ -> ());
  }

(* -- shared state ---------------------------------------------------- *)

(* Per-session stats row for the metrics snapshot.  A single shard
   writes each row; metrics render reads them racily (int stores are
   atomic words, so a row is at worst slightly stale, never torn). *)
type row = {
  r_id : string;
  r_shard : int;
  mutable r_events : int;
  mutable r_live : int;
  mutable r_consumed : int;
  mutable r_ckpt_events : int;
  mutable r_ckpt_consumed : int;
}

type shared = {
  cfg : config;
  metrics : Metrics.t;
  stop : bool Atomic.t;
  mu : Mutex.t;                           (* guards the three tables below *)
  active : (string, unit) Hashtbl.t;      (* session ids currently streaming *)
  parked : (string, string) Hashtbl.t;    (* session id -> checkpoint path *)
  rows : (string, row) Hashtbl.t;
}

let locked sh f =
  Mutex.lock sh.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mu) f

(* Everything the serve checkpoint needs to resume a session: the id
   (sanity-checked against the filename on restore), the salvage codec
   state, and the count of trace bytes consumed — the client resends
   from that offset. *)
type ckpt_extra = string * Tracing.Codec.Salvage.t * int

let ckpt_path sh id =
  match sh.cfg.checkpoint_dir with
  | None -> None
  | Some dir -> Some (Filename.concat dir (id ^ ".ckpt"))

(* -- per-connection state -------------------------------------------- *)

(* A session is a salvage reader; the events and bytes it had consumed
   at its last checkpoint are kept in its metrics row. *)
type session = {
  id : string;
  reader : Reader.t;
  row : row;
  mutable marks_at_ckpt : int; (* the reader's epoch marks at that checkpoint *)
  mutable last_live : int;
}

type phase =
  | Hello of Buffer.t
  | Streaming of session
  | Draining

type conn = {
  fd : Unix.file_descr;
  opened : float;
  mutable last_activity : float;
  mutable phase : phase;
  mutable out : string;
  mutable out_pos : int;
  mutable closed : bool;
}

let now () = Unix.gettimeofday ()

let seen s = Racedetect.Stream.seen_events (Reader.engine s.reader)

(* -- the shard loop -------------------------------------------------- *)

type shard = {
  sh : shared;
  index : int;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
}

let queue_out c s =
  if not c.closed then begin
    if c.out_pos > 0 then begin
      c.out <- String.sub c.out c.out_pos (String.length c.out - c.out_pos);
      c.out_pos <- 0
    end;
    c.out <- c.out ^ s
  end

(* The connection is done streaming: its session, if any, leaves the
   active table and the gauges (a parked checkpoint stays on disk), and
   only the queued output is left to drain. *)
let release shard c =
  (match c.phase with
   | Streaming s ->
     let sh = shard.sh in
     Atomic.decr sh.metrics.Metrics.sessions_active;
     ignore (Atomic.fetch_and_add sh.metrics.Metrics.live_events (-s.last_live));
     locked sh (fun () ->
         Hashtbl.remove sh.active s.id;
         Hashtbl.remove sh.rows s.id)
   | _ -> ());
  c.phase <- Draining

let close_conn shard c =
  if not c.closed then begin
    c.closed <- true;
    release shard c;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end

(* Best-effort synchronous flush used on shutdown paths: give the peer
   a short, bounded chance to take the final bytes. *)
let flush_best_effort c =
  let deadline = now () +. 0.5 in
  let rec go () =
    let n = String.length c.out - c.out_pos in
    if n > 0 && now () < deadline then
      match Unix.select [] [ c.fd ] [] 0.1 with
      | [], [], [] -> go ()
      | _ ->
        (match Unix.write_substring c.fd c.out c.out_pos n with
         | 0 -> ()
         | w ->
           c.out_pos <- c.out_pos + w;
           go ()
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go ()
         | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ()
  in
  go ()

let update_counters shard s =
  let sh = shard.sh in
  let seen = seen s in
  let live = Racedetect.Stream.live_events (Reader.engine s.reader) in
  ignore (Atomic.fetch_and_add sh.metrics.Metrics.events_total (seen - s.row.r_events));
  ignore (Atomic.fetch_and_add sh.metrics.Metrics.live_events (live - s.last_live));
  s.last_live <- live;
  s.row.r_events <- seen;
  s.row.r_live <- live;
  s.row.r_consumed <- Reader.offset s.reader;
  if sh.cfg.checkpoint_dir <> None then
    Metrics.max_hwm sh.metrics.Metrics.ckpt_lag_hwm (seen - s.row.r_ckpt_events)

let save_checkpoint shard s =
  match (ckpt_path shard.sh s.id, Reader.codec s.reader) with
  | Some path, Racedetect.Stream.Salvage sal ->
    let sh = shard.sh in
    (try
       Racedetect.Stream.checkpoint ~kind:"serve" path (Reader.engine s.reader)
         ~extra:((s.id, sal, Reader.offset s.reader) : ckpt_extra);
       s.row.r_ckpt_events <- seen s;
       s.row.r_ckpt_consumed <- Reader.offset s.reader;
       s.marks_at_ckpt <- Reader.marks s.reader;
       Atomic.incr sh.metrics.Metrics.checkpoints
     with Sys_error msg ->
       sh.cfg.log (Printf.sprintf "session %s: checkpoint failed: %s" s.id msg))
  | _ -> () (* no checkpoint dir; sessions are always salvage readers *)

let maybe_checkpoint shard s =
  if shard.sh.cfg.checkpoint_dir <> None then begin
    let marks = Reader.marks s.reader in
    (* align to epoch marks when the input has them (v2); fall back to a
       raw event quota for v1 streams *)
    if seen s - s.row.r_ckpt_events >= shard.sh.cfg.checkpoint_every
       && (marks > s.marks_at_ckpt || marks = 0)
    then save_checkpoint shard s
  end

(* Park a session: persist it and remember the checkpoint file so a
   reconnect with the same id resumes from disk.  The engine memory is
   released when the connection record is dropped. *)
let park shard s =
  match ckpt_path shard.sh s.id with
  | None -> ()
  | Some path ->
    save_checkpoint shard s;
    if Sys.file_exists path then
      locked shard.sh (fun () -> Hashtbl.replace shard.sh.parked s.id path)

let count_outcome sh (o : Protocol.outcome) =
  let m = sh.metrics in
  Atomic.incr m.Metrics.completed;
  match o with
  | Protocol.Analyzed (Racedetect.Postmortem.Race_free _, _) ->
    Atomic.incr m.Metrics.race_free
  | Protocol.Analyzed (Racedetect.Postmortem.Races _, _) -> Atomic.incr m.Metrics.racy
  | Protocol.Analyzed (Racedetect.Postmortem.Degraded _, _) ->
    Atomic.incr m.Metrics.degraded
  | Protocol.Shed _ -> Atomic.incr m.Metrics.shed
  | Protocol.Aborted _ -> Atomic.incr m.Metrics.aborted
  | Protocol.Failed _ -> Atomic.incr m.Metrics.errors

let respond shard c (o : Protocol.outcome) =
  let report = Protocol.outcome_report o in
  queue_out c
    (Printf.sprintf "%s\nreport %d\n%s" (Protocol.verdict_line o)
       (String.length report) report);
  count_outcome shard.sh o;
  release shard c

(* Run the final analysis, under the shard's wall-clock budget when one
   is configured — a wedged finish burns an abandoned domain, not the
   shard. *)
let finish_session shard c s =
  let work () = Reader.close s.reader in
  let outcome =
    match
      if shard.sh.cfg.finish_timeout > 0. then
        Engine.Parbatch.run_timeout ~timeout:shard.sh.cfg.finish_timeout work
      else Ok (work ())
    with
    (* the worker domain is joined on both Ok branches, so reading the
       engine here is safe; on timeout it may still be mutating and must
       not be touched again *)
    | Ok (Ok (v, _stats)) ->
      update_counters shard s;
      Protocol.Analyzed (v, seen s)
    | Ok (Error msg) ->
      update_counters shard s;
      Protocol.Failed msg
    | Error `Timeout -> Protocol.Aborted "analysis-timeout"
    | exception e -> Protocol.Failed (Printexc.to_string e)
  in
  (* a finished session needs no resume file *)
  (match ckpt_path shard.sh s.id with
   | Some path when (match outcome with Protocol.Analyzed _ -> true | _ -> false) ->
     (try Sys.remove path with Sys_error _ -> ());
     locked shard.sh (fun () -> Hashtbl.remove shard.sh.parked s.id)
   | _ -> ());
  respond shard c outcome

let abort_session shard c s ~park_it reason =
  if park_it then park shard s;
  respond shard c (Protocol.Aborted reason)

let shed_session shard c s reason =
  park shard s;
  shard.sh.cfg.log
    (Printf.sprintf "shard %d: shedding session %s (%s)" shard.index s.id reason);
  respond shard c (Protocol.Shed reason)

(* -- session establishment ------------------------------------------- *)

let start_session shard c id =
  let sh = shard.sh in
  let dup = locked sh (fun () -> Hashtbl.mem sh.active id) in
  if dup then begin
    queue_out c (Printf.sprintf "err duplicate session %s\n" id);
    c.phase <- Draining
  end
  else begin
    let adopt =
      match locked sh (fun () -> Hashtbl.find_opt sh.parked id) with
      | None -> None
      | Some path ->
        let fresh why =
          sh.cfg.log (Printf.sprintf "session %s: %s; starting fresh" id why);
          (try Sys.remove path with Sys_error _ -> ());
          locked sh (fun () -> Hashtbl.remove sh.parked id);
          None
        in
        (match
           (Racedetect.Stream.restore ~kind:"serve" path
             : (Racedetect.Stream.t * ckpt_extra, string) result)
         with
         | Ok (engine, (id', sal, consumed)) when id' = id ->
           Some (Reader.of_parts engine (Racedetect.Stream.Salvage sal) ~offset:consumed)
         | Ok _ -> fresh (Printf.sprintf "checkpoint %s names another session" path)
         | Error msg -> fresh msg)
    in
    let reader =
      match adopt with
      | Some r -> r
      | None -> Reader.create ?max_live:sh.cfg.session_max_live ~salvage:true ()
    in
    let resumed = Option.is_some adopt in
    let events = Racedetect.Stream.seen_events (Reader.engine reader) in
    let live = Racedetect.Stream.live_events (Reader.engine reader) in
    let consumed = Reader.offset reader in
    let row =
      {
        r_id = id;
        r_shard = shard.index;
        r_events = events;
        r_live = live;
        r_consumed = consumed;
        r_ckpt_events = events;
        r_ckpt_consumed = consumed;
      }
    in
    let s = { id; reader; row; marks_at_ckpt = 0; last_live = live } in
    locked sh (fun () ->
        Hashtbl.replace sh.active id ();
        Hashtbl.replace sh.rows id row);
    Atomic.incr sh.metrics.Metrics.sessions_active;
    Atomic.incr sh.metrics.Metrics.sessions_total;
    if resumed then begin
      Atomic.incr sh.metrics.Metrics.sessions_resumed;
      ignore (Atomic.fetch_and_add sh.metrics.Metrics.live_events s.last_live)
    end;
    c.phase <- Streaming s;
    queue_out c (Printf.sprintf "ok %d\n" consumed)
  end

let metrics_snapshot sh =
  let extra =
    locked sh (fun () ->
        let rows =
          Hashtbl.fold
            (fun _ r acc ->
              Printf.sprintf
                "session %s shard %d state streaming events %d live %d consumed %d ckpt_events %d ckpt_consumed %d"
                r.r_id r.r_shard r.r_events r.r_live r.r_consumed r.r_ckpt_events
                r.r_ckpt_consumed
              :: acc)
            sh.rows []
        in
        let parked =
          Hashtbl.fold
            (fun id _ acc -> Printf.sprintf "session %s state parked" id :: acc)
            sh.parked []
        in
        List.sort compare (rows @ parked))
  in
  Metrics.render sh.metrics ~extra

(* -- reading --------------------------------------------------------- *)

let feed_session shard c s data =
  let sh = shard.sh in
  ignore (Atomic.fetch_and_add sh.metrics.Metrics.bytes_in (String.length data));
  match Reader.feed s.reader data with
  | Error msg ->
    update_counters shard s;
    respond shard c (Protocol.Failed msg)
  | Ok () ->
    update_counters shard s;
    maybe_checkpoint shard s;
    (* the trace is fully delivered: answer without waiting for the
       client to half-close *)
    if Reader.complete s.reader then finish_session shard c s

let handle_hello shard c line rest =
  match Protocol.parse_hello line with
  | Error msg ->
    queue_out c (Printf.sprintf "err %s\n" msg);
    c.phase <- Draining
  | Ok Protocol.Metrics ->
    queue_out c (metrics_snapshot shard.sh);
    c.phase <- Draining
  | Ok Protocol.Stop ->
    queue_out c "ok stopping\n";
    c.phase <- Draining;
    shard.sh.cfg.log (Printf.sprintf "shard %d: stop requested over the wire" shard.index);
    Atomic.set shard.sh.stop true
  | Ok (Protocol.Session id) ->
    start_session shard c id;
    (match c.phase with
     | Streaming s when rest <> "" -> feed_session shard c s rest
     | _ -> ())

let handle_read shard c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
    (* connection reset: finish a streaming session with what arrived *)
    (match c.phase with
     | Streaming s -> finish_session shard c s
     | _ -> ());
    close_conn shard c
  | 0 ->
    (match c.phase with
     | Streaming s -> finish_session shard c s
     | Hello _ -> close_conn shard c
     | Draining -> ())
  | n ->
    c.last_activity <- now ();
    let data = Bytes.sub_string buf 0 n in
    (match c.phase with
     | Streaming s -> feed_session shard c s data
     | Hello hb ->
       Buffer.add_string hb data;
       let all = Buffer.contents hb in
       (match String.index_opt all '\n' with
        | Some i ->
          let line = String.sub all 0 i in
          let rest = String.sub all (i + 1) (String.length all - i - 1) in
          handle_hello shard c line rest
        | None ->
          if Buffer.length hb > 256 then begin
            queue_out c "err hello line too long\n";
            c.phase <- Draining
          end)
     | Draining -> ())

let handle_write shard c =
  let n = String.length c.out - c.out_pos in
  if n > 0 then
    match Unix.write_substring c.fd c.out c.out_pos n with
    | w ->
      c.out_pos <- c.out_pos + w;
      if w > 0 then c.last_activity <- now ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn shard c

(* -- budgets and timeouts -------------------------------------------- *)

let streaming_conns shard =
  List.filter_map
    (fun c ->
      match c.phase with
      | Streaming s when not c.closed -> Some (c, s)
      | _ -> None)
    shard.conns

let shed_check shard =
  let sh = shard.sh in
  let over_sessions () =
    Atomic.get sh.metrics.Metrics.sessions_active > sh.cfg.max_sessions
  in
  let over_live () =
    match sh.cfg.global_live with
    | None -> false
    | Some b -> Atomic.get sh.metrics.Metrics.live_events > b
  in
  let rec go () =
    let reason =
      if over_sessions () then Some "max-sessions"
      else if over_live () then Some "live-budget"
      else None
    in
    match reason with
    | None -> ()
    | Some reason ->
      (* shed this shard's least-recently-active session; other shards
         do the same, so the global budget converges within a tick *)
      (match
         List.sort
           (fun (a, _) (b, _) -> Float.compare a.last_activity b.last_activity)
           (streaming_conns shard)
       with
       | [] -> ()
       | (c, s) :: _ ->
         shed_session shard c s reason;
         go ())
  in
  go ()

let timeout_check shard =
  let t = now () in
  let cfg = shard.sh.cfg in
  List.iter
    (fun c ->
      if not c.closed then
        match c.phase with
        | Streaming s ->
          if cfg.idle_timeout > 0. && t -. c.last_activity > cfg.idle_timeout then
            abort_session shard c s ~park_it:(cfg.checkpoint_dir <> None) "idle-timeout"
          else if cfg.session_timeout > 0. && t -. c.opened > cfg.session_timeout then
            abort_session shard c s ~park_it:(cfg.checkpoint_dir <> None)
              "session-timeout"
        | Hello _ ->
          if cfg.idle_timeout > 0. && t -. c.last_activity > cfg.idle_timeout then
            close_conn shard c
        | Draining ->
          (* a peer that never reads its response must not pin the fd *)
          let cap = if cfg.idle_timeout > 0. then cfg.idle_timeout else 30. in
          if t -. c.last_activity > cap then close_conn shard c)
    shard.conns

(* -- shard main loop ------------------------------------------------- *)

let accept_loop shard =
  let rec go () =
    match Unix.accept ~cloexec:true shard.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let t = now () in
      shard.conns <-
        { fd; opened = t; last_activity = t; phase = Hello (Buffer.create 64);
          out = ""; out_pos = 0; closed = false }
        :: shard.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let shutdown_shard shard =
  List.iter
    (fun c ->
      if not c.closed then begin
        (match c.phase with
         | Streaming s ->
           if shard.sh.cfg.checkpoint_dir <> None then begin
             park shard s;
             (* parked, not aborted: the client resumes after restart *)
             release shard c
           end
           else abort_session shard c s ~park_it:false "shutdown"
         | _ -> ());
        flush_best_effort c;
        close_conn shard c
      end)
    shard.conns;
  shard.conns <- []

let shard_loop sh index listen_fd =
  let shard = { sh; index; listen_fd; conns = [] } in
  let rec loop () =
    if Atomic.get sh.stop then shutdown_shard shard
    else begin
      shed_check shard;
      timeout_check shard;
      shard.conns <- List.filter (fun c -> not c.closed) shard.conns;
      let want_read c =
        match c.phase with Hello _ | Streaming _ -> not c.closed | Draining -> false
      in
      let rds =
        listen_fd :: List.filter_map (fun c -> if want_read c then Some c.fd else None) shard.conns
      in
      let wrs =
        List.filter_map
          (fun c ->
            if (not c.closed) && c.out_pos < String.length c.out then Some c.fd
            else None)
          shard.conns
      in
      let r, w =
        match Unix.select rds wrs [] 0.2 with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      if List.memq listen_fd r then accept_loop shard;
      List.iter
        (fun c ->
          if (not c.closed) && List.memq c.fd r then
            (try handle_read shard c
             with e ->
               (* fault isolation: an unexpected exception kills this
                  session, never the shard *)
               sh.cfg.log
                 (Printf.sprintf "shard %d: session handler raised %s" index
                    (Printexc.to_string e));
               Atomic.incr sh.metrics.Metrics.errors;
               close_conn shard c))
        shard.conns;
      List.iter
        (fun c -> if (not c.closed) && List.memq c.fd w then handle_write shard c)
        shard.conns;
      (* drained responses: close once everything is written *)
      List.iter
        (fun c ->
          match c.phase with
          | Draining when (not c.closed) && c.out_pos >= String.length c.out ->
            close_conn shard c
          | _ -> ())
        shard.conns;
      loop ()
    end
  in
  loop ()

(* -- startup --------------------------------------------------------- *)

let bind_listener cfg =
  match cfg.addr with
  | Unix_sock path ->
    if String.length path > 100 then
      Error (Printf.sprintf "%s: unix socket path too long (%d > 100 bytes)" path
               (String.length path))
    else begin
      (match Unix.stat path with
       | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
       | _ -> ()
       | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 128;
         Unix.set_nonblock fd;
         Ok (fd, Printf.sprintf "unix:%s" path)
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
    end
  | Tcp (host, port) ->
    let inet =
      if host = "" then Ok Unix.inet_addr_loopback
      else
        match Unix.inet_addr_of_string host with
        | a -> Ok a
        | exception Failure _ ->
          (match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
           | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> Ok a
           | _ -> Error (Printf.sprintf "cannot resolve host %S" host))
    in
    (match inet with
     | Error _ as e -> e
     | Ok inet ->
       let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (inet, port));
          Unix.listen fd 128;
          Unix.set_nonblock fd;
          let bound =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (a, p) ->
              Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
            | _ -> Printf.sprintf "tcp:%s:%d" host port
          in
          Ok (fd, bound)
        with Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "tcp %s:%d: %s" (if host = "" then "127.0.0.1" else host)
               port (Unix.error_message e))))

let scan_checkpoints sh dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ckpt" then begin
          let id = Filename.chop_suffix f ".ckpt" in
          if Protocol.valid_session_id id then begin
            Hashtbl.replace sh.parked id (Filename.concat dir f);
            sh.cfg.log (Printf.sprintf "resume: parked session %s" id)
          end
        end)
      files;
    Ok ()

let run ?stop cfg =
  if cfg.shards < 1 then Error "serve: shards must be >= 1"
  else if cfg.max_sessions < 1 then Error "serve: max-sessions must be >= 1"
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop = match stop with Some s -> s | None -> Atomic.make false in
    let sh =
      {
        cfg;
        metrics = Metrics.create ();
        stop;
        mu = Mutex.create ();
        active = Hashtbl.create 64;
        parked = Hashtbl.create 64;
        rows = Hashtbl.create 64;
      }
    in
    let setup =
      match cfg.checkpoint_dir with
      | None -> Ok ()
      | Some dir ->
        (match Tracing.Codec.ensure_dir dir with
         | Ok () -> if cfg.resume then scan_checkpoints sh dir else Ok ()
         | Error _ as e -> e)
    in
    match setup with
    | Error _ as e -> e
    | Ok () ->
      (match bind_listener cfg with
       | Error _ as e -> e
       | Ok (listen_fd, bound) ->
         cfg.log (Printf.sprintf "listening on %s (%d shard(s))" bound cfg.shards);
         cfg.ready bound;
         let doms =
           Array.init (cfg.shards - 1) (fun i ->
               Domain.spawn (fun () -> shard_loop sh (i + 1) listen_fd))
         in
         shard_loop sh 0 listen_fd;
         Array.iter Domain.join doms;
         (try Unix.close listen_fd with Unix.Unix_error _ -> ());
         (match cfg.addr with
          | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
          | Tcp _ -> ());
         cfg.log "stopped";
         Ok ())
  end
