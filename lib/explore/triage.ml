module Exec = Memsim.Exec
module Model = Memsim.Model
module Op = Memsim.Op
module Absdom = Staticcheck.Absdom
module Absint = Staticcheck.Absint
module Candidates = Staticcheck.Candidates
module Lint = Staticcheck.Lint
module Postmortem = Racedetect.Postmortem
module Race = Racedetect.Race
module Trace = Tracing.Trace
module Event = Tracing.Event

type status = Confirmed | Refuted | Unknown

type witness = {
  schedule : Exec.decision list;
  exec : Exec.t;
  analysis : Postmortem.analysis;
  race : Race.t;
}

type verdict = {
  pair : Candidates.pair;
  status : status;
  witness : witness option;
  schedules : int;
  complete : bool;
}

type report = {
  program : Minilang.Ast.program;
  lint : Lint.report;
  model : Model.t;
  max_steps : int;
  limit : int;
  data : verdict list;
  sync : verdict list;
}

(* -- matching a dynamic race against a static candidate ---------------- *)

let ops_of_event (e : Event.t) =
  match e.Event.body with
  | Event.Computation { ops; _ } -> ops
  | Event.Sync { op; _ } -> [ op ]

let label_ok (a : string option) (b : string option) =
  match (a, b) with Some x, Some y -> x = y | _ -> true

(* An operation realizes a static access when it was issued by the same
   processor, has the same kind and class, its address lies in the
   access's abstract address set, and the static program labels agree
   when both sides carry one.  For a race match the address must
   additionally lie in the candidate's conflict set and be one of the
   race's conflicting locations. *)
let op_matches (acc : Absint.access) ~pair_locs ~race_locs (op : Op.t) =
  op.Op.proc = acc.Absint.proc
  && op.Op.kind = acc.Absint.kind
  && op.Op.cls = acc.Absint.cls
  && Absdom.contains acc.Absint.addr op.Op.loc
  && Absdom.contains pair_locs op.Op.loc
  && List.mem op.Op.loc race_locs
  && label_ok acc.Absint.label op.Op.label

let match_race (pair : Candidates.pair) (a : Postmortem.analysis) =
  let events = a.Postmortem.trace.Trace.events in
  let side acc (r : Race.t) eid =
    List.exists
      (op_matches acc ~pair_locs:pair.Candidates.locs ~race_locs:r.Race.locs)
      (ops_of_event events.(eid))
  in
  List.find_opt
    (fun (r : Race.t) ->
      (side pair.Candidates.a r r.Race.a && side pair.Candidates.b r r.Race.b)
      || (side pair.Candidates.a r r.Race.b && side pair.Candidates.b r r.Race.a))
    a.Postmortem.races

(* -- triage of one candidate ------------------------------------------- *)

let triage_pair ?(max_steps = 400) ?(limit = 2_000) ~model mk
    (pair : Candidates.pair) =
  let confirms e =
    match_race pair (Postmortem.analyze_execution e) <> None
  in
  let res =
    Dpor.explore ~max_steps ~limit
      ~prefer:[ pair.Candidates.a.Absint.proc; pair.Candidates.b.Absint.proc ]
      ~stop:confirms ~model mk
  in
  if res.Dpor.stopped then begin
    (* the stop predicate fired on the last recorded execution *)
    let full = List.nth res.Dpor.executions (res.Dpor.schedules - 1) in
    (* the shortest confirming prefix: a race in a prefix is a race of
       every extension (hb1 only gains events) *)
    let schedule, exec, (analysis, race) =
      Witness.minimize ~model mk full.Exec.schedule ~violates:(fun exec ->
          let analysis = Postmortem.analyze_execution exec in
          Option.map (fun race -> (analysis, race)) (match_race pair analysis))
    in
    {
      pair;
      status = Confirmed;
      witness = Some { schedule; exec; analysis; race };
      schedules = res.Dpor.schedules;
      complete = false;
    }
  end
  else
    {
      pair;
      status = (if res.Dpor.complete then Refuted else Unknown);
      witness = None;
      schedules = res.Dpor.schedules;
      complete = res.Dpor.complete;
    }

(* -- whole-program runs ------------------------------------------------- *)

let run ?(max_steps = 400) ?(limit = 2_000) ?(sync = false) ?jobs
    ?(model = Model.SC) program =
  let lint = Lint.analyze program in
  let mk () = Minilang.Interp.source program in
  let triage_all =
    Engine.Parbatch.map_list ?jobs (triage_pair ~max_steps ~limit ~model mk)
  in
  let data = triage_all lint.Lint.data_candidates in
  let sync_v = if sync then triage_all lint.Lint.sync_candidates else [] in
  { program; lint; model; max_steps; limit; data; sync = sync_v }

let exit_code r =
  if List.exists (fun v -> v.status = Confirmed) r.data then 2
  else if List.exists (fun v -> v.status = Unknown) (r.data @ r.sync) then 3
  else 0

(* -- witness files ------------------------------------------------------ *)

let write_witness r path w =
  Witness.verify ~model:r.model
    (fun () -> Minilang.Interp.source r.program)
    ~path w.schedule w.exec

(* -- rendering ----------------------------------------------------------- *)

let status_name = function
  | Confirmed -> "CONFIRMED"
  | Refuted -> "REFUTED"
  | Unknown -> "UNKNOWN"

let pp_verdict p ppf v =
  Format.fprintf ppf "[%s] %a" (status_name v.status) (Lint.pp_pair p) v.pair;
  match v.status with
  | Confirmed ->
    let w = Option.get v.witness in
    Format.fprintf ppf "@,  witness: %d-step schedule, found after %d schedule(s)"
      (List.length w.schedule) v.schedules
  | Refuted ->
    Format.fprintf ppf "@,  complete exploration: %d schedule(s), no race on this pair"
      v.schedules
  | Unknown ->
    Format.fprintf ppf "@,  bounds hit after %d schedule(s); inconclusive"
      v.schedules

let count st vs = List.length (List.filter (fun v -> v.status = st) vs)

let pp ppf r =
  let p = r.program in
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf
    "triage of %s under %s: %d data candidate(s), %d sync-sync candidate(s)"
    p.Minilang.Ast.name (Model.name r.model)
    (List.length r.lint.Lint.data_candidates)
    (List.length r.lint.Lint.sync_candidates);
  List.iter (fun v -> Format.fprintf ppf "@,%a" (pp_verdict p) v) r.data;
  if r.sync <> [] then begin
    Format.fprintf ppf "@,sync-sync pairs (informational):";
    List.iter (fun v -> Format.fprintf ppf "@,%a" (pp_verdict p) v) r.sync
  end;
  Format.fprintf ppf "@,summary: %d confirmed, %d refuted, %d unknown"
    (count Confirmed r.data) (count Refuted r.data)
    (count Unknown (r.data @ r.sync));
  Format.pp_close_box ppf ()
