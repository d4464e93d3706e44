module Ast = Minilang.Ast
module Interp = Minilang.Interp
module Exec = Memsim.Exec
module Model = Memsim.Model
module Robust = Staticcheck.Robust
module Absint = Staticcheck.Absint
module Delayset = Staticcheck.Delayset

(* Robustness verification, static-first:

   1. the static pass ({!Staticcheck.Robust}) classifies every critical
      cycle's feasibility under the variant — no feasible cycle and no
      coherence hazard proves ROBUST without running anything;
   2. programs with feasible cycles go to a candidate-directed DPOR
      closure: explore the weak-model decision space, preferring the
      processors on feasible cycles, stopping at the first execution the
      SC pool cannot explain.  That execution is greedily minimized and
      emitted as a replay-verified v2 witness — NOT-ROBUST;
   3. a complete, stop-free exploration proves ROBUST dynamically; a
      budget hit or an SC pool that does not enumerate is UNKNOWN. *)

type witness = Witness.t

type verdict =
  | Robust_verdict of [ `Static | `Dynamic ]
  | Not_robust of witness
  | Unknown of string

type t = {
  program : Ast.program;
  model : Model.t;
  static_ : Robust.t;
  frontier : Robust.frontier_entry list;
  verdict : verdict;
  sc_behaviours : int;  (** distinct SC behaviours in the pool; 0 if unbuilt *)
  schedules : int;  (** weak schedules explored by the closure *)
}

(* bias exploration toward the processors that can actually realize a
   feasible cycle (or a bypass hazard) — the Triage discipline *)
let preferred_procs (s : Robust.t) =
  let ds = s.Robust.ds in
  let procs = Hashtbl.create 8 in
  List.iter
    (fun (cv : Robust.cycle_verdict) ->
      Array.iter
        (fun i ->
          Hashtbl.replace procs
            (Delayset.access ds i).Absint.proc ())
        cv.Robust.c_cycle)
    (Robust.feasible_cycles s);
  List.iter
    (fun (h : Robust.hazard) ->
      Hashtbl.replace procs (Delayset.access ds h.Robust.h_write).Absint.proc ())
    s.Robust.hazards;
  Hashtbl.fold (fun p () acc -> p :: acc) procs [] |> List.sort compare

let run ?(max_steps = 2_000) ?(limit = 100_000) ?(sc_limit = 100_000)
    ?witness_path ~model (p : Ast.program) =
  let variant = Model.variant model in
  let static_ = Robust.analyze variant p in
  let frontier = Robust.frontier static_.Robust.results static_.Robust.ds in
  let finish verdict ~sc_behaviours ~schedules =
    { program = p; model; static_; frontier; verdict; sc_behaviours; schedules }
  in
  if static_.Robust.robust then
    finish (Robust_verdict `Static) ~sc_behaviours:0 ~schedules:0
  else
    match Scpool.build ~limit:sc_limit p with
    | Error msg -> finish (Unknown msg) ~sc_behaviours:0 ~schedules:0
    | Ok pool ->
      let sc_behaviours = Scpool.size pool in
      let mk () = Interp.source p in
      let r =
        Dpor.explore ~max_steps ~limit
          ~prefer:(preferred_procs static_)
          ~stop:(fun e -> not (Scpool.explainable pool e))
          ~model mk
      in
      let schedules = r.Dpor.schedules in
      if r.Dpor.stopped then begin
        let bad = List.nth r.Dpor.executions (r.Dpor.schedules - 1) in
        let sched, min_exec, () =
          Witness.minimize ~model mk bad.Exec.schedule ~violates:(fun e ->
              if Scpool.explainable pool e then None else Some ())
        in
        finish
          (Not_robust (Witness.make ~model mk ?path:witness_path sched min_exec))
          ~sc_behaviours ~schedules
      end
      else if r.Dpor.complete then
        finish (Robust_verdict `Dynamic) ~sc_behaviours ~schedules
      else
        finish
          (Unknown
             (Printf.sprintf
                "exploration budget hit after %d schedule(s) with no non-SC \
                 execution found"
                schedules))
          ~sc_behaviours ~schedules

(* A witness must have verified for NOT-ROBUST to be trusted; treat a
   failed verification as an internal error (exit 1 via cmdliner). *)
let exit_code t =
  match t.verdict with
  | Robust_verdict _ -> 0
  | Not_robust w -> if w.Witness.verified = Ok () then 2 else 1
  | Unknown _ -> 3

(* -- rendering --------------------------------------------------------- *)

let verdict_str t =
  match t.verdict with
  | Robust_verdict `Static -> "ROBUST (static)"
  | Robust_verdict `Dynamic -> "ROBUST (dynamic)"
  | Not_robust _ -> "NOT ROBUST"
  | Unknown _ -> "UNKNOWN"

let pp_witness ppf (w : witness) =
  Format.fprintf ppf
    "non-SC witness: %d-step schedule, %d operation(s) performed%a"
    (List.length w.Witness.schedule)
    (Exec.n_ops w.Witness.exec) Witness.pp_verification w

let pp ?(explain = false) ppf t =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "robustness of %s under %s: %s@," t.program.Ast.name
    (Model.name t.model) (verdict_str t);
  if explain then Format.fprintf ppf "%a" Robust.pp_explain t.static_
  else Format.fprintf ppf "  %a@," Robust.pp t.static_;
  (match t.verdict with
  | Robust_verdict `Static -> ()
  | Robust_verdict `Dynamic ->
    Format.fprintf ppf
      "  dynamic closure: %d schedule(s) explored exhaustively, every \
       behaviour explained by the %d-behaviour SC pool@,"
      t.schedules t.sc_behaviours
  | Not_robust w ->
    Format.fprintf ppf "  dynamic closure: %d schedule(s) explored@,  %a@,"
      t.schedules pp_witness w
  | Unknown msg -> Format.fprintf ppf "  dynamic closure: %s@," msg);
  Format.fprintf ppf "%a" Robust.pp_frontier t.frontier;
  Format.pp_close_box ppf ()
