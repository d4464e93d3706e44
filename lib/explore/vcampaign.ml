module Exec = Memsim.Exec
module Machine = Memsim.Machine
module Model = Memsim.Model
module Variant = Memsim.Variant
module Sched = Memsim.Sched
module Enumerate = Memsim.Enumerate
module Condition = Racedetect.Condition
module Ophb = Racedetect.Ophb

(* The hardware-variant campaign: sweep variant x stock-program x seed,
   assert per variant whether Condition 3.4 (the SC-prefix property up
   to the first race) is preserved, and separately whether fences
   actually order buffered writes.  Each violating variant gets a
   minimized breaking schedule emitted as a replayable v2 witness trace,
   re-verified through decode + re-analysis ({!Witness}). *)

type check = Cond34 | Fence_contract

type witness = {
  w_check : check;
  w_program : string;
  w_seed : int option;  (* None: found by envelope enumeration *)
  witness : Witness.t;
}

type prediction = { p_cond34 : bool; p_fence : bool }

type verdict = {
  v_name : string;
  v_model : Model.t;
  predicted : prediction;
  cond34_ok : bool;
  fence_ok : bool;
  cond34_runs : int;
  fence_runs : int;
  cond34_witness : witness option;
  fence_witness : witness option;
}

type report = { verdicts : verdict list; seeds : int; as_predicted : bool }

(* The lattice points under test: the six named models re-expressed as
   canonical variants, plus the named off-lattice points (bounded depth,
   stalling reads, and the three deliberately broken knobs). *)
let roster =
  List.map
    (fun m ->
      (String.lowercase_ascii (Model.name m), Model.Custom (Model.variant m)))
    Model.all
  @ List.map (fun (n, v) -> (n, Model.Custom v)) Variant.aliases

(* Spin-free stock programs whose SC pools enumerate completely, so
   Condition.check is exact. *)
let programs =
  Minilang.Programs.
    [
      fig1a;
      dekker;
      dekker_fenced;
      read_own_write;
      mp_data_flag;
      mp_release_acquire;
      handoff_update;
      guarded_handoff;
      unguarded_handoff;
      counter_racy;
      disjoint;
    ]

let fence_litmus = Minilang.Programs.dekker_fenced

let sc_pool p = Scpool.build_exn p

let sched_for seed =
  if seed mod 2 = 0 then Sched.adversarial ~seed () else Sched.random ~seed

(* -- prefix-aware SC-explainability ---------------------------------- *)

(* The index-free form lives in {!Scpool}; the campaign itself runs on
   indexed pools ({!Scpool.explainable}) so the per-seed checks do not
   re-hash the pool. *)
let prefix_explainable = Scpool.prefix_explainable

let race_free e = Ophb.data_races (Ophb.build e) = []

(* -- the sweep --------------------------------------------------------- *)

type cell = {
  c_variant : string;
  c_program : string;
  c_runs : int;
  c_violation : (int * Exec.t) option;  (* seed, first violating exec *)
}

let sweep_cell ~seeds ~pool (vname, model) (p : Minilang.Ast.program) =
  let mk () = Minilang.Interp.source p in
  let violation = ref None in
  for seed = 0 to seeds - 1 do
    if !violation = None then begin
      let e = Machine.run ~model ~sched:(sched_for seed) (mk ()) in
      let v = Condition.check ~sc:(Scpool.executions pool) e in
      if not v.Condition.holds then violation := Some (seed, e)
    end
  done;
  {
    c_variant = vname;
    c_program = p.Minilang.Ast.name;
    c_runs = seeds;
    c_violation = !violation;
  }

let fence_envelope model =
  let mk () = Minilang.Interp.source fence_litmus in
  let r = Enumerate.explore_weak ~limit:2_000_000 ~model mk in
  if not r.Enumerate.complete then
    invalid_arg "Vcampaign: fence litmus envelope did not enumerate completely";
  r.Enumerate.executions

let run ?(seeds = 16) ?jobs ?witness_dir () =
  let pools = List.map (fun p -> (p.Minilang.Ast.name, sc_pool p)) programs in
  let pool_of p = List.assoc p.Minilang.Ast.name pools in
  let fence_pool = pool_of fence_litmus in
  (* variant x program cells, fanned out on the domain pool *)
  let cells =
    Engine.Parbatch.map_list ?jobs
      (fun ((vm, p) : (string * Model.t) * Minilang.Ast.program) ->
        sweep_cell ~seeds ~pool:(pool_of p) vm p)
      (List.concat_map (fun vm -> List.map (fun p -> (vm, p)) programs) roster)
  in
  (* fence-contract check: the whole envelope of the fenced litmus,
     exactly — a violation is any behaviour outside the SC set *)
  let fence_cells =
    Engine.Parbatch.map_list ?jobs
      (fun (vname, model) ->
        let execs = fence_envelope model in
        let bad =
          List.find_opt (fun e -> not (Scpool.explainable fence_pool e)) execs
        in
        (vname, List.length execs, bad))
      roster
  in
  let witness_path vname check =
    Option.map
      (fun dir ->
        Filename.concat dir
          (Printf.sprintf "%s-%s.trace" vname
             (match check with Cond34 -> "cond34" | Fence_contract -> "fence")))
      witness_dir
  in
  (* For a Condition 3.4 (clause 1) witness the minimized prefix must be
     race-free yet SC-inexplicable; a fence-contract witness only needs
     inexplicability (the fenced litmus races by design, Condition 3.4
     itself is not at stake). *)
  let make_witness ~check ~model ~require_racefree ~vname p seed exec =
    let mk () = Minilang.Interp.source p in
    let violates e =
      if
        (not (Scpool.explainable (pool_of p) e))
        && ((not require_racefree) || race_free e)
      then Some ()
      else None
    in
    let sched, min_exec, () =
      Witness.minimize ~model ~violates mk exec.Exec.schedule
    in
    {
      w_check = check;
      w_program = p.Minilang.Ast.name;
      w_seed = seed;
      witness =
        Witness.make ~model mk ?path:(witness_path vname check) sched min_exec;
    }
  in
  let verdicts =
    List.map
      (fun (vname, model) ->
        let v = Model.variant model in
        let predicted =
          {
            p_cond34 = Variant.preserves_condition v;
            p_fence = Variant.honors_fences v;
          }
        in
        let mine =
          List.filter (fun c -> c.c_variant = vname) cells
        in
        let cond34_runs =
          List.fold_left (fun a c -> a + c.c_runs) 0 mine
        in
        let first_violation =
          List.find_map
            (fun c ->
              Option.map
                (fun (seed, e) -> (c.c_program, seed, e))
                c.c_violation)
            mine
        in
        let cond34_witness =
          Option.map
            (fun (pname, seed, exec) ->
              let p = Option.get (Minilang.Programs.find pname) in
              (* clause-1 violations (race-free yet non-SC) minimize to a
                 race-free inexplicable prefix; a clause-2 violation has
                 no prefix criterion, so keep its full schedule *)
              let require_racefree = race_free exec in
              make_witness ~check:Cond34 ~model ~require_racefree ~vname p
                (Some seed) exec)
            first_violation
        in
        let vname', fence_runs, fence_bad =
          List.find (fun (n, _, _) -> n = vname) fence_cells
        in
        ignore vname';
        let fence_witness =
          Option.map
            (fun exec ->
              make_witness ~check:Fence_contract ~model ~require_racefree:false
                ~vname fence_litmus None exec)
            fence_bad
        in
        {
          v_name = vname;
          v_model = model;
          predicted;
          cond34_ok = cond34_witness = None;
          fence_ok = fence_witness = None;
          cond34_runs;
          fence_runs;
          cond34_witness;
          fence_witness;
        })
      roster
  in
  let witness_sound = function
    | None -> true
    | Some w -> w.witness.Witness.verified = Ok ()
  in
  let as_predicted =
    List.for_all
      (fun v ->
        v.cond34_ok = v.predicted.p_cond34
        && v.fence_ok = v.predicted.p_fence
        && witness_sound v.cond34_witness
        && witness_sound v.fence_witness)
      verdicts
  in
  { verdicts; seeds; as_predicted }

(* -- rendering --------------------------------------------------------- *)

let check_name = function Cond34 -> "cond-3.4" | Fence_contract -> "fence"

let pp_outcome ppf (ok, predicted) =
  Format.fprintf ppf "%-10s"
    (match (ok, predicted) with
    | true, true -> "pass"
    | false, false -> "VIOLATED*"  (* * = predicted *)
    | false, true -> "VIOLATED!"
    | true, false -> "pass!?")

let pp_witness ppf w =
  Format.fprintf ppf "@,  %s witness: %s, %d-step schedule%s%a"
    (check_name w.w_check) w.w_program
    (List.length w.witness.Witness.schedule)
    (match w.w_seed with
    | Some s -> Printf.sprintf " (seed %d)" s
    | None -> " (envelope)")
    Witness.pp_verification w.witness

let pp_verdict ppf v =
  Format.fprintf ppf "%-20s %-22s %a %a %5d+%d runs"
    v.v_name
    (Variant.to_spec (Model.variant v.v_model))
    pp_outcome (v.cond34_ok, v.predicted.p_cond34)
    pp_outcome (v.fence_ok, v.predicted.p_fence)
    v.cond34_runs v.fence_runs;
  (match v.cond34_witness with Some w -> pp_witness ppf w | None -> ());
  match v.fence_witness with Some w -> pp_witness ppf w | None -> ()

let pp ppf r =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf
    "variant campaign: %d lattice points x %d programs x %d seeds"
    (List.length r.verdicts) (List.length programs) r.seeds;
  Format.fprintf ppf "@,%-20s %-22s %-10s %-10s@,"
    "variant" "spec" "cond-3.4" "fence";
  List.iter (fun v -> Format.fprintf ppf "%a@," pp_verdict v) r.verdicts;
  Format.fprintf ppf "(VIOLATED* = violation predicted by the lattice theory)";
  Format.fprintf ppf "@,verdicts %s predictions"
    (if r.as_predicted then "match" else "DIVERGE FROM");
  Format.pp_close_box ppf ()

let exit_code r = if r.as_predicted then 0 else 1
