module Ast = Minilang.Ast
module Interp = Minilang.Interp
module Model = Memsim.Model
module Lint = Staticcheck.Lint
module Repair = Staticcheck.Repair

type model_verdict = {
  mv_model : Model.t;
  mv_status : Triage.status;
  mv_schedules : int;
}

type cand_check = {
  cc_index : int;
  cc_pair : Staticcheck.Candidates.pair;
  cc_before : Triage.status;
  cc_after : model_verdict list;
}

type cond34 =
  | Cond_pass of { weak_runs : int; sc_pool : int }
  | Cond_fail of string
  | Cond_skipped of string

type t = {
  plan : Repair.t;
  models : Model.t list;
  checks : cand_check list;
  cond34 : cond34;
}

let models_for (m : Model.t) =
  let canonical = [ Model.TSO; Model.WO; Model.RCsc ] in
  let covered m' =
    List.exists
      (fun c -> Memsim.Variant.equal (Model.variant c) (Model.variant m'))
      canonical
  in
  if Model.buffers_writes m && not (covered m) then canonical @ [ m ]
  else canonical

let run ?(max_steps = 400) ?(limit = 2_000) ?(seeds = 16) ?(sc_limit = 20_000)
    ?(jobs = 1) (plan : Repair.t) =
  let models = models_for plan.Repair.model in
  let original = plan.Repair.original and repaired = plan.Repair.repaired in
  let candidates = plan.Repair.lint0.Lint.data_candidates in
  (* one work item per (candidate, program, model); fan out together *)
  let work =
    List.concat
      (List.mapi
         (fun i pair ->
           (i, pair, `Before)
           :: List.map (fun m -> (i, pair, `After m)) models)
         candidates)
  in
  let results =
    Engine.Parbatch.map_list ~jobs
      (fun (i, pair, what) ->
        let prog, model =
          match what with
          | `Before -> (original, Model.SC)
          | `After m -> (repaired, m)
        in
        let v =
          Triage.triage_pair ~max_steps ~limit ~model
            (fun () -> Interp.source prog)
            pair
        in
        (i, what, v))
      work
  in
  let checks =
    List.mapi
      (fun i pair ->
        let mine = List.filter (fun (j, _, _) -> j = i) results in
        let before =
          match List.find_opt (fun (_, w, _) -> w = `Before) mine with
          | Some (_, _, v) -> v.Triage.status
          | None -> Triage.Unknown
        in
        let after =
          List.filter_map
            (fun (_, w, v) ->
              match w with
              | `After m ->
                Some
                  {
                    mv_model = m;
                    mv_status = v.Triage.status;
                    mv_schedules = v.Triage.schedules;
                  }
              | `Before -> None)
            mine
        in
        { cc_index = i; cc_pair = pair; cc_before = before; cc_after = after })
      candidates
  in
  (* Condition 3.4 on the repaired program under the plan's model *)
  let cond34 =
    match Scpool.build ~limit:sc_limit repaired with
    | Error msg -> Cond_skipped msg
    | Ok sc ->
      let pool = Scpool.executions sc in
      let verdicts =
        Engine.Parbatch.map_seeds ~jobs seeds (fun seed ->
            let sched =
              if seed mod 2 = 0 then Memsim.Sched.adversarial ~seed ()
              else Memsim.Sched.random ~seed
            in
            let e =
              Interp.run ~max_steps:20_000 ~model:plan.Repair.model ~sched
                repaired
            in
            (seed, Racedetect.Condition.check ~sc:pool e))
      in
      (match
         Array.to_list verdicts
         |> List.filter (fun (_, v) -> not v.Racedetect.Condition.holds)
       with
      | [] -> Cond_pass { weak_runs = seeds; sc_pool = List.length pool }
      | (seed, v) :: _ ->
        Cond_fail
          (Format.asprintf "seed %d: %a" seed Racedetect.Condition.pp_verdict v))
  in
  { plan; models; checks; cond34 }

let all_refuted t =
  List.for_all
    (fun c ->
      List.for_all (fun mv -> mv.mv_status = Triage.Refuted) c.cc_after)
    t.checks

let verified t =
  Repair.statically_drf t.plan
  && all_refuted t
  && match t.cond34 with Cond_fail _ -> false | _ -> true

let exit_code t =
  let failed =
    (not (Repair.statically_drf t.plan))
    || List.exists
         (fun c ->
           List.exists (fun mv -> mv.mv_status = Triage.Confirmed) c.cc_after)
         t.checks
    || (match t.cond34 with Cond_fail _ -> true | _ -> false)
  in
  if failed then 2
  else if
    List.exists
      (fun c ->
        List.exists (fun mv -> mv.mv_status = Triage.Unknown) c.cc_after)
      t.checks
    || (match t.cond34 with Cond_skipped _ -> true | _ -> false)
  then 3
  else 0

let pp ppf t =
  let p = t.plan.Repair.original in
  Format.fprintf ppf "@[<v>verify (repaired program, models %s):@,"
    (String.concat ", " (List.map Model.name t.models));
  if t.checks = [] then
    Format.fprintf ppf "  no data candidate to refute@,"
  else
    List.iter
      (fun c ->
        Format.fprintf ppf "  candidate %d [%s on the original under SC]: %a@,"
          c.cc_index (Triage.status_name c.cc_before) (Lint.pp_pair p) c.cc_pair;
        List.iter
          (fun mv ->
            Format.fprintf ppf "    %-5s -> %s (%d schedule(s))@,"
              (Model.name mv.mv_model) (Triage.status_name mv.mv_status)
              mv.mv_schedules)
          c.cc_after)
      t.checks;
  (match t.cond34 with
  | Cond_pass { weak_runs; sc_pool } ->
    Format.fprintf ppf
      "  Condition 3.4 under %s: pass (%d weak run(s) against a %d-execution \
       SC pool)@,"
      (Model.name t.plan.Repair.model) weak_runs sc_pool
  | Cond_fail msg ->
    Format.fprintf ppf "  Condition 3.4 under %s: FAIL — %s@,"
      (Model.name t.plan.Repair.model) msg
  | Cond_skipped msg ->
    Format.fprintf ppf "  Condition 3.4 under %s: skipped — %s@,"
      (Model.name t.plan.Repair.model) msg);
  (if verified t then Format.fprintf ppf "repair verified"
   else
     match exit_code t with
     | 3 -> Format.fprintf ppf "repair inconclusive (bounds hit)"
     | _ -> Format.fprintf ppf "REPAIR NOT VERIFIED");
  Format.fprintf ppf "@]"
