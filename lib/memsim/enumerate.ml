type result = { executions : Exec.t list; complete : bool }

(* Exhaustive DFS over the full decision space (issues and retires),
   re-executing from scratch at every node: the interpreter state is not
   snapshotable (continuations), and litmus programs are tiny, so the
   quadratic replay cost is irrelevant.  Under SC the only enabled
   decisions are issues, in processor order. *)
let explore_weak ?(max_steps = 400) ?(limit = 500_000) ~model mk =
  let found = ref [] in
  let n_found = ref 0 in
  let complete = ref true in
  let rec dfs prefix depth =
    if !n_found >= limit then complete := false
    else begin
      let m = Machine.replay ~model mk (List.rev prefix) in
      match Machine.enabled m with
      | [] ->
        found := Machine.to_execution m :: !found;
        incr n_found
      | decisions ->
        if depth >= max_steps then begin
          (* nonterminating under this schedule; record as truncated *)
          Machine.set_truncated m;
          Machine.force_drain m;
          found := Machine.to_execution m :: !found;
          incr n_found;
          complete := false
        end
        else List.iter (fun d -> dfs (d :: prefix) (depth + 1)) decisions
    end
  in
  dfs [] 0;
  { executions = List.rev !found; complete = !complete }

let explore ?(max_steps = 2_000) ?(limit = 100_000) mk =
  explore_weak ~max_steps ~limit ~model:Model.SC mk

let behaviours execs =
  List.fold_left
    (fun acc e ->
      if List.exists (Exec.same_program_behaviour e) acc then acc else e :: acc)
    [] execs
  |> List.rev

let sample ?(max_steps = 20_000) ~seeds mk =
  List.map
    (fun seed -> Machine.run ~max_steps ~model:Model.SC ~sched:(Sched.random ~seed) (mk ()))
    seeds

let count ?max_steps ?limit mk =
  let r = explore ?max_steps ?limit mk in
  (List.length r.executions, r.complete)
