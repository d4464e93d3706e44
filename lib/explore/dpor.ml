module Machine = Memsim.Machine
module Exec = Memsim.Exec
module Op = Memsim.Op

type result = {
  executions : Exec.t list;
  complete : bool;
  schedules : int;
  sleep_blocked : int;
  stopped : bool;
}

type footprint = (Op.loc * Op.kind) list

(* A frame of the exploration stack: the decision taken at a node, the
   memory and buffer footprints it had there, what was enabled at the
   node, and the node's backtracking set, which deeper race updates
   mutate. *)
type frame = {
  decision : Exec.decision;
  fproc : int;
  fp : footprint;
  lfp : Machine.buffer_footprint;
  enabled_at : Exec.decision list;
  backtrack : Exec.decision list ref;
}

let proc_of = function Exec.Issue p -> p | Exec.Retire (p, _) -> p

let conflicts fp1 fp2 =
  List.exists
    (fun (l1, k1) ->
      List.exists
        (fun (l2, k2) -> l1 = l2 && (k1 = Op.Write || k2 = Op.Write))
        fp2)
    fp1

(* Same-processor, cross-agent dependence through the private store
   buffer (see {!Machine.buffer_footprint}): a retire conflicts with a
   forwarded read of its location and with any decision whose
   enabledness needs the buffer drained. *)
let lconflicts a b =
  match (a, b) with
  | Machine.BWrites l, Machine.BReads l'
  | Machine.BReads l, Machine.BWrites l'
  | Machine.BWrites l, Machine.BAppends l'
  | Machine.BAppends l, Machine.BWrites l' ->
    l = l'
  | Machine.BWrites _, Machine.BAll | Machine.BAll, Machine.BWrites _ -> true
  | _ -> false

exception Done

let explore ?(max_steps = 2_000) ?(limit = 500_000) ?(prefer = []) ?stop
    ~model mk =
  let shape = mk () in
  let n_procs = shape.Memsim.Thread_intf.n_procs in
  let n_locs = shape.Memsim.Thread_intf.n_locs in
  let found = ref [] in
  let n_found = ref 0 in
  let complete = ref true in
  let sleep_blocked = ref 0 in
  let stopped = ref false in
  let order ds =
    match prefer with
    | [] -> ds
    | ps ->
      let pref, rest = List.partition (fun d -> List.mem (proc_of d) ps) ds in
      pref @ rest
  in
  let record m =
    let e = Machine.to_execution m in
    found := e :: !found;
    incr n_found;
    (match stop with
     | Some f when f e ->
       stopped := true;
       raise Done
     | _ -> ());
    if !n_found >= limit then begin
      complete := false;
      raise Done
    end
  in
  let sleeping sleep d = List.exists (fun (s, _) -> s = d) sleep in
  (* Each processor contributes up to two scheduling agents: its front
     end (issues) and its store buffer (retires).  Decisions of one
     agent are totally ordered by the machine; decisions of different
     agents are dependent when their memory footprints conflict or —
     same processor only — their buffer footprints do. *)
  let agent_of = function
    | Exec.Issue p -> p
    | Exec.Retire (p, _) -> n_procs + p
  in
  (* Plant backtracking points for [d] (footprints [fp]/[lfp]): at EVERY
     stack frame whose decision belongs to another agent and is
     dependent with [d], the race must also be explored in the reversed
     order.  Following Flanagan–Godefroid, the decisions planted at a
     racing frame are the possible first steps toward that reversal: for
     every agent with a transition after the frame that happens-before
     [d] (a chain of dependent transitions — same agent, or conflicting
     footprints), its first such transition, plus [d] itself when its
     agent took no step in between.  Each such first step was already
     enabled at the frame's node, because enabledness depends only on
     the deciding processor's own state and that processor's agents did
     nothing in between; planted decisions that were nonetheless not
     enabled there are filtered against the node's enabled set, falling
     back to planting the whole set.

     Two points where this is deliberately more generous than the
     textbook algorithm, both forced by the sleep sets: the whole first-
     step set is planted rather than one member, and every racing frame
     is processed rather than only the most recent.  A planted decision
     may be asleep at its target node — its subtree was explored from an
     ancestor, and with it the race discoveries that would have recursed
     from there — so the reversal must remain reachable through the other
     first steps and the older frames.  Planting at a node never
     re-executes a sleeping decision, so no schedule is explored twice;
     the extra entries only wake orders not yet proven redundant. *)
  let race_update path d fp lfp =
    let dproc = proc_of d in
    let dagent = agent_of d in
    (* the "related" set: transitions seen so far (newer than the scan
       point) that happen-before [d], summarized for O(1) dependence
       tests — per-location read/write bits for memory footprints,
       per-processor forwarding/retire bits for buffer footprints — plus
       each agent's earliest related transition: the candidate first
       steps *)
    let r_read = Array.make n_locs false in
    let r_write = Array.make n_locs false in
    let agent_first = Array.make (2 * n_procs) None in
    (* buffer-footprint summaries, per processor *)
    let fwd_read = Array.make (n_procs * n_locs) false in
    let appended = Array.make (n_procs * n_locs) false in
    let retired = Array.make (n_procs * n_locs) false in
    let retired_any = Array.make n_procs false in
    let all = Array.make n_procs false in
    let absorb decision gfp glfp =
      List.iter
        (fun (l, k) ->
          match k with
          | Op.Read -> r_read.(l) <- true
          | Op.Write -> r_write.(l) <- true)
        gfp;
      let p = proc_of decision in
      (match glfp with
      | Machine.BNone -> ()
      | Machine.BReads l -> fwd_read.((p * n_locs) + l) <- true
      | Machine.BAppends l -> appended.((p * n_locs) + l) <- true
      | Machine.BWrites l ->
        retired.((p * n_locs) + l) <- true;
        retired_any.(p) <- true
      | Machine.BAll -> all.(p) <- true);
      agent_first.(agent_of decision) <- Some decision
    in
    let touches_related gfp =
      List.exists
        (fun (l, k) ->
          match k with
          | Op.Write -> r_read.(l) || r_write.(l)
          | Op.Read -> r_write.(l))
        gfp
    in
    let touches_local p glfp =
      match glfp with
      | Machine.BNone -> false
      | Machine.BReads l -> retired.((p * n_locs) + l)
      | Machine.BAppends l -> retired.((p * n_locs) + l)
      | Machine.BWrites l ->
        fwd_read.((p * n_locs) + l)
        || appended.((p * n_locs) + l)
        || all.(p)
      | Machine.BAll -> retired_any.(p)
    in
    absorb d fp lfp;
    List.iter
      (fun g ->
        if
          agent_of g.decision <> dagent
          && (conflicts g.fp fp || (g.fproc = dproc && lconflicts g.lfp lfp))
        then begin
          let adds =
            Array.to_list agent_first
            |> List.filter_map Fun.id
            |> List.filter (fun c -> List.mem c g.enabled_at)
          in
          let adds = if adds = [] then g.enabled_at else adds in
          g.backtrack :=
            List.fold_left
              (fun acc e -> if List.mem e acc then acc else e :: acc)
              !(g.backtrack) adds
        end;
        if
          agent_first.(agent_of g.decision) <> None
          || touches_related g.fp
          || touches_local g.fproc g.lfp
        then absorb g.decision g.fp g.lfp)
      path
  in
  (* [path] is the stack, newest frame first; [sleep] the sleep set at the
     current node, each entry carrying the footprint it had when it went
     to sleep (stable: only same-processor decisions — which are
     dependent and therefore wake the sleeper — can change it). *)
  let rec explore_node path sleep depth =
    let sched = List.rev_map (fun f -> f.decision) path in
    let m = Machine.replay ~model mk sched in
    match Machine.enabled m with
    | [] -> record m
    | enabled ->
      if depth >= max_steps then begin
        Machine.set_truncated m;
        Machine.force_drain m;
        complete := false;
        record m
      end
      else begin
        match order (List.filter (fun d -> not (sleeping sleep d)) enabled) with
        | [] ->
          (* every enabled decision is asleep: all continuations from here
             are Mazurkiewicz-equivalent to schedules explored already *)
          incr sleep_blocked
        | first :: _ ->
          let backtrack = ref [ first ] in
          let done_ = ref [] in
          let cur_sleep = ref sleep in
          let rec loop () =
            let todo =
              order
                (List.filter
                   (fun d ->
                     (not (List.mem d !done_))
                     && not (sleeping !cur_sleep d))
                   !backtrack)
            in
            match todo with
            | [] -> ()
            | d :: _ ->
              let probe = Machine.replay ~model mk sched in
              let fp = Machine.footprint probe d in
              let lfp = Machine.buffer_footprint probe d in
              race_update path d fp lfp;
              let child_sleep =
                List.filter
                  (fun (s, sfp) ->
                    s <> d
                    && proc_of s <> proc_of d
                    && not (conflicts sfp fp))
                  !cur_sleep
              in
              let frame =
                { decision = d; fproc = proc_of d; fp; lfp;
                  enabled_at = enabled; backtrack }
              in
              explore_node (frame :: path) child_sleep (depth + 1);
              done_ := d :: !done_;
              cur_sleep := (d, fp) :: !cur_sleep;
              loop ()
          in
          loop ()
      end
  in
  (try explore_node [] [] 0 with Done -> ());
  {
    executions = List.rev !found;
    complete = !complete;
    schedules = !n_found;
    sleep_blocked = !sleep_blocked;
    stopped = !stopped;
  }

let behaviours_covered a b =
  List.for_all
    (fun ea -> List.exists (Exec.same_program_behaviour ea) b)
    a
