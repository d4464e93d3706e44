type step = {
  index : int;
  decision : Memsim.Exec.decision;
  ops : Memsim.Op.t list;
  in_scp : bool;
  memory : Memsim.Op.value array;
}

type session = { steps : step list; covered : bool }

module Idents = Set.Make (struct
  type t = Memsim.Op.proc * int * Memsim.Op.loc * Memsim.Op.kind * Memsim.Op.op_class

  let compare = compare
end)

let replay ~source ~(witness : Memsim.Exec.t) ~scp ~(weak : Memsim.Exec.t) =
  let scp_idents =
    Idents.of_list
      (List.map (fun id -> Memsim.Op.identity weak.Memsim.Exec.ops.(id)) scp)
  in
  let remaining = ref (Idents.cardinal scp_idents) in
  (* the ops each step records, collected as the machine records them *)
  let step_ops = ref [] in
  let m =
    Memsim.Machine.create
      ~on_op:(fun o -> step_ops := o :: !step_ops)
      ~model:Memsim.Model.SC (source ())
  in
  let steps = ref [] in
  let index = ref 0 in
  let rec go schedule =
    if !remaining = 0 then true
    else
      match schedule with
      | [] -> false
      | decision :: rest ->
        step_ops := [];
        Memsim.Machine.perform m decision;
        let ops = List.rev !step_ops in
        let in_scp =
          ops <> []
          && List.for_all
               (fun (o : Memsim.Op.t) -> Idents.mem (Memsim.Op.identity o) scp_idents)
               ops
        in
        if in_scp then remaining := !remaining - List.length ops;
        steps :=
          {
            index = !index;
            decision;
            ops;
            in_scp;
            memory = Memsim.Machine.memory m;
          }
          :: !steps;
        incr index;
        go rest
  in
  let covered = go witness.Memsim.Exec.schedule in
  { steps = List.rev !steps; covered }

let of_weak_execution ~sc ~source (weak : Memsim.Exec.t) =
  let ophb = Ophb.build weak in
  match Scp.best_scp ~sc:(List.map Ophb.build sc) ophb with
  | None -> None
  | Some (scp, witness_ophb) ->
    let witness = Ophb.exec witness_ophb in
    Some (replay ~source ~witness ~scp ~weak)

let watch session loc =
  let last = ref None in
  List.filter_map
    (fun st ->
      let v = st.memory.(loc) in
      if !last = Some v then None
      else begin
        last := Some v;
        Some (st.index, v)
      end)
    session.steps

let pp_session ?(loc_name = fun l -> Printf.sprintf "loc%d" l) ppf s =
  Format.fprintf ppf "@[<v>SC-prefix replay (%d steps, SCP %s):" (List.length s.steps)
    (if s.covered then "fully covered" else "NOT covered");
  List.iter
    (fun st ->
      Format.fprintf ppf "@,%3d %s %a" st.index
        (if st.in_scp then "scp " else "    ")
        Memsim.Exec.pp_decision st.decision;
      List.iter
        (fun (o : Memsim.Op.t) ->
          Format.fprintf ppf "  %a[%a] %s=%d" Memsim.Op.pp_kind o.Memsim.Op.kind
            Memsim.Op.pp_class o.Memsim.Op.cls
            (loc_name o.Memsim.Op.loc) o.Memsim.Op.value)
        st.ops)
    s.steps;
  Format.fprintf ppf "@]"
