open Racedetect

type hb = { hb : Hb.t; hb_reach : Reach.t }

let hb1 hb = { hb; hb_reach = Reach.compute (Hb.graph hb) }

let happens_before t a b = a <> b && Reach.reaches t.hb_reach a b

let ordered t a b = happens_before t a b || happens_before t b a

let races t =
  let trace = Hb.trace t.hb in
  let events = trace.Tracing.Trace.events in
  let n_locs = trace.Tracing.Trace.n_locs in
  let acc = ref [] in
  for a = Array.length events - 1 downto 0 do
    for b = Array.length events - 1 downto a + 1 do
      let ea = events.(a) and eb = events.(b) in
      if
        ea.Tracing.Event.proc <> eb.Tracing.Event.proc
        && Tracing.Event.conflict ea eb
        && not (ordered t a b)
      then
        acc :=
          {
            Race.a;
            b;
            locs = Tracing.Event.conflict_locs ea eb ~n_locs;
            is_data = Tracing.Event.involves_data ea || Tracing.Event.involves_data eb;
          }
          :: !acc
    done
  done;
  !acc

type aug = { aug : Augment.t; reach : Reach.t }

let augmented aug = { aug; reach = Reach.compute (Augment.graph aug) }

let affects_event t (r : Race.t) eid =
  Reach.reaches t.reach r.Race.a eid
  || Reach.reaches t.reach r.Race.b eid

let affects t r1 (r2 : Race.t) =
  affects_event t r1 r2.Race.a || affects_event t r1 r2.Race.b

let unaffected_data_races t =
  let data = Race.data_races (Augment.races t.aug) in
  List.filter
    (fun r ->
      not
        (List.exists (fun r' -> (not (Race.equal r r')) && affects t r' r) data))
    data

let partitions t =
  let scc = Reach.scc t.reach in
  let data = Race.data_races (Augment.races t.aug) in
  List.init scc.Graphlib.Scc.n_components (fun c ->
      {
        Partition.component = c;
        races =
          List.filter
            (fun (r : Race.t) -> scc.Graphlib.Scc.component.(r.Race.a) = c)
            data;
        events = scc.Graphlib.Scc.members.(c);
      })
  |> List.filter (fun (p : Partition.partition) -> p.Partition.races <> [])

let ordered_before t (p1 : Partition.partition) (p2 : Partition.partition) =
  p1.Partition.component <> p2.Partition.component
  && Reach.component_reaches t.reach p1.Partition.component p2.Partition.component

let first_partitions t =
  let parts = partitions t in
  List.filter (fun p -> not (List.exists (fun q -> ordered_before t q p) parts)) parts

let analyze trace =
  let hb = Hb.build trace in
  let races = races (hb1 hb) in
  (races, first_partitions (augmented (Augment.build hb races)))
