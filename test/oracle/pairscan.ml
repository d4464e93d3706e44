(* The reference race finder: a quadratic per-location pair scan with
   one [Hb.ordered] query per candidate pair and no epoch state, so it
   shares nothing with [Race.find_all] but the clock index. *)

open Racedetect

let races hb =
  let trace = Hb.trace hb in
  let events = trace.Tracing.Trace.events in
  let n_locs = trace.Tracing.Trace.n_locs in
  (* per-location occurrence index, so candidate generation is
     proportional to actual sharing rather than |events|² *)
  let writers = Array.make n_locs [] in
  let touchers = Array.make n_locs [] in
  Array.iter
    (fun (ev : Tracing.Event.t) ->
      let eid = ev.Tracing.Event.eid in
      Graphlib.Bitset.iter
        (fun l -> writers.(l) <- eid :: writers.(l); touchers.(l) <- eid :: touchers.(l))
        (Tracing.Event.writes ev ~n_locs);
      Graphlib.Bitset.iter
        (fun l -> touchers.(l) <- eid :: touchers.(l))
        (Tracing.Event.reads ev ~n_locs))
    events;
  (* a location's occurrence lists collect one entry per bitset the event
     touches it through, so an event reading and writing the same location
     appears twice in [touchers]; dedupe before the quadratic pair loop *)
  let n = Array.length events in
  for l = 0 to n_locs - 1 do
    writers.(l) <- List.sort_uniq compare writers.(l);
    touchers.(l) <- List.sort_uniq compare touchers.(l)
  done;
  let seen = Hashtbl.create 64 in
  let races = ref [] in
  Array.iteri
    (fun _l ws ->
      List.iter
        (fun w ->
          List.iter
            (fun o ->
              let a = min w o and b = max w o in
              let key = (a * n) + b in
              if a <> b && not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                let ea = events.(a) and eb = events.(b) in
                if
                  ea.Tracing.Event.proc <> eb.Tracing.Event.proc
                  && Tracing.Event.conflict ea eb
                  && not (Hb.ordered hb a b)
                then
                  races :=
                    {
                      Race.a;
                      b;
                      locs = Tracing.Event.conflict_locs ea eb ~n_locs;
                      is_data =
                        Tracing.Event.involves_data ea || Tracing.Event.involves_data eb;
                    }
                    :: !races
              end)
            touchers.(_l))
        ws)
    writers;
  List.sort (fun (r1 : Race.t) r2 -> compare (r1.a, r1.b) (r2.a, r2.b)) !races
