type order = [ `Hb1 | `Shb ]

type analysis = {
  trace : Tracing.Trace.t;
  hb : Hb.t;
  races : Race.t list;
  augmented : Augment.t;
  partitions : Partition.t;
  order : order;
  shb_extra : Race.t list;
}

let shb_extra_of hb partitions = function
  | `Hb1 -> []
  | `Shb -> Shb.extra_races (Shb.build hb) partitions

let analyze ?so1 ?(order = `Hb1) trace =
  let hb = Hb.build ?so1 trace in
  let races = Race.find_all hb in
  let augmented = Augment.build hb races in
  let partitions = Partition.compute augmented in
  let shb_extra = shb_extra_of hb partitions order in
  { trace; hb; races; augmented; partitions; order; shb_extra }

let analyze_execution ?so1 ?order e =
  analyze ?so1 ?order (Tracing.Trace.of_execution e)

let with_order order a =
  { a with order; shb_extra = shb_extra_of a.hb a.partitions order }

let data_races a = Race.data_races a.races

let first_partitions a = Partition.first_partitions a.partitions

let reported_races a = Partition.reported_races a.partitions

let predicted_races a = reported_races a @ a.shb_extra

let race_free a = first_partitions a = []

(* -- degraded verdicts over lossy traces ----------------------------- *)

type gap = { proc : int; after_seq : int; before_seq : int; missing : int }

type loss = {
  decode_losses : Tracing.Codec.Salvage.loss list;
  missing_events : int;
  gaps : gap list;
  dropped_records : int;
  dropped_so1 : int;
}

let no_loss =
  { decode_losses = []; missing_events = 0; gaps = []; dropped_records = 0;
    dropped_so1 = 0 }

let lossy l =
  l.decode_losses <> [] || l.missing_events > 0 || l.gaps <> []
  || l.dropped_records > 0 || l.dropped_so1 > 0

type verdict =
  | Race_free of analysis
  | Races of analysis
  | Degraded of { analysis : analysis; loss : loss }

let verdict ?loss a =
  match loss with
  | Some l when lossy l -> Degraded { analysis = a; loss = l }
  | _ -> if race_free a then Race_free a else Races a

let verdict_analysis = function
  | Race_free a | Races a | Degraded { analysis = a; _ } -> a

let verdict_map f = function
  | Race_free a -> Race_free (f a)
  | Races a -> Races (f a)
  | Degraded { analysis; loss } -> Degraded { analysis = f analysis; loss }

let verdict_exit_code = function
  | Race_free _ -> 0
  | Races _ -> 2
  | Degraded _ -> 3

let pp_gap ppf g =
  if g.after_seq < 0 then
    Format.fprintf ppf "proc %d: %d event%s missing before seq %d" g.proc
      g.missing (if g.missing = 1 then "" else "s") g.before_seq
  else
    Format.fprintf ppf "proc %d: %d event%s missing between seq %d and seq %d"
      g.proc g.missing (if g.missing = 1 then "" else "s") g.after_seq
      g.before_seq

let pp_loss ppf l =
  Format.fprintf ppf "trace is lossy; analysis is degraded:";
  List.iter
    (fun d -> Format.fprintf ppf "@\n  decode: %a" Tracing.Codec.Salvage.pp_loss d)
    l.decode_losses;
  if l.missing_events > 0 then
    Format.fprintf ppf "@\n  %d event%s never decoded" l.missing_events
      (if l.missing_events = 1 then "" else "s");
  List.iter (fun g -> Format.fprintf ppf "@\n  gap: %a" pp_gap g) l.gaps;
  if l.dropped_records > 0 then
    Format.fprintf ppf "@\n  %d malformed or conflicting record%s dropped"
      l.dropped_records (if l.dropped_records = 1 then "" else "s");
  if l.dropped_so1 > 0 then
    Format.fprintf ppf "@\n  %d so1 edge%s dropped (endpoint missing)"
      l.dropped_so1 (if l.dropped_so1 = 1 then "" else "s");
  Format.fprintf ppf
    "@\nrace-freedom cannot be certified; races reported are among surviving events only"
