type t = SC | TSO | WO | RCsc | DRF0 | DRF1 | Custom of Variant.t

let all = [ SC; TSO; WO; RCsc; DRF0; DRF1 ]
let weak = [ WO; RCsc; DRF0; DRF1 ]

let name = function
  | SC -> "SC"
  | TSO -> "TSO"
  | WO -> "WO"
  | RCsc -> "RCsc"
  | DRF0 -> "DRF0"
  | DRF1 -> "DRF1"
  | Custom v -> Variant.name v

let of_name s =
  match String.lowercase_ascii s with
  | "sc" -> Some SC
  | "tso" -> Some TSO
  | "wo" -> Some WO
  | "rcsc" -> Some RCsc
  | "drf0" -> Some DRF0
  | "drf1" -> Some DRF1
  | _ -> None

let variant = function
  | SC -> Variant.sc
  | TSO -> Variant.tso
  | WO | DRF0 -> Variant.wo
  | RCsc | DRF1 -> Variant.rcsc
  | Custom v -> v

let of_spec s =
  match of_name s with
  | Some m -> Ok m
  | None -> (
    match Variant.of_spec s with
    | Ok v -> Ok (Custom v)
    | Error e ->
      Error
        (Printf.sprintf
           "unknown model %S (%s)\n\
            named models: SC, TSO, WO, RCsc, DRF0, DRF1\n\
            named variants: %s\n\
            variant spec: %s" s e
           (String.concat ", " (List.map fst Variant.aliases))
           Variant.grammar))

let buffers_writes m = Variant.has_buffer (variant m)

let fifo_buffer m = buffers_writes m && (variant m).Variant.retire = Variant.Fifo

let distinguishes_release_acquire m =
  let v = variant m in
  v.Variant.on_acquire <> v.Variant.on_release

let drains_on m cls = buffers_writes m && Variant.drain_on (variant m) cls = Variant.Drain

let pp ppf m = Format.pp_print_string ppf (name m)
