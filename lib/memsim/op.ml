type proc = int
type loc = int
type value = int

type kind = Read | Write

type op_class = Data | Acquire | Release | Plain_sync

type t = {
  id : int;
  proc : proc;
  pindex : int;
  loc : loc;
  kind : kind;
  cls : op_class;
  value : value;
  label : string option;
}

let is_sync = function Data -> false | Acquire | Release | Plain_sync -> true
let is_data cls = not (is_sync cls)

let conflict a b = a.loc = b.loc && (a.kind = Write || b.kind = Write)

let identity o = (o.proc, o.pindex, o.loc, o.kind, o.cls)

let pp_kind ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"

let class_name = function
  | Data -> "data"
  | Acquire -> "acquire"
  | Release -> "release"
  | Plain_sync -> "sync"

let pp_class ppf c = Format.pp_print_string ppf (class_name c)

let pp ppf o =
  Format.fprintf ppf "P%d#%d:%a[%a](%d,%d)%s" o.proc o.pindex pp_kind o.kind
    pp_class o.cls o.loc o.value
    (match o.label with None -> "" | Some l -> "@" ^ l)
