type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type expr =
  | Int of int
  | Reg of string
  | Neg of expr
  | Not of expr
  | Bin of binop * expr * expr

type instr =
  | Set of string * expr
  | Load of { reg : string; addr : expr; label : string option }
  | Store of { addr : expr; value : expr; label : string option }
  | Sync_load of { reg : string; addr : expr; label : string option }
  | Sync_store of { addr : expr; value : expr; label : string option }
  | Test_and_set of { reg : string; addr : expr; label : string option }
  | Unset of { addr : expr; label : string option }
  | Fetch_and_add of { reg : string; addr : expr; amount : expr; label : string option }
  | Fence of { label : string option }
  | If of expr * instr list * instr list
  | While of expr * instr list

type program = {
  name : string;
  n_locs : int;
  init : (int * int) list;
  procs : instr list array;
  symbols : (string * int) list;
}

type step = Nth of int | Then | Else | Body
type path = step list

let pp_path ppf = function
  | [] -> Format.pp_print_string ppf "-"
  | path ->
    let pp_step ppf = function
      | Nth i -> Format.pp_print_int ppf i
      | Then -> Format.pp_print_string ppf "then"
      | Else -> Format.pp_print_string ppf "else"
      | Body -> Format.pp_print_string ppf "body"
    in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
      pp_step ppf path

let path_to_string p = Format.asprintf "%a" pp_path p

(* Source order: a path earlier in the program text compares smaller.
   Sibling instructions compare by index; a block prefix precedes anything
   inside it; [Then] arms precede [Else] arms of the same [If]. *)
let compare_path (p : path) (q : path) =
  let rank = function Nth i -> i | Then -> 0 | Else -> 1 | Body -> 0 in
  let rec go p q =
    match (p, q) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | s :: p', t :: q' ->
      let c = compare (rank s) (rank t) in
      if c <> 0 then c else go p' q'
  in
  go p q

let loc_name p l =
  match List.find_opt (fun (_, l') -> l' = l) p.symbols with
  | Some (n, _) -> n
  | None -> string_of_int l

(* Validation walks every instruction carrying its path so errors can say
   where the offence sits, not just that one exists.  The path is carried
   innermost step first, so descending one level is a cons; it is
   reversed only to print an error. *)

let where rpath = path_to_string (List.rev rpath)

let rec check_expr ~proc ~path = function
  | Int _ | Reg _ -> Ok ()
  | Neg e | Not e -> check_expr ~proc ~path e
  | Bin (op, a, b) -> (
    match (op, b) with
    | Div, Int 0 ->
      Error
        (Printf.sprintf "P%d at %s: division by constant zero" proc (where path))
    | Mod, Int 0 ->
      Error
        (Printf.sprintf "P%d at %s: modulo by constant zero" proc (where path))
    | _ -> (
      match check_expr ~proc ~path a with
      | Error _ as e -> e
      | Ok () -> check_expr ~proc ~path b))

let check_addr ~n_locs ~proc ~path = function
  | Int a when a < 0 || a >= n_locs ->
    Error
      (Printf.sprintf
         "P%d at %s: constant address %d outside the location space [0, %d)"
         proc (where path) a n_locs)
  | _ -> Ok () (* computed addresses are checked at run time *)

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let rec check_block ~n_locs ~proc ~prefix instrs =
  List.fold_left
    (fun (i, acc) instr ->
      let acc =
        match acc with
        | Error _ -> acc
        | Ok () -> check_instr ~n_locs ~proc ~path:(Nth i :: prefix) instr
      in
      (i + 1, acc))
    (0, Ok ()) instrs
  |> snd

and check_instr ~n_locs ~proc ~path instr =
  let expr = check_expr ~proc ~path in
  let addr = check_addr ~n_locs ~proc ~path in
  match instr with
  | Set (_, e) -> expr e
  | Fence _ -> Ok ()
  | Load { addr = a; _ } | Sync_load { addr = a; _ }
  | Test_and_set { addr = a; _ } ->
    let* () = expr a in
    addr a
  | Unset { addr = a; _ } ->
    let* () = expr a in
    addr a
  | Store { addr = a; value; _ } | Sync_store { addr = a; value; _ } ->
    let* () = expr a in
    let* () = expr value in
    addr a
  | Fetch_and_add { addr = a; amount; _ } ->
    let* () = expr a in
    let* () = expr amount in
    addr a
  | If (c, t, f) ->
    let* () = expr c in
    let* () = check_block ~n_locs ~proc ~prefix:(Then :: path) t in
    check_block ~n_locs ~proc ~prefix:(Else :: path) f
  | While (c, body) ->
    let* () = expr c in
    check_block ~n_locs ~proc ~prefix:(Body :: path) body

let validate p =
  if Array.length p.procs = 0 then Error "program has no processors"
  else if p.n_locs <= 0 then Error "program has no memory locations"
  else
    match List.find_opt (fun (l, _) -> l < 0 || l >= p.n_locs) p.init with
    | Some (l, _) ->
      Error
        (Printf.sprintf
           "initialization of mem[%d] outside the location space [0, %d)" l
           p.n_locs)
    | None ->
      let rec procs i =
        if i >= Array.length p.procs then Ok ()
        else
          match
            check_block ~n_locs:p.n_locs ~proc:i ~prefix:[] p.procs.(i)
          with
          | Error _ as e -> e
          | Ok () -> procs (i + 1)
      in
      procs 0

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Reg r -> Format.pp_print_string ppf r
  | Neg e -> Format.fprintf ppf "-(%a)" pp_expr e
  | Not e -> Format.fprintf ppf "!(%a)" pp_expr e
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b

let rec pp_instr ppf = function
  | Set (r, e) -> Format.fprintf ppf "%s := %a" r pp_expr e
  | Load { reg; addr; _ } -> Format.fprintf ppf "%s := mem[%a]" reg pp_expr addr
  | Store { addr; value; _ } ->
    Format.fprintf ppf "mem[%a] := %a" pp_expr addr pp_expr value
  | Sync_load { reg; addr; _ } ->
    Format.fprintf ppf "%s := acquire mem[%a]" reg pp_expr addr
  | Sync_store { addr; value; _ } ->
    Format.fprintf ppf "release mem[%a] := %a" pp_expr addr pp_expr value
  | Test_and_set { reg; addr; _ } ->
    Format.fprintf ppf "%s := test&set(mem[%a])" reg pp_expr addr
  | Unset { addr; _ } -> Format.fprintf ppf "unset(mem[%a])" pp_expr addr
  | Fetch_and_add { reg; addr; amount; _ } ->
    Format.fprintf ppf "%s := fetch&add(mem[%a], %a)" reg pp_expr addr pp_expr amount
  | Fence _ -> Format.pp_print_string ppf "fence"
  | If (c, t, f) ->
    Format.fprintf ppf "@[<v 2>if %a then%a%a@]" pp_expr c pp_block t
      (fun ppf -> function
        | [] -> ()
        | f -> Format.fprintf ppf "@;<1 -2>else%a" pp_block f)
      f
  | While (c, body) ->
    Format.fprintf ppf "@[<v 2>while %a do%a@]" pp_expr c pp_block body

and pp_block ppf instrs =
  List.iter (fun i -> Format.fprintf ppf "@,%a" pp_instr i) instrs

let pp_program ppf p =
  Format.fprintf ppf "@[<v>program %s (%d locations)" p.name p.n_locs;
  if p.symbols <> [] then begin
    Format.fprintf ppf "@,symbols:";
    List.iter (fun (n, l) -> Format.fprintf ppf " %s=%d" n l) p.symbols
  end;
  if p.init <> [] then begin
    Format.fprintf ppf "@,init:";
    List.iter (fun (l, v) -> Format.fprintf ppf " mem[%d]=%d" l v) p.init
  end;
  Array.iteri
    (fun i instrs ->
      Format.fprintf ppf "@,@[<v 2>P%d:%a@]" i pp_block instrs)
    p.procs;
  Format.fprintf ppf "@]"
