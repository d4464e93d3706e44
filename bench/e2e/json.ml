(* The little JSON the benchmark needs: writing result files and the
   last-line summary, and reading BENCHMARK.json, pins.json and earlier
   result files back for [compare]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integers print as integers; other numbers with every digit the float
   holds, so two runs never print the same rounded time. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
    ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false)
    then (incr pos; ws ())
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected '%c' at byte %d" c !pos));
    incr pos
  in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else raise (Bad (Printf.sprintf "bad literal at byte %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then raise (Bad "unterminated escape");
        (match s.[!pos + 1] with
         | 'n' -> Buffer.add_char b '\n'; pos := !pos + 2
         | 't' -> Buffer.add_char b '\t'; pos := !pos + 2
         | 'r' -> Buffer.add_char b '\r'; pos := !pos + 2
         | 'u' when !pos + 5 < n ->
           (match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
            | Some code -> Buffer.add_char b (if code < 128 then Char.chr code else '?')
            | None -> raise (Bad (Printf.sprintf "bad \\u escape at byte %d" !pos)));
           pos := !pos + 6
         | c -> Buffer.add_char b c; pos := !pos + 2);
        go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected ',' or '}' at byte %d" !pos))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected ',' or ']' at byte %d" !pos))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do incr pos done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f when !pos > start -> Num f
       | _ -> raise (Bad (Printf.sprintf "unexpected input at byte %d" start)))
  in
  match value () with
  | v -> ws (); if !pos <> n then Error "trailing input" else Ok v
  | exception Bad m -> Error m

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (match parse text with Ok v -> Ok v | Error m -> Error (path ^ ": " ^ m))

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> l | _ -> []
let to_obj = function Obj l -> l | _ -> []

(* The value under a path of object keys; [Null] when any key is absent. *)
let rec get path j =
  match path with
  | [] -> j
  | k :: rest -> get rest (Option.value ~default:Null (member k j))

let num ?(default = nan) path j = match get path j with Num f -> f | _ -> default
let str path j = Option.value ~default:"" (to_str (get path j))
