exception Error of string

type state = {
  mutable toks : Lexer.located list;
  locs : (string, int) Hashtbl.t;     (* name -> address *)
  mutable symbols : (string * int) list; (* declarations, newest first *)
  mutable proc_name : string;          (* for generated labels *)
}

let fail (t : Lexer.located) fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Error (Printf.sprintf "line %d, column %d: %s" t.Lexer.line t.Lexer.col msg)))
    fmt

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> { Lexer.token = Lexer.EOF; line = 0; col = 0 }

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect st token =
  let t = next st in
  if t.Lexer.token <> token then
    fail t "expected %s, found %s" (Lexer.describe token)
      (Lexer.describe t.Lexer.token)

let expect_ident st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.IDENT s -> (s, t)
  | other -> fail t "expected an identifier, found %s" (Lexer.describe other)

let expect_int st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.INT v -> v
  | Lexer.MINUS -> (
    match (next st).Lexer.token with
    | Lexer.INT v -> -v
    | other -> fail t "expected a number, found %s" (Lexer.describe other))
  | other -> fail t "expected a number, found %s" (Lexer.describe other)

let is_loc st name = Hashtbl.mem st.locs name
let loc_addr st name = Hashtbl.find st.locs name

(* -- expressions (registers and constants only) ---------------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if (peek st).Lexer.token = Lexer.OROR then begin
    advance st;
    Ast.Bin (Ast.Or, lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if (peek st).Lexer.token = Lexer.ANDAND then begin
    advance st;
    Ast.Bin (Ast.And, lhs, parse_and st)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match (peek st).Lexer.token with
    | Lexer.EQEQ -> Some Ast.Eq
    | Lexer.NEQ -> Some Ast.Ne
    | Lexer.LT -> Some Ast.Lt
    | Lexer.LE -> Some Ast.Le
    | Lexer.GT -> Some Ast.Gt
    | Lexer.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Bin (op, lhs, parse_add st)

and parse_add st =
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Lexer.PLUS -> advance st; loop (Ast.Bin (Ast.Add, lhs, parse_mul st))
    | Lexer.MINUS -> advance st; loop (Ast.Bin (Ast.Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Lexer.STAR -> advance st; loop (Ast.Bin (Ast.Mul, lhs, parse_unary st))
    | Lexer.SLASH -> advance st; loop (Ast.Bin (Ast.Div, lhs, parse_unary st))
    | Lexer.PERCENT -> advance st; loop (Ast.Bin (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.MINUS -> advance st; Ast.Neg (parse_unary st)
  | Lexer.BANG -> advance st; Ast.Not (parse_unary st)
  | Lexer.INT v -> advance st; Ast.Int v
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name ->
    if is_loc st name then
      fail t
        "location %S used inside an expression; load it into a register first" name
    else begin
      advance st;
      Ast.Reg name
    end
  | other -> fail t "expected an expression, found %s" (Lexer.describe other)

(* -- lvalues: named location or mem[expr] ---------------------------- *)

let parse_lvalue st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.KW_MEM ->
    advance st;
    expect st Lexer.LBRACKET;
    let e = parse_expr st in
    expect st Lexer.RBRACKET;
    e
  | Lexer.IDENT name when is_loc st name -> advance st; Ast.Int (loc_addr st name)
  | other ->
    fail t "expected a memory location, found %s" (Lexer.describe other)

let looks_like_lvalue st =
  match (peek st).Lexer.token with
  | Lexer.KW_MEM -> true
  | Lexer.IDENT name -> is_loc st name
  | _ -> false

(* -- statements ------------------------------------------------------ *)

let label st line = Some (Printf.sprintf "%s:L%d" st.proc_name line)

let rec parse_block st =
  expect st Lexer.LBRACE;
  let rec stmts acc =
    if (peek st).Lexer.token = Lexer.RBRACE then begin
      advance st;
      List.rev acc
    end
    else stmts (parse_stmt st :: acc)
  in
  stmts []

and parse_stmt st =
  let t = peek st in
  let line = t.Lexer.line in
  match t.Lexer.token with
  | Lexer.KW_FENCE -> advance st; Ast.Fence { label = label st line }
  | Lexer.KW_UNSET ->
    advance st;
    Ast.Unset { addr = parse_lvalue st; label = label st line }
  | Lexer.KW_RELEASE ->
    advance st;
    let addr = parse_lvalue st in
    expect st Lexer.ASSIGN;
    Ast.Sync_store { addr; value = parse_expr st; label = label st line }
  | Lexer.KW_IF ->
    advance st;
    let c = parse_expr st in
    let then_ = parse_block st in
    let else_ =
      if (peek st).Lexer.token = Lexer.KW_ELSE then begin
        advance st;
        parse_block st
      end
      else []
    in
    Ast.If (c, then_, else_)
  | Lexer.KW_WHILE ->
    advance st;
    let c = parse_expr st in
    Ast.While (c, parse_block st)
  | Lexer.KW_MEM ->
    (* mem[e] := expr *)
    let addr = parse_lvalue st in
    expect st Lexer.ASSIGN;
    Ast.Store { addr; value = parse_expr st; label = label st line }
  | Lexer.IDENT name when is_loc st name ->
    (* store to a named location *)
    advance st;
    expect st Lexer.ASSIGN;
    Ast.Store { addr = Ast.Int (loc_addr st name); value = parse_expr st;
                label = label st line }
  | Lexer.IDENT reg ->
    advance st;
    expect st Lexer.ASSIGN;
    parse_register_rhs st reg line
  | other -> fail t "expected a statement, found %s" (Lexer.describe other)

and parse_register_rhs st reg line =
  match (peek st).Lexer.token with
  | Lexer.KW_ACQUIRE ->
    advance st;
    Ast.Sync_load { reg; addr = parse_lvalue st; label = label st line }
  | Lexer.KW_TAS ->
    advance st;
    expect st Lexer.LPAREN;
    let addr = parse_lvalue st in
    expect st Lexer.RPAREN;
    Ast.Test_and_set { reg; addr; label = label st line }
  | Lexer.KW_FAA ->
    advance st;
    expect st Lexer.LPAREN;
    let addr = parse_lvalue st in
    expect st Lexer.COMMA;
    let amount = parse_expr st in
    expect st Lexer.RPAREN;
    Ast.Fetch_and_add { reg; addr; amount; label = label st line }
  | _ when looks_like_lvalue st ->
    let load = Ast.Load { reg; addr = parse_lvalue st; label = label st line } in
    (match (peek st).Lexer.token with
     | Lexer.PLUS | Lexer.MINUS | Lexer.STAR | Lexer.SLASH | Lexer.PERCENT
     | Lexer.EQEQ | Lexer.NEQ | Lexer.LT | Lexer.LE | Lexer.GT | Lexer.GE
     | Lexer.ANDAND | Lexer.OROR ->
       fail (peek st)
         "memory cannot appear inside an expression; load it into a register first"
     | _ -> load)
  | _ -> Ast.Set (reg, parse_expr st)

(* -- top level -------------------------------------------------------- *)

let parse_program st =
  expect st Lexer.KW_PROGRAM;
  let name, _ = expect_ident st in
  let extra_locs =
    if (peek st).Lexer.token = Lexer.KW_ARRAY then begin
      advance st;
      expect_int st
    end
    else 0
  in
  let init = ref [] in
  let next_addr = ref extra_locs in
  while (peek st).Lexer.token = Lexer.KW_LOC do
    advance st;
    let lname, ltok = expect_ident st in
    if is_loc st lname then fail ltok "location %S declared twice" lname;
    Hashtbl.replace st.locs lname !next_addr;
    st.symbols <- (lname, !next_addr) :: st.symbols;
    if (peek st).Lexer.token = Lexer.EQUALS then begin
      advance st;
      init := (!next_addr, expect_int st) :: !init
    end;
    incr next_addr
  done;
  let procs = ref [] in
  let idx = ref 0 in
  while (peek st).Lexer.token = Lexer.KW_PROC do
    advance st;
    let pname =
      match (peek st).Lexer.token with
      | Lexer.IDENT n -> advance st; n
      | _ -> Printf.sprintf "P%d" !idx
    in
    st.proc_name <- pname;
    procs := parse_block st :: !procs;
    incr idx
  done;
  let t = peek st in
  if t.Lexer.token <> Lexer.EOF then
    fail t "unexpected %s after the last processor"
      (Lexer.describe t.Lexer.token);
  let p =
    {
      Ast.name;
      n_locs = !next_addr;
      init = List.rev !init;
      procs = Array.of_list (List.rev !procs);
      symbols = List.rev st.symbols;
    }
  in
  match Ast.validate p with
  | Ok () -> p
  | Error msg -> raise (Error msg)

let parse_exn src =
  let toks =
    try Lexer.tokenize src with Lexer.Error msg -> raise (Error msg)
  in
  parse_program { toks; locs = Hashtbl.create 16; symbols = []; proc_name = "P0" }

let parse src = try Ok (parse_exn src) with Error msg -> Result.Error msg

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> parse src
  | exception Sys_error msg -> Result.Error msg

(* -- printing back to concrete syntax -------------------------------- *)

let to_source (p : Ast.program) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let loc_of_addr a = List.find_opt (fun (_, a') -> a' = a) p.Ast.symbols in
  let rec expr = function
    | Ast.Int v -> string_of_int v
    | Ast.Reg r -> r
    | Ast.Neg e -> Printf.sprintf "(-%s)" (expr e)
    | Ast.Not e -> Printf.sprintf "(!%s)" (expr e)
    | Ast.Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr a) (Ast.binop_symbol op) (expr b)
  in
  let lvalue = function
    | Ast.Int a -> (
      match loc_of_addr a with
      | Some (name, _) -> name
      | None -> Printf.sprintf "mem[%d]" a)
    | e -> Printf.sprintf "mem[%s]" (expr e)
  in
  let rec stmt indent s =
    let pad = String.make indent ' ' in
    match s with
    | Ast.Set (r, e) -> out "%s%s := %s\n" pad r (expr e)
    | Ast.Load { reg; addr; _ } -> out "%s%s := %s\n" pad reg (lvalue addr)
    | Ast.Store { addr; value; _ } -> out "%s%s := %s\n" pad (lvalue addr) (expr value)
    | Ast.Sync_load { reg; addr; _ } ->
      out "%s%s := acquire %s\n" pad reg (lvalue addr)
    | Ast.Sync_store { addr; value; _ } ->
      out "%srelease %s := %s\n" pad (lvalue addr) (expr value)
    | Ast.Test_and_set { reg; addr; _ } -> out "%s%s := tas(%s)\n" pad reg (lvalue addr)
    | Ast.Unset { addr; _ } -> out "%sunset %s\n" pad (lvalue addr)
    | Ast.Fetch_and_add { reg; addr; amount; _ } ->
      out "%s%s := faa(%s, %s)\n" pad reg (lvalue addr) (expr amount)
    | Ast.Fence _ -> out "%sfence\n" pad
    | Ast.If (c, t, f) ->
      out "%sif %s {\n" pad (expr c);
      List.iter (stmt (indent + 2)) t;
      if f <> [] then begin
        out "%s} else {\n" pad;
        List.iter (stmt (indent + 2)) f
      end;
      out "%s}\n" pad
    | Ast.While (c, body) ->
      out "%swhile %s {\n" pad (expr c);
      List.iter (stmt (indent + 2)) body;
      out "%s}\n" pad
  in
  List.iter
    (fun (addr, _) ->
      if not (List.mem_assoc addr (List.map (fun (n, a) -> (a, n)) p.Ast.symbols)) then
        invalid_arg "Parser.to_source: initialized anonymous location has no syntax")
    p.Ast.init;
  out "program %s\n" p.Ast.name;
  let n_named = List.length p.Ast.symbols in
  let extra = p.Ast.n_locs - n_named in
  if extra > 0 then out "array %d\n" extra;
  List.iter
    (fun (name, addr) ->
      match List.assoc_opt addr p.Ast.init with
      | Some v -> out "loc %s = %d\n" name v
      | None -> out "loc %s\n" name)
    p.Ast.symbols;
  Array.iteri
    (fun i instrs ->
      out "proc P%d {\n" i;
      List.iter (stmt 2) instrs;
      out "}\n")
    p.Ast.procs;
  Buffer.contents buf
