(* The language layer: AST validation, builder combinators, concrete
   syntax (lexer/parser/printer), program generators, and the timing
   model. *)

open Minilang

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validate_rejects () =
  let base = Programs.fig1a in
  let cases =
    [
      ("no processors", { base with Ast.procs = [||] });
      ("no locations", { base with Ast.n_locs = 0 });
      ("bad init", { base with Ast.init = [ (99, 1) ] });
      ( "bad constant address",
        { base with
          Ast.procs = [| [ Ast.Load { reg = "r"; addr = Ast.Int 99; label = None } ] |]
        } );
      ( "constant division by zero",
        { base with
          Ast.procs = [| [ Ast.Set ("r", Ast.Bin (Ast.Div, Ast.Int 1, Ast.Int 0)) ] |]
        } );
      ( "constant modulo by zero",
        { base with
          Ast.procs = [| [ Ast.Set ("r", Ast.Bin (Ast.Mod, Ast.Int 1, Ast.Int 0)) ] |]
        } );
    ]
  in
  List.iter
    (fun (name, p) ->
      match Ast.validate p with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: expected a validation error" name)
    cases;
  (* errors name the processor and the instruction path *)
  let contains msg needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  (match
     Ast.validate
       { base with
         Ast.procs =
           [| [];
              [ Ast.If
                  ( Ast.Int 1,
                    [ Ast.Store { addr = Ast.Int 99; value = Ast.Int 0; label = None } ],
                    [] ) ] |]
       }
   with
  | Error msg ->
    if not (contains msg "P1 at 0.then.0") then
      Alcotest.failf "error does not name the path: %s" msg
  | Ok () -> Alcotest.fail "expected a path error");
  List.iter
    (fun (_, p) ->
      match Ast.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "stock program invalid: %s" msg)
    Programs.all

let test_loc_name () =
  let p = Programs.fig1b in
  Alcotest.(check string) "named" "x" (Ast.loc_name p 0);
  Alcotest.(check string) "anonymous" "17" (Ast.loc_name p 17)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_build_unknown_loc () =
  Alcotest.(check bool) "unknown location raises" true
    (try
       ignore (Build.program ~name:"bad" ~locs:[ "x" ] [ [ Build.store "y" (Build.i 1) ] ]);
       false
     with Invalid_argument _ -> true)

let test_build_unknown_init () =
  Alcotest.(check bool) "unknown init raises" true
    (try
       ignore (Build.program ~name:"bad" ~locs:[ "x" ] ~init:[ ("y", 1) ] [ [] ]);
       false
     with Invalid_argument _ -> true)

let test_spin_lock_reusable () =
  (* two critical sections in the same processor: the helper register is
     reset each time, so the second acquisition also spins *)
  let open Build in
  let p =
    program ~name:"two_cs" ~locs:[ "c"; "lock" ]
      [
        spin_lock "lock"
        @ [ load "r" "c"; store "c" (r "r" +: i 1); unset "lock" ]
        @ spin_lock "lock"
        @ [ load "r" "c"; store "c" (r "r" +: i 1); unset "lock" ];
        spin_lock "lock" @ [ load "r" "c"; store "c" (r "r" +: i 10); unset "lock" ];
      ]
  in
  List.iter
    (fun seed ->
      let e =
        Interp.run ~model:Memsim.Model.WO ~sched:(Memsim.Sched.random ~seed) p
      in
      Alcotest.(check bool) "terminates" false e.Memsim.Exec.truncated;
      (* three atomic increments: +1, +1, +10 in some order *)
      Alcotest.(check int) "both criticals ran" 12 e.Memsim.Exec.final_mem.(0))
    (List.init 25 (fun s -> s))

let test_for_loop () =
  let open Build in
  let p =
    program ~name:"sum" ~locs:[ "acc" ]
      [
        for_ "i" ~from:(i 0) ~below:(i 5)
          [ load "a" "acc"; store "acc" (r "a" +: r "i") ];
      ]
  in
  let e = Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ()) p in
  Alcotest.(check int) "0+1+2+3+4" 10 e.Memsim.Exec.final_mem.(0)

(* ------------------------------------------------------------------ *)
(* Interpreter corner cases                                            *)
(* ------------------------------------------------------------------ *)

let test_division_by_zero_is_zero () =
  let open Build in
  (* a constant zero divisor is now a validation error (see
     test_validate_rejects); the runtime rule applies when the divisor
     only happens to be zero *)
  let p =
    program ~name:"div0" ~locs:[ "out" ]
      [ [ set "z" (i 0);
          set "a" (Ast.Bin (Ast.Div, i 7, r "z"));
          set "b" (Ast.Bin (Ast.Mod, i 7, r "z"));
          store "out" (r "a" +: r "b") ] ]
  in
  let e = Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ()) p in
  Alcotest.(check int) "7/0 + 7%0 = 0" 0 e.Memsim.Exec.final_mem.(0)

let test_computed_address_out_of_range () =
  let open Build in
  let p =
    program ~name:"oob" ~locs:[ "x" ]
      [ [ set "a" (i 40); load_at "r" (r "a") ] ]
  in
  Alcotest.(check bool) "raises Runtime_error" true
    (try
       ignore (Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ()) p);
       false
     with Interp.Runtime_error _ -> true)

let test_registers_after () =
  let regs =
    Interp.registers_after ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ())
      Programs.fig1b
  in
  Alcotest.(check (list (pair string int))) "P2 saw both writes"
    [ ("r1", 1); ("r2", 1) ]
    (regs.(1) |> List.filter (fun (k, _) -> k = "r1" || k = "r2"))

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "x := y + 41 # comment\n!= == <=" in
  let kinds = List.map (fun (t : Lexer.located) -> t.Lexer.token) toks in
  Alcotest.(check bool) "token stream" true
    (kinds
     = [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.IDENT "y"; Lexer.PLUS; Lexer.INT 41;
         Lexer.NEQ; Lexer.EQEQ; Lexer.LE; Lexer.EOF ])

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\n\nc" in
  let lines =
    List.filter_map
      (fun (t : Lexer.located) ->
        match t.Lexer.token with Lexer.IDENT _ -> Some t.Lexer.line | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 4 ] lines

let test_lexer_rejects () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "a ~ b"); false with Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let queue_source =
  {|
program queue_bug
array 24
loc Q = 3
loc QEmpty = 1
loc S

proc P1 {
  addr := 8
  Q := addr
  QEmpty := 0
  unset S
}
proc P2 {
  empty := QEmpty
  if empty == 0 {
    addr := Q
    unset S
    i := addr
    while i < addr + 8 {
      tmp := mem[i]
      mem[i] := tmp + 1
      i := i + 1
    }
  }
}
|}

let test_parse_queue () =
  match Parser.parse queue_source with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    Alcotest.(check string) "name" "queue_bug" p.Ast.name;
    Alcotest.(check int) "locations" 27 p.Ast.n_locs;
    Alcotest.(check int) "procs" 2 (Array.length p.Ast.procs);
    Alcotest.(check (list (pair string int))) "symbols"
      [ ("Q", 24); ("QEmpty", 25); ("S", 26) ]
      p.Ast.symbols;
    Alcotest.(check (list (pair int int))) "init" [ (24, 3); (25, 1) ] p.Ast.init;
    (* the program runs and puts 8 in Q under SC *)
    let e = Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ()) p in
    Alcotest.(check int) "Q = 8" 8 e.Memsim.Exec.final_mem.(24)

let test_parse_sync_forms () =
  let src =
    {|
program sync_forms
loc x
loc flag = 1
proc {
  t := tas(flag)
  v := faa(x, 2)
  r := acquire flag
  release flag := 0
  unset flag
  fence
}
|}
  in
  match Parser.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    let shapes =
      List.map
        (function
          | Ast.Test_and_set _ -> "tas"
          | Ast.Fetch_and_add _ -> "faa"
          | Ast.Sync_load _ -> "acq"
          | Ast.Sync_store _ -> "rel"
          | Ast.Unset _ -> "unset"
          | Ast.Fence _ -> "fence"
          | _ -> "?")
        p.Ast.procs.(0)
    in
    Alcotest.(check (list string)) "statement kinds"
      [ "tas"; "faa"; "acq"; "rel"; "unset"; "fence" ] shapes

let test_parse_errors () =
  List.iter
    (fun (name, src, needle) ->
      match Parser.parse src with
      | Ok _ -> Alcotest.failf "%s: expected parse error" name
      | Error msg ->
        if not (Astring.String.is_infix ~affix:needle msg) then
          Alcotest.failf "%s: error %S does not mention %S" name msg needle)
    [
      ("missing program", "loc x", "'program'");
      ("loc in expression", "program p\nloc x\nproc { r := x + 1 }", "register");
      ("duplicate loc", "program p\nloc x\nloc x\nproc { }", "twice");
      ("garbage after procs", "program p\nloc x\nproc { } 42", "unexpected");
      ("unterminated block", "program p\nloc x\nproc { r := 1", "statement");
    ]

let test_parse_precedence () =
  let src = "program p\nloc out\nproc { out := 1 + 2 * 3 == 7 }" in
  match Parser.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    let e = Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.round_robin ()) p in
    Alcotest.(check int) "1+2*3 == 7" 1 e.Memsim.Exec.final_mem.(0)

(* roundtrip: printing and reparsing preserves memory behaviour *)
let same_behaviour p q =
  let run prog seed =
    Interp.run ~model:Memsim.Model.SC ~sched:(Memsim.Sched.random ~seed) prog
  in
  List.for_all
    (fun seed -> Memsim.Exec.same_program_behaviour (run p seed) (run q seed))
    (List.init 10 (fun s -> s))

let test_roundtrip_stock () =
  List.iter
    (fun (name, p) ->
      match Parser.parse (Parser.to_source p) with
      | Error msg -> Alcotest.failf "%s: reparse failed: %s" name msg
      | Ok q ->
        Alcotest.(check bool) (name ^ " behaviour preserved") true (same_behaviour p q))
    Programs.all

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"parse/print roundtrip on generated programs" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then Gen.random_racy ~seed ()
        else Gen.random_racefree ~seed ()
      in
      (* generated names contain parens; sanitize for the concrete syntax *)
      let p = { p with Ast.name = "generated" } in
      match Parser.parse (Parser.to_source p) with
      | Error _ -> false
      | Ok q -> same_behaviour p q)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_sc_slower_than_weak () =
  let e =
    Interp.run ~model:Memsim.Model.WO ~sched:(Memsim.Sched.random ~seed:1)
      (Programs.queue_bug ~region:20 ())
  in
  let sc = Memsim.Cost.estimate ~mode:Memsim.Model.SC e in
  let wo = Memsim.Cost.estimate ~mode:Memsim.Model.WO e in
  Alcotest.(check bool)
    (Printf.sprintf "SC %d > WO %d cycles" sc.Memsim.Cost.makespan wo.Memsim.Cost.makespan)
    true
    (sc.Memsim.Cost.makespan > wo.Memsim.Cost.makespan);
  Alcotest.(check bool) "speedup > 1" true (Memsim.Cost.speedup_vs_sc e > 1.0)

let test_cost_rcsc_at_most_wo () =
  (* RCsc drains less often, so its estimate never exceeds WO's *)
  List.iter
    (fun seed ->
      let e =
        Interp.run ~model:Memsim.Model.RCsc ~sched:(Memsim.Sched.random ~seed)
          Programs.counter_locked
      in
      let wo = Memsim.Cost.estimate ~mode:Memsim.Model.WO e in
      let rc = Memsim.Cost.estimate ~mode:Memsim.Model.RCsc e in
      Alcotest.(check bool) "RCsc <= WO" true
        (rc.Memsim.Cost.makespan <= wo.Memsim.Cost.makespan))
    (List.init 10 (fun s -> s))

let test_cost_empty_execution () =
  let open Build in
  let p = program ~name:"empty" ~locs:[ "x" ] [ [] ] in
  let e = Interp.run ~model:Memsim.Model.WO ~sched:(Memsim.Sched.round_robin ()) p in
  let est = Memsim.Cost.estimate ~mode:Memsim.Model.WO e in
  Alcotest.(check int) "zero makespan" 0 est.Memsim.Cost.makespan;
  Alcotest.(check (float 0.001)) "speedup 1" 1.0 (Memsim.Cost.speedup_vs_sc e)

(* Parsing cost must grow linearly with the input.  Words allocated on
   the minor heap — where every list cell and AST node starts — are a
   deterministic measure of the work done (wall time is not, and
   [Gc.counters] is not exact on this runtime): each case parses a
   program at size n and 4n, and a ratio far above 4 means a stage is
   superlinear — an O(n²) path gives about 16. *)
let allocated_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let check_linear_parse name src n =
  let parse k =
    match Parser.parse (src k) with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%s at size %d: %s" name k msg
  in
  let small = allocated_words (fun () -> parse n) in
  let large = allocated_words (fun () -> parse (4 * n)) in
  if large > 6. *. small then
    Alcotest.failf "%s: %.0f words at size %d, %.0f at size %d (ratio %.1f)" name small n
      large (4 * n) (large /. small)

let test_nested_ifs_linear () =
  check_linear_parse "nested ifs"
    (fun depth ->
      "program p\nloc x\nproc {\n"
      ^ String.concat "" (List.init depth (fun _ -> "if r == 0 {\n"))
      ^ "x := 1\n"
      ^ String.make depth '}'
      ^ "\n}\n")
    500;
  (* the path in a deep error message is unchanged *)
  match Parser.parse "program p\nloc x\nproc { if r == 0 { } else { r := 1 % 0 } }" with
  | Ok _ -> Alcotest.fail "expected a modulo-by-zero error"
  | Error msg ->
    Alcotest.(check string) "error text" "P0 at 0.else.0: modulo by constant zero" msg

let test_many_locs_linear () =
  check_linear_parse "loc declarations"
    (fun n ->
      "program p\n"
      ^ String.concat "" (List.init n (fun i -> Printf.sprintf "loc l%d\n" i))
      ^ "proc { l0 := 1 }\n")
    1000;
  match Parser.parse "program p\narray 2\nloc a = 3\nloc b\nloc c\nproc { b := 1 }" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    Alcotest.(check (list (pair string int))) "symbols in declaration order"
      [ ("a", 2); ("b", 3); ("c", 4) ] p.Ast.symbols;
    Alcotest.(check (list (pair int int))) "init" [ (2, 3) ] p.Ast.init

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "minilang"
    [
      ( "ast",
        [
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "loc_name" `Quick test_loc_name;
        ] );
      ( "build",
        [
          Alcotest.test_case "unknown loc" `Quick test_build_unknown_loc;
          Alcotest.test_case "unknown init" `Quick test_build_unknown_init;
          Alcotest.test_case "spin lock reusable" `Quick test_spin_lock_reusable;
          Alcotest.test_case "for loop" `Quick test_for_loop;
        ] );
      ( "interp",
        [
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_is_zero;
          Alcotest.test_case "address out of range" `Quick
            test_computed_address_out_of_range;
          Alcotest.test_case "registers_after" `Quick test_registers_after;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
          Alcotest.test_case "rejects" `Quick test_lexer_rejects;
        ] );
      ( "parser",
        [
          Alcotest.test_case "queue program" `Quick test_parse_queue;
          Alcotest.test_case "sync forms" `Quick test_parse_sync_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "roundtrip stock" `Quick test_roundtrip_stock;
        ] );
      ("parser-props", qsuite [ prop_roundtrip_generated ]);
      ( "parser-alloc",
        [
          Alcotest.test_case "nested ifs allocate linearly" `Quick test_nested_ifs_linear;
          Alcotest.test_case "loc declarations allocate linearly" `Quick
            test_many_locs_linear;
        ] );
      ( "cost",
        [
          Alcotest.test_case "SC slower than weak" `Quick test_cost_sc_slower_than_weak;
          Alcotest.test_case "RCsc at most WO" `Quick test_cost_rcsc_at_most_wo;
          Alcotest.test_case "empty execution" `Quick test_cost_empty_execution;
        ] );
    ]
