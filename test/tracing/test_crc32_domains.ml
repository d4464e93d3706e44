(* Four domains, released together, compute this executable's first
   CRC.  Nothing may be built on first use inside Tracing.Crc32: two
   domains forcing one lazy table at once make one of them raise
   CamlinternalLazy.Undefined.  Kept in its own executable so no earlier
   test has computed a CRC already. *)

let test_first_use_on_four_domains () =
  let n = 4 in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Tracing.Crc32.string "123456789"
  in
  let domains = List.init n (fun _ -> Domain.spawn worker) in
  while Atomic.get ready < n do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iteri
    (fun i d ->
      match Domain.join d with
      | crc -> Alcotest.(check int) (Printf.sprintf "domain %d CRC" i) 0xcbf43926 crc
      | exception e ->
        Alcotest.failf "domain %d raised %s" i (Printexc.to_string e))
    domains

let () =
  Alcotest.run "crc32-domains"
    [
      ( "first-use",
        [
          Alcotest.test_case "4 domains compute the first CRC together" `Quick
            test_first_use_on_four_domains;
        ] );
    ]
