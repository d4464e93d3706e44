type t = { mutable bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let capacity s = s.n

let in_range s i = i >= 0 && i < s.n

let mem s i =
  in_range s i
  && Char.code (Bytes.get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add s i =
  if not (in_range s i) then invalid_arg "Bitset.add: out of range";
  let byte = Char.code (Bytes.get s.bits (i lsr 3)) in
  Bytes.set s.bits (i lsr 3) (Char.chr (byte lor (1 lsl (i land 7))))

let remove s i =
  if in_range s i then begin
    let byte = Char.code (Bytes.get s.bits (i lsr 3)) in
    Bytes.set s.bits (i lsr 3) (Char.chr (byte land lnot (1 lsl (i land 7))))
  end

(* Popcount of one byte; a 256-entry table would be faster but this is not a
   hot path compared to the word-wise set operations below. *)
let popcount_byte b =
  let rec loop b acc = if b = 0 then acc else loop (b lsr 1) (acc + (b land 1)) in
  loop b 0

let cardinal s =
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + popcount_byte (Char.code c)) s.bits;
  !total

let is_empty s =
  let len = Bytes.length s.bits in
  let rec loop i = i >= len || (Bytes.get s.bits i = '\000' && loop (i + 1)) in
  loop 0

let copy s = { s with bits = Bytes.copy s.bits }

let clear s = Bytes.fill s.bits 0 (Bytes.length s.bits) '\000'

let check_same_capacity name a b =
  if a.n <> b.n then invalid_arg ("Bitset." ^ name ^ ": capacity mismatch")

let union_into dst src =
  check_same_capacity "union_into" dst src;
  for i = 0 to Bytes.length dst.bits - 1 do
    let b = Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i) in
    Bytes.set dst.bits i (Char.chr b)
  done

let union a b =
  let r = copy a in
  union_into r b;
  r

let inter a b =
  check_same_capacity "inter" a b;
  let r = create a.n in
  for i = 0 to Bytes.length r.bits - 1 do
    let v = Char.code (Bytes.get a.bits i) land Char.code (Bytes.get b.bits i) in
    Bytes.set r.bits i (Char.chr v)
  done;
  r

let intersects a b =
  check_same_capacity "intersects" a b;
  let len = Bytes.length a.bits in
  let rec loop i =
    i < len
    && (Char.code (Bytes.get a.bits i) land Char.code (Bytes.get b.bits i) <> 0
        || loop (i + 1))
  in
  loop 0

let subset a b =
  check_same_capacity "subset" a b;
  let len = Bytes.length a.bits in
  let rec loop i =
    i >= len
    || (Char.code (Bytes.get a.bits i) land lnot (Char.code (Bytes.get b.bits i)) = 0
        && loop (i + 1))
  in
  loop 0

let equal a b = a.n = b.n && Bytes.equal a.bits b.bits

(* Byte at a time, skipping zero bytes: a sparse set over a wide
   location space costs one test per 8 locations, not one per location.
   Bits past [n] in the last byte are never set, so no bound check. *)
let iter f s =
  for byte = 0 to Bytes.length s.bits - 1 do
    let b = ref (Char.code (Bytes.get s.bits byte)) in
    let i = ref (byte lsl 3) in
    while !b <> 0 do
      if !b land 1 <> 0 then f !i;
      b := !b lsr 1;
      incr i
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)
