type t = int array

let make n = Array.make n 0

let n_procs = Array.length

let get t p = t.(p)

let copy = Array.copy

let tick t p =
  let c = Array.copy t in
  c.(p) <- c.(p) + 1;
  c

let tick_into t p = t.(p) <- t.(p) + 1

let max_into t p v = if v > t.(p) then t.(p) <- v

let blit src dst = Array.blit src 0 dst 0 (Array.length src)

let join a b = Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let join_into dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let leq a b =
  let rec go i = i >= Array.length a || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))
