(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the checksum
   used by the v2 trace framing.  Values are plain non-negative [int]s
   below 2^32, so they print with %08x and marshal without boxing.

   The table is built at module initialisation, not on first use: serve
   shards compute CRCs on several domains at once, and a lazy table
   forced by two of them together raises [CamlinternalLazy.Undefined]
   in one. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (crc lxor 0xffffffff) in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string s = update 0 s
