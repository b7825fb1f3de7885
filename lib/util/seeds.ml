(* A stream's state is a pure digest of (master seed, full path): the path
   bytes are folded FNV-1a-style into the master's mixed state, with a
   splitmix64 finalizer after every segment so sibling paths avalanche
   apart.  Nothing here is mutable — the registry can be shared freely
   across threads and derivation order cannot matter. *)

type t = { root : int64; prefix : string }

(* splitmix64 finalizer (same constants as Rng.mix64, kept local so Seeds
   does not depend on Rng internals staying exposed). *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let fnv_prime = 0x100000001B3L

let fold_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* Segment separator folded explicitly, so "a/b" hashed as one string and
   as scope "a" + path "b" agree, while "ab" + "" cannot collide with
   "a" + "b". *)
let fold_segment h s = mix64 (fold_string (Int64.logxor h 0x2FL) s)

let create master_seed =
  { root = mix64 (Int64.of_int master_seed); prefix = "" }

let split_path path = String.split_on_char '/' path

let scope t segment =
  {
    t with
    prefix = (if t.prefix = "" then segment else t.prefix ^ "/" ^ segment);
  }

let fingerprint t p =
  let segments =
    (if t.prefix = "" then [] else split_path t.prefix)
    @ (if p = "" then [] else split_path p)
  in
  List.fold_left fold_segment t.root segments

let stream t p = Rng.of_state (fingerprint t p)

let seed t p = Int64.to_int (Int64.shift_right_logical (fingerprint t p) 2)
