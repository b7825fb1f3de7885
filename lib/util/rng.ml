type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let of_state state = { state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  (* Two successive outputs seed the child: the second is mixed again so the
     child stream cannot collide with the parent's. *)
  let s = bits64 t in
  { state = mix64 s }

let word = bits64

(* Uniform int in [0, n) by rejection on the top bits to avoid modulo bias. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.(sub (add bits (sub n64 1L)) v) < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random mantissa bits. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Rng.exponential: lambda must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. lambda

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let log_uniform t lo hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Rng.log_uniform: need 0 < lo <= hi";
  exp (float_in t (log lo) (log hi))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first k slots need to be randomized. *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.init k (fun i -> arr.(idx.(i)))

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
