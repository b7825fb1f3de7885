let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let total xs =
  (* Kahan summation keeps the large dynamic ranges of fault weights exact
     enough for yield computations. *)
  let sum = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum

let mean xs =
  check_nonempty "Stats.mean" xs;
  total xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
    total acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  check_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let quantile xs q =
  check_nonempty "Stats.quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats.quantile: NaN in data")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
  end
