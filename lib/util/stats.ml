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

let geometric_mean xs =
  check_nonempty "Stats.geometric_mean" xs;
  Array.iter
    (fun x ->
      if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value")
    xs;
  exp (mean (Array.map log xs))

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

let median xs = quantile xs 0.5

let check_paired name xs ys =
  check_nonempty name xs;
  if Array.length xs <> Array.length ys then
    invalid_arg (name ^ ": arrays of different lengths")

let correlation xs ys =
  check_paired "Stats.correlation" xs ys;
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)

type linear_fit = { slope : float; intercept : float; r2 : float }

let linear_regression xs ys =
  check_paired "Stats.linear_regression" xs ys;
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx in
      sxy := !sxy +. (dx *. (ys.(i) -. my));
      sxx := !sxx +. (dx *. dx))
    xs;
  let slope = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = ref 0.0 and ss_tot = ref 0.0 in
  Array.iteri
    (fun i x ->
      let fitted = intercept +. (slope *. x) in
      let r = ys.(i) -. fitted and d = ys.(i) -. my in
      ss_res := !ss_res +. (r *. r);
      ss_tot := !ss_tot +. (d *. d))
    xs;
  let r2 = if !ss_tot = 0.0 then 1.0 else 1.0 -. (!ss_res /. !ss_tot) in
  { slope; intercept; r2 }

let rmse xs ys =
  check_paired "Stats.rmse" xs ys;
  let acc = Array.mapi (fun i x -> (x -. ys.(i)) ** 2.0) xs in
  sqrt (total acc /. float_of_int (Array.length xs))

let max_abs_error xs ys =
  check_paired "Stats.max_abs_error" xs ys;
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. ys.(i)))) xs;
  !worst
