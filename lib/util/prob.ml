let log_factorial =
  (* Cache small values; Stirling with correction terms beyond the cache. *)
  let cache_size = 256 in
  let cache = Array.make cache_size 0.0 in
  let () =
    for i = 2 to cache_size - 1 do
      cache.(i) <- cache.(i - 1) +. log (float_of_int i)
    done
  in
  fun n ->
    if n < 0 then invalid_arg "Prob.log_factorial: negative argument";
    if n < cache_size then cache.(n)
    else begin
      let x = float_of_int n in
      (* Stirling series: ln n! = n ln n - n + 0.5 ln(2 pi n) + 1/(12n) - ... *)
      (x *. log x) -. x
      +. (0.5 *. log (2.0 *. Float.pi *. x))
      +. (1.0 /. (12.0 *. x))
      -. (1.0 /. (360.0 *. (x ** 3.0)))
    end

let log_gamma x =
  (* For positive integer-plus-alpha arguments we only need moderate
     accuracy; use Stirling with corrections for x >= 10 and the recurrence
     below that. *)
  let rec shift x acc =
    if x >= 10.0 then (x, acc) else shift (x +. 1.0) (acc -. log x)
  in
  let x, acc = shift x 0.0 in
  acc
  +. ((x -. 0.5) *. log x)
  -. x
  +. (0.5 *. log (2.0 *. Float.pi))
  +. (1.0 /. (12.0 *. x))
  -. (1.0 /. (360.0 *. (x ** 3.0)))

let poisson_pmf ~lambda k =
  if lambda < 0.0 then invalid_arg "Prob.poisson_pmf: negative lambda";
  if k < 0 then 0.0
  else if lambda = 0.0 then (if k = 0 then 1.0 else 0.0)
  else exp ((float_of_int k *. log lambda) -. lambda -. log_factorial k)

let poisson_sample rng ~lambda =
  if lambda < 0.0 then invalid_arg "Prob.poisson_sample: negative lambda";
  if lambda = 0.0 then 0
  else if lambda > 500.0 then
    (* Normal approximation is ample at this size. *)
    let x = lambda +. (sqrt lambda *. Rng.gaussian rng) in
    max 0 (int_of_float (Float.round x))
  else begin
    (* Knuth inversion in log space to avoid underflow. *)
    let limit = -.lambda in
    let rec loop k acc =
      let acc = acc +. log (1.0 -. Rng.float rng 1.0) in
      if acc < limit then k else loop (k + 1) acc
    in
    loop 0 0.0
  end

(* Marsaglia-Tsang Gamma(shape, scale 1) generator; the shape < 1 case uses
   the boosting identity Gamma(a) = Gamma(a+1) * U^(1/a). *)
let rec gamma_sample rng ~shape =
  if shape <= 0.0 || Float.is_nan shape then
    invalid_arg "Prob.gamma_sample: shape must be positive";
  if shape < 1.0 then begin
    let u = 1.0 -. Rng.float rng 1.0 in
    gamma_sample rng ~shape:(shape +. 1.0) *. (u ** (1.0 /. shape))
  end
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x = Rng.gaussian rng in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then draw ()
      else begin
        let v3 = v *. v *. v in
        let u = 1.0 -. Rng.float rng 1.0 in
        if log u < (0.5 *. x *. x) +. d -. (d *. v3) +. (d *. log v3) then d *. v3
        else draw ()
      end
    in
    draw ()
  end

let gamma_mixing_sample rng ~alpha =
  if alpha <= 0.0 then invalid_arg "Prob.gamma_mixing_sample: alpha must be positive";
  (* alpha = infinity is the Poisson limit: a point mass at the mean. *)
  if Float.is_finite alpha then gamma_sample rng ~shape:alpha /. alpha else 1.0

let negative_binomial_pmf ~mean ~alpha k =
  if mean < 0.0 || alpha <= 0.0 then
    invalid_arg "Prob.negative_binomial_pmf: need mean >= 0 and alpha > 0";
  if k < 0 then 0.0
  else if mean = 0.0 then (if k = 0 then 1.0 else 0.0)
  else begin
    let kf = float_of_int k in
    let log_choose =
      log_gamma (kf +. alpha) -. log_gamma alpha -. log_factorial k
    in
    let p = mean /. (mean +. alpha) in
    exp (log_choose +. (kf *. log p) +. (alpha *. log (1.0 -. p)))
  end

let truncated_poisson_mean ~lambda =
  if lambda <= 0.0 then invalid_arg "Prob.truncated_poisson_mean: need lambda > 0";
  lambda /. (1.0 -. exp (-.lambda))
