open Dl_util

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-9) msg a b =
  Alcotest.(check (float eps)) msg a b

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_int_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 10%" true (frac > 0.08 && frac < 0.12))
    buckets

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 13 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample rng arr 10 in
  Alcotest.(check int) "10 elements" 10 (Array.length s);
  let tbl = Hashtbl.create 10 in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) s;
  Alcotest.(check int) "all distinct" 10 (Hashtbl.length tbl)

let test_rng_split_independence () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_exponential_mean () =
  let rng = Rng.create 21 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng 2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 23 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean xs) < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.02)

let test_rng_log_uniform () =
  let rng = Rng.create 25 in
  for _ = 1 to 1000 do
    let v = Rng.log_uniform rng 1e-9 1e-6 in
    Alcotest.(check bool) "in range" true (v >= 1e-9 && v <= 1e-6)
  done

(* --- Stats -------------------------------------------------------------- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  check_float "variance" 2.5 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_single_variance () = check_float "single" 0.0 (Stats.variance [| 42.0 |])

let test_stats_total_kahan () =
  (* 1e16 + many small values: naive summation loses them all. *)
  let xs = Array.make 1001 1.0 in
  xs.(0) <- 1e16;
  check_float "kahan" 1e16 (Stats.total xs -. 1000.0)

let test_stats_quantile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.quantile xs 0.5);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 5.0 (Stats.quantile xs 1.0);
  check_float "q25" 2.0 (Stats.quantile xs 0.25)

let test_stats_quantile_float_order () =
  (* Float.compare ordering: infinities and subnormals sort numerically.
     (Polymorphic compare happened to work on plain floats, but the sort
     must be explicit about NaN-free float ordering.) *)
  let xs = [| infinity; -3.0; neg_infinity; 0.5; 1e308 |] in
  check_float "q0 is -inf" neg_infinity (Stats.quantile xs 0.0);
  check_float "q1 is +inf" infinity (Stats.quantile xs 1.0);
  check_float "median" 0.5 (Stats.quantile xs 0.5)

let test_stats_quantile_rejects_nan () =
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Stats.quantile: NaN in data") (fun () ->
      ignore (Stats.quantile [| 1.0; nan; 2.0 |] 0.5));
  Alcotest.check_raises "single NaN rejected"
    (Invalid_argument "Stats.quantile: NaN in data") (fun () ->
      ignore (Stats.quantile [| nan |] 0.5))

let test_stats_empty_rejected () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

(* --- Histogram ---------------------------------------------------------- *)

let test_histogram_linear () =
  let h = Histogram.create (Histogram.Linear { lo = 0.0; hi = 10.0; bins = 5 }) in
  Histogram.add_many h [| 1.0; 3.0; 5.0; 7.0; 9.0; 10.0 |];
  Alcotest.(check (array int)) "counts" [| 1; 1; 1; 1; 2 |] (Histogram.counts h);
  Alcotest.(check int) "total" 6 (Histogram.total h)

let test_histogram_out_of_range () =
  let h = Histogram.create (Histogram.Linear { lo = 0.0; hi = 1.0; bins = 2 }) in
  Histogram.add h (-1.0);
  Histogram.add h 2.0;
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Histogram.overflow h)

let test_histogram_log () =
  let h = Histogram.create (Histogram.Log10 { lo = 1e-9; hi = 1e-6; bins = 3 }) in
  Histogram.add_many h [| 5e-9; 5e-8; 5e-7 |];
  Alcotest.(check (array int)) "one per decade" [| 1; 1; 1 |] (Histogram.counts h)

let test_histogram_edges_monotone () =
  let h = Histogram.create (Histogram.Log10 { lo = 1e-9; hi = 1e-5; bins = 16 }) in
  let edges = Histogram.bin_edges h in
  for i = 0 to Array.length edges - 2 do
    Alcotest.(check bool) "monotone" true (edges.(i) < edges.(i + 1))
  done

let test_histogram_render () =
  let h = Histogram.create (Histogram.Linear { lo = 0.0; hi = 1.0; bins = 2 }) in
  Histogram.add h 0.2;
  Alcotest.(check bool) "renders" true (String.length (Histogram.render h) > 0)

(* --- Numerics ----------------------------------------------------------- *)

let test_bisect () =
  let root = Numerics.bisect ~f:(fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close ~eps:1e-9 "sqrt2" (sqrt 2.0) root

let test_bisect_no_bracket () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Numerics.bisect: no sign change over bracket") (fun () ->
      ignore (Numerics.bisect ~f:(fun x -> (x *. x) +. 1.0) (-1.0) 1.0))

let test_integrate () =
  let v = Numerics.integrate ~f:(fun x -> x *. x) 0.0 1.0 in
  check_close ~eps:1e-9 "x^2 integral" (1.0 /. 3.0) v

let test_pow1m () =
  check_float "0^0" 1.0 (Numerics.pow1m 0.0 0.0);
  check_float "0^2" 0.0 (Numerics.pow1m 0.0 2.0);
  check_close "0.75^0.5" (sqrt 0.75) (Numerics.pow1m 0.75 0.5)

let test_ppm () =
  check_float "ppm" 100.0 (Numerics.ppm 1e-4)

let test_clamp () =
  check_float "clamp low" 0.0 (Numerics.clamp01 (-1.0));
  check_float "clamp high" 1.0 (Numerics.clamp01 2.0);
  check_float "clamp pass" 0.5 (Numerics.clamp01 0.5)

(* --- Simplex / Fit ------------------------------------------------------- *)

let test_simplex_quadratic () =
  let f p = ((p.(0) -. 2.0) ** 2.0) +. ((p.(1) +. 1.0) ** 2.0) in
  let r = Simplex.minimize ~f [| 0.0; 0.0 |] in
  Alcotest.(check bool) "converged" true r.converged;
  check_close ~eps:1e-4 "x0" 2.0 r.xmin.(0);
  check_close ~eps:1e-4 "x1" (-1.0) r.xmin.(1)

let test_simplex_rosenbrock () =
  let f p =
    let a = 1.0 -. p.(0) and b = p.(1) -. (p.(0) *. p.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r = Simplex.minimize ~max_iter:20_000 ~tol:1e-12 ~f [| -1.2; 1.0 |] in
  check_close ~eps:1e-3 "rosenbrock x" 1.0 r.xmin.(0);
  check_close ~eps:1e-3 "rosenbrock y" 1.0 r.xmin.(1)

let test_simplex_bounded () =
  let f p = (p.(0) -. 5.0) ** 2.0 in
  let r = Simplex.minimize_bounded ~f ~lo:[| 0.0 |] ~hi:[| 2.0 |] [| 1.0 |] in
  check_close ~eps:1e-4 "clamped to bound" 2.0 r.xmin.(0)

(* The simplex before its bookkeeping moved into per-descent buffers (fresh
   arrays per trial point and per ordering), kept as the oracle the
   in-place version must equal bit for bit. *)
module Old_simplex = struct
  open Simplex

  let alpha = 1.0
  let gamma = 2.0
  let rho = 0.5
  let sigma = 0.5

  let minimize ?(tol = 1e-10) ?(max_iter = 2000) ?(step = 0.1) ~f x0 =
    let n = Array.length x0 in
    if n = 0 then invalid_arg "Simplex.minimize: empty start point";
    (* n+1 vertices: x0 plus one perturbation per coordinate. *)
    let vertex i =
      if i = 0 then Array.copy x0
      else begin
        let v = Array.copy x0 in
        let j = i - 1 in
        let delta =
          let rel = step *. Float.abs v.(j) in
          if rel > 0.0 then rel else step
        in
        v.(j) <- v.(j) +. delta;
        v
      end
    in
    let xs = Array.init (n + 1) vertex in
    let fs = Array.map f xs in
    let order () =
      let idx = Array.init (n + 1) (fun i -> i) in
      Array.sort (fun a b -> compare fs.(a) fs.(b)) idx;
      let xs' = Array.map (fun i -> xs.(i)) idx in
      let fs' = Array.map (fun i -> fs.(i)) idx in
      Array.blit xs' 0 xs 0 (n + 1);
      Array.blit fs' 0 fs 0 (n + 1)
    in
    let centroid () =
      (* Centroid of all vertices except the worst (last after ordering). *)
      let c = Array.make n 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          c.(j) <- c.(j) +. (xs.(i).(j) /. float_of_int n)
        done
      done;
      c
    in
    let combine c x coef =
      Array.init n (fun j -> c.(j) +. (coef *. (c.(j) -. x.(j))))
    in
    let diameter () =
      let d = ref 0.0 in
      for i = 1 to n do
        for j = 0 to n - 1 do
          d := Float.max !d (Float.abs (xs.(i).(j) -. xs.(0).(j)))
        done
      done;
      !d
    in
    let iterations = ref 0 in
    order ();
    let converged = ref (diameter () <= tol) in
    while (not !converged) && !iterations < max_iter do
      incr iterations;
      let c = centroid () in
      let xr = combine c xs.(n) alpha in
      let fr = f xr in
      if fr < fs.(0) then begin
        let xe = combine c xs.(n) gamma in
        let fe = f xe in
        if fe < fr then begin
          xs.(n) <- xe;
          fs.(n) <- fe
        end
        else begin
          xs.(n) <- xr;
          fs.(n) <- fr
        end
      end
      else if fr < fs.(n - 1) then begin
        xs.(n) <- xr;
        fs.(n) <- fr
      end
      else begin
        (* Contract toward the centroid; on failure shrink toward the best. *)
        let xc =
          if fr < fs.(n) then combine c xs.(n) (rho *. alpha)
          else Array.init n (fun j -> c.(j) -. (rho *. (c.(j) -. xs.(n).(j))))
        in
        let fc = f xc in
        if fc < Float.min fr fs.(n) then begin
          xs.(n) <- xc;
          fs.(n) <- fc
        end
        else
          for i = 1 to n do
            xs.(i) <-
              Array.init n (fun j -> xs.(0).(j) +. (sigma *. (xs.(i).(j) -. xs.(0).(j))));
            fs.(i) <- f xs.(i)
          done
      end;
      order ();
      if diameter () <= tol then converged := true
    done;
    { xmin = Array.copy xs.(0); fmin = fs.(0); iterations = !iterations; converged = !converged }

  let minimize_bounded ?tol ?max_iter ~f ~lo ~hi x0 =
    let n = Array.length x0 in
    if Array.length lo <> n || Array.length hi <> n then
      invalid_arg "Simplex.minimize_bounded: bound arrays must match x0";
    Array.iteri
      (fun i l -> if l > hi.(i) then invalid_arg "Simplex.minimize_bounded: lo > hi")
      lo;
    let project x = Array.mapi (fun i v -> Dl_util.Numerics.clamp ~lo:lo.(i) ~hi:hi.(i) v) x in
    let f_clamped x = f (project x) in
    let x0 = project x0 in
    let r = minimize ?tol ?max_iter ~f:f_clamped x0 in
    { r with xmin = project r.xmin; fmin = f (project r.xmin) }
end

(* Piecewise-flat objectives make vertex ties (their order is observable
   through [Array.sort]), and infinite and NaN values exercise the
   comparisons; both the free and the bounded descents must match the old
   code exactly: minimizer bits, value bits, iterations, convergence. *)
let prop_simplex_equals_old =
  QCheck.Test.make ~name:"Simplex = pre-buffer simplex, bit for bit" ~count:300
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 3 in
          let* centre = array_repeat n (float_range (-3.0) 3.0) in
          let* x0 = array_repeat n (float_range (-5.0) 5.0) in
          let* quantum = oneofl [ 0.0; 0.01; 0.5 ] in
          let* hole = oneofl [ `None; `Inf; `Nan ] in
          return (centre, x0, quantum, hole)))
    (fun (centre, x0, quantum, hole) ->
      let f p =
        let acc = ref 0.0 in
        Array.iteri (fun j c -> acc := !acc +. (float_of_int (j + 1) *. (p.(j) -. c) ** 2.0)) centre;
        let v = if quantum > 0.0 then Float.round (!acc /. quantum) *. quantum else !acc in
        match hole with
        | `Inf when p.(0) > 2.5 -> infinity
        | `Nan when p.(0) < -2.5 -> Float.nan
        | _ -> v
      in
      let same (a : Simplex.result) (b : Simplex.result) =
        Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a.xmin b.xmin
        && Int64.bits_of_float a.fmin = Int64.bits_of_float b.fmin
        && a.iterations = b.iterations && a.converged = b.converged
      in
      let lo = Array.map (fun _ -> -2.0) x0 and hi = Array.map (fun _ -> 1.5) x0 in
      same (Simplex.minimize ~max_iter:500 ~f x0) (Old_simplex.minimize ~max_iter:500 ~f x0)
      && same (Simplex.minimize_bounded ~f ~lo ~hi x0) (Old_simplex.minimize_bounded ~f ~lo ~hi x0))

let test_curve_fit_exponential () =
  let xs = Array.init 30 (fun i -> float_of_int i /. 5.0) in
  let pts =
    Array.to_list (Array.map (fun x -> (x, 3.0 *. exp (-0.7 *. x))) xs)
  in
  let model p x = p.(0) *. exp (-.p.(1) *. x) in
  let r =
    Fit.curve_fit ~model ~lo:[| 0.1; 0.01 |] ~hi:[| 10.0; 5.0 |] ~init:[| 1.0; 1.0 |]
      (Fit.make_data pts)
  in
  check_close ~eps:1e-4 "amplitude" 3.0 r.params.(0);
  check_close ~eps:1e-4 "rate" 0.7 r.params.(1);
  Alcotest.(check bool) "small rmse" true (r.rmse < 1e-5)

(* --- Parallel ------------------------------------------------------------- *)

exception Task_failed of int

let test_parallel_map () =
  List.iter
    (fun domains ->
      Parallel.with_pool ~domains (fun pool ->
          Alcotest.(check int) "pool size" domains (Parallel.size pool);
          let out = Parallel.map pool ~tasks:100 (fun i -> i * i) in
          Alcotest.(check (array int)) "squares in index order"
            (Array.init 100 (fun i -> i * i))
            out))
    [ 1; 2; 4 ]

let test_parallel_run_exactly_once () =
  Parallel.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 257 (Atomic.make 0) in
      Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
      Parallel.run pool ~tasks:257 (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "task %d once" i) 1
            (Atomic.get h))
        hits;
      (* empty batches are fine, and the pool is reusable afterwards *)
      Parallel.run pool ~tasks:0 (fun _ -> assert false);
      Alcotest.(check (array int)) "reused" [| 0; 2; 4 |]
        (Parallel.map pool ~tasks:3 (fun i -> 2 * i)))

let test_parallel_exception_propagates () =
  Parallel.with_pool ~domains:3 (fun pool ->
      let raised =
        try
          Parallel.run pool ~tasks:20 (fun i -> if i = 13 then raise (Task_failed i));
          false
        with Task_failed 13 -> true
      in
      Alcotest.(check bool) "task exception reaches caller" true raised;
      (* the pool survives a failed batch *)
      Alcotest.(check (array int)) "alive after failure" [| 0; 1; 2; 3 |]
        (Parallel.map pool ~tasks:4 Fun.id))

let test_parallel_rejects_bad_size () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.create: need at least one domain") (fun () ->
      ignore (Parallel.create ~domains:0 ()));
  (* Rejected before any domain is spawned. *)
  Alcotest.check_raises "past the runtime's domain limit"
    (Invalid_argument "Parallel.create: at most 128 domains, got 129")
    (fun () -> ignore (Parallel.create ~domains:(Parallel.max_domains + 1) ()))

(* --- Prob ---------------------------------------------------------------- *)

let test_poisson_pmf_sums () =
  let lambda = 3.0 in
  let acc = ref 0.0 in
  for k = 0 to 60 do
    acc := !acc +. Prob.poisson_pmf ~lambda k
  done;
  check_close ~eps:1e-9 "pmf sums to 1" 1.0 !acc

let test_poisson_pmf_mean () =
  let lambda = 4.2 in
  let acc = ref 0.0 in
  for k = 0 to 100 do
    acc := !acc +. (float_of_int k *. Prob.poisson_pmf ~lambda k)
  done;
  check_close ~eps:1e-6 "mean" lambda !acc

let test_poisson_sample_mean () =
  let rng = Rng.create 31 in
  let n = 20_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Prob.poisson_sample rng ~lambda:2.5
  done;
  let mean = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "sample mean near 2.5" true (Float.abs (mean -. 2.5) < 0.05)

let test_negative_binomial_limits () =
  (* Large alpha converges to Poisson. *)
  let lambda = 2.0 in
  for k = 0 to 10 do
    let nb = Prob.negative_binomial_pmf ~mean:lambda ~alpha:1e7 k in
    let po = Prob.poisson_pmf ~lambda k in
    Alcotest.(check bool) "nb -> poisson" true (Float.abs (nb -. po) < 1e-4)
  done

let test_negative_binomial_sums () =
  let acc = ref 0.0 in
  for k = 0 to 500 do
    acc := !acc +. Prob.negative_binomial_pmf ~mean:3.0 ~alpha:0.5 k
  done;
  check_close ~eps:1e-6 "nb sums to 1" 1.0 !acc

let test_truncated_poisson () =
  (* Small lambda: conditional mean -> 1. *)
  Alcotest.(check bool) "small lambda" true
    (Prob.truncated_poisson_mean ~lambda:1e-6 < 1.001);
  check_close ~eps:1e-9 "lambda 2"
    (2.0 /. (1.0 -. exp (-2.0)))
    (Prob.truncated_poisson_mean ~lambda:2.0)

let test_log_factorial () =
  check_close ~eps:1e-9 "5!" (log 120.0) (Prob.log_factorial 5);
  (* Stirling branch vs exact recurrence at the cache boundary. *)
  let exact n =
    let acc = ref 0.0 in
    for i = 2 to n do
      acc := !acc +. log (float_of_int i)
    done;
    !acc
  in
  Alcotest.(check bool) "large n accurate" true
    (Float.abs (Prob.log_factorial 300 -. exact 300) < 1e-6)

let sample_moments f n =
  let xs = Array.init n (fun _ -> f ()) in
  let m = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let v =
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (n - 1)
  in
  (m, v)

let test_gamma_sample_moments () =
  (* Gamma(shape, 1): mean = variance = shape; covers both the
     Marsaglia-Tsang core (shape >= 1) and the boosting branch. *)
  List.iter
    (fun shape ->
      let rng = Rng.create 123 in
      let n = 20_000 in
      let m, v = sample_moments (fun () -> Prob.gamma_sample rng ~shape) n in
      let fn = float_of_int n in
      let mean_tol = 6.0 *. sqrt (shape /. fn) in
      let var_tol =
        (6.0 *. sqrt (((2.0 *. shape *. shape) +. (6.0 *. shape)) /. fn))
        +. 0.02
      in
      Alcotest.(check bool)
        (Printf.sprintf "gamma(%g) mean" shape)
        true
        (Float.abs (m -. shape) < mean_tol);
      Alcotest.(check bool)
        (Printf.sprintf "gamma(%g) variance" shape)
        true
        (Float.abs (v -. shape) < var_tol))
    [ 0.4; 1.0; 2.0; 7.5 ]

let test_gamma_sample_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero shape"
    (Invalid_argument "Prob.gamma_sample: shape must be positive") (fun () ->
      ignore (Prob.gamma_sample rng ~shape:0.0));
  Alcotest.check_raises "nan shape"
    (Invalid_argument "Prob.gamma_sample: shape must be positive") (fun () ->
      ignore (Prob.gamma_sample rng ~shape:Float.nan));
  Alcotest.check_raises "mixing zero alpha"
    (Invalid_argument "Prob.gamma_mixing_sample: alpha must be positive")
    (fun () -> ignore (Prob.gamma_mixing_sample rng ~alpha:0.0))

let test_gamma_mixing_sample () =
  let rng = Rng.create 5 in
  check_close ~eps:0.0 "infinite alpha degenerates to 1"
    1.0
    (Prob.gamma_mixing_sample rng ~alpha:Float.infinity);
  (* mean-1 severity: mean ~ 1, variance ~ 1/alpha *)
  let alpha = 2.0 in
  let m, v =
    sample_moments (fun () -> Prob.gamma_mixing_sample rng ~alpha) 20_000
  in
  Alcotest.(check bool) "mixing mean 1" true (Float.abs (m -. 1.0) < 0.03);
  Alcotest.(check bool)
    "mixing variance 1/alpha" true
    (Float.abs (v -. (1.0 /. alpha)) < 0.05)

let test_poisson_sample_chisq () =
  (* Chi-square goodness of fit against the pmf: bins 0..8 plus the >= 9
     tail, 20k draws at a fixed seed.  chi2_{0.999, df=9} = 27.88. *)
  let lambda = 2.5 in
  let n = 20_000 in
  let rng = Rng.create 2024 in
  let bins = 9 in
  let counts = Array.make (bins + 1) 0 in
  for _ = 1 to n do
    let k = Prob.poisson_sample rng ~lambda in
    let b = if k >= bins then bins else k in
    counts.(b) <- counts.(b) + 1
  done;
  let chi2 = ref 0.0 in
  let tail_p = ref 1.0 in
  for k = 0 to bins - 1 do
    let p = Prob.poisson_pmf ~lambda k in
    tail_p := !tail_p -. p;
    let expected = float_of_int n *. p in
    let d = float_of_int counts.(k) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  let expected_tail = float_of_int n *. !tail_p in
  let d = float_of_int counts.(bins) -. expected_tail in
  chi2 := !chi2 +. (d *. d /. expected_tail);
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f < 27.88" !chi2)
    true (!chi2 < 27.88)

(* --- Table ---------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned numbers line up on the right edge. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_table_arity_check () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  Alcotest.(check string) "pct" "97.70%" (Table.fmt_pct 0.977);
  Alcotest.(check string) "ppm" "100.0 ppm" (Table.fmt_ppm 1e-4)

(* --- Seeds ----------------------------------------------------------------- *)

let test_seeds_replayable () =
  let s = Seeds.create 42 in
  let a = Seeds.stream s "bench-serve/client-3/req-17" in
  let b = Seeds.stream s "bench-serve/client-3/req-17" in
  for _ = 1 to 64 do
    Alcotest.(check int64) "same stream twice" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_path_sensitivity () =
  let s = Seeds.create 42 in
  let fp = Seeds.fingerprint s in
  Alcotest.(check bool) "sibling paths differ" false
    (fp "client-3/req-17" = fp "client-3/req-18");
  Alcotest.(check bool) "segment split matters" false
    (fp "ab/c" = fp "a/bc");
  Alcotest.(check bool) "master seed matters" false
    (Seeds.fingerprint (Seeds.create 43) "client-3/req-17"
    = fp "client-3/req-17")

let test_seeds_scope_composes () =
  let root = Seeds.create 9 in
  let direct = Seeds.fingerprint root "a/b/c" in
  let via_one = Seeds.fingerprint (Seeds.scope root "a") "b/c" in
  let via_two = Seeds.fingerprint (Seeds.scope (Seeds.scope root "a") "b") "c" in
  Alcotest.(check int64) "scope = path prefix (1 level)" direct via_one;
  Alcotest.(check int64) "scope = path prefix (2 levels)" direct via_two

let test_seeds_order_independent () =
  (* Deriving streams is pure: consuming one stream never perturbs another,
     regardless of derivation or consumption order. *)
  let s = Seeds.create 5 in
  let a1 = Seeds.stream s "a" in
  let burn = Seeds.stream s "b" in
  for _ = 1 to 100 do ignore (Rng.bits64 burn) done;
  let a2 = Seeds.stream s "a" in
  for _ = 1 to 16 do
    Alcotest.(check int64) "derivation is pure" (Rng.bits64 a1) (Rng.bits64 a2)
  done

(* --- Latency ---------------------------------------------------------------- *)

let test_latency_empty () =
  let h = Latency.create () in
  check_float "empty p50 is 0, not nan" 0.0 (Latency.percentile h 0.5);
  check_float "empty p999 is 0" 0.0 (Latency.percentile h 0.999);
  check_float "empty mean" 0.0 (Latency.mean_ms h);
  Alcotest.(check int) "empty count" 0 (Latency.count h)

let test_latency_single () =
  let h = Latency.create () in
  Latency.add h 12.5;
  (* One sample: every percentile is that sample (within bucket error,
     capped by the exact max). *)
  check_float "p50 = the sample" 12.5 (Latency.percentile h 0.5);
  check_float "p999 = the sample" 12.5 (Latency.percentile h 0.999);
  check_float "max exact" 12.5 (Latency.max_ms h)

let test_latency_relative_error () =
  let h = Latency.create () in
  let rng = Rng.create 3 in
  let samples = Array.init 2000 (fun _ -> Rng.log_uniform rng 0.01 1e4) in
  Array.iter (Latency.add h) samples;
  Array.sort Float.compare samples;
  List.iter
    (fun q ->
      let exact =
        samples.(min 1999 (int_of_float (ceil (q *. 2000.)) - 1))
      in
      let approx = Latency.percentile h q in
      (* Upper bucket edge: >= exact, and within the ~2.3% grid ratio. *)
      Alcotest.(check bool)
        (Printf.sprintf "p%g in [exact, exact*1.03]" (q *. 100.))
        true
        (approx >= exact -. 1e-9 && approx <= (exact *. 1.03) +. 1e-9))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_latency_merge () =
  let a = Latency.create () and b = Latency.create () and all = Latency.create () in
  let rng = Rng.create 8 in
  for i = 1 to 500 do
    let v = Rng.log_uniform rng 0.1 100.0 in
    Latency.add (if i mod 2 = 0 then a else b) v;
    Latency.add all v
  done;
  Latency.merge a b;
  Alcotest.(check int) "merged count" (Latency.count all) (Latency.count a);
  check_float "merged max" (Latency.max_ms all) (Latency.max_ms a);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "merged p%g" (q *. 100.))
        (Latency.percentile all q) (Latency.percentile a q))
    [ 0.5; 0.99; 0.999 ]

let test_latency_outliers () =
  let h = Latency.create () in
  Latency.add h Float.nan;
  Latency.add h (-5.0);
  Latency.add h 1e12;
  Alcotest.(check int) "all three counted" 3 (Latency.count h);
  Alcotest.(check bool) "percentiles stay finite" true
    (Float.is_finite (Latency.percentile h 0.999))

(* --- qcheck properties ----------------------------------------------------- *)

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3)) (float_range 0.0 1.0))
    (fun (l, q) ->
      let xs = Array.of_list l in
      let v = Stats.quantile xs q in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_histogram_conserves =
  QCheck.Test.make ~name:"histogram conserves observations" ~count:200
    QCheck.(list (float_range (-10.0) 10.0))
    (fun l ->
      let h = Histogram.create (Histogram.Linear { lo = -5.0; hi = 5.0; bins = 7 }) in
      List.iter (Histogram.add h) l;
      Histogram.total h = List.length l)

let prop_weight_probability_inverse =
  QCheck.Test.make ~name:"expm1/log1p inverses" ~count:500
    QCheck.(float_range 0.0 0.999)
    (fun p ->
      let w = -.Float.log1p (-.p) in
      let p' = -.Float.expm1 (-.w) in
      Float.abs (p -. p') < 1e-12)

let segments_gen =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (map
         (fun l -> String.concat "" (List.map (String.make 1) l))
         (list_size (int_range 0 6) (oneofl [ 'a'; 'b'; 'x'; '7'; '-' ]))))

let prop_seeds_distinct_paths =
  QCheck.Test.make ~name:"distinct paths get distinct streams" ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%S vs %S" (String.concat "/" a) (String.concat "/" b))
       QCheck.Gen.(pair segments_gen segments_gen))
    (fun (a, b) ->
      let pa = String.concat "/" a and pb = String.concat "/" b in
      let s = Seeds.create 0 in
      pa = pb || Seeds.fingerprint s pa <> Seeds.fingerprint s pb)

let prop_seeds_scope_is_path_prefix =
  QCheck.Test.make ~name:"scope chain = joined path" ~count:500
    (QCheck.make
       ~print:(fun (segs, leaf) ->
         Printf.sprintf "%s leaf %S" (String.concat "/" segs) leaf)
       QCheck.Gen.(
         pair
           (map (List.filter (fun s -> s <> "")) segments_gen)
           (oneofl [ "leaf"; "x" ])))
    (fun (segs, leaf) ->
      let s = Seeds.create 1 in
      let scoped = List.fold_left Seeds.scope s segs in
      let direct = String.concat "/" (segs @ [ leaf ]) in
      Seeds.fingerprint scoped leaf = Seeds.fingerprint s direct)

(* Distribution properties over randomly-drawn parameters.  The sampler rng
   is derived deterministically from the parameters, so each parameter
   point is a reproducible 6-sigma moment check — the QCheck layer only
   varies which points get probed. *)
let prop_gamma_sample_mean =
  QCheck.Test.make ~name:"gamma_sample mean tracks shape" ~count:40
    QCheck.(float_range 0.3 12.0)
    (fun shape ->
      let rng = Rng.create (Hashtbl.hash (Printf.sprintf "g/%.9f" shape)) in
      let n = 4_000 in
      let acc = ref 0.0 in
      for _ = 1 to n do
        acc := !acc +. Prob.gamma_sample rng ~shape
      done;
      let m = !acc /. float_of_int n in
      Float.abs (m -. shape) < (6.0 *. sqrt (shape /. float_of_int n)) +. 0.01)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_quantile_bounds; prop_histogram_conserves;
      prop_weight_probability_inverse; prop_seeds_distinct_paths;
      prop_seeds_scope_is_path_prefix; prop_gamma_sample_mean ]

let () =
  Alcotest.run "dl_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "int rejects 0" `Quick test_rng_int_rejects;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "log uniform range" `Quick test_rng_log_uniform;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "variance singleton" `Quick test_stats_single_variance;
          Alcotest.test_case "kahan total" `Quick test_stats_total_kahan;
          Alcotest.test_case "quantiles" `Quick test_stats_quantile;
          Alcotest.test_case "quantile float order" `Quick
            test_stats_quantile_float_order;
          Alcotest.test_case "quantile rejects NaN" `Quick
            test_stats_quantile_rejects_nan;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "linear bins" `Quick test_histogram_linear;
          Alcotest.test_case "under/overflow" `Quick test_histogram_out_of_range;
          Alcotest.test_case "log bins" `Quick test_histogram_log;
          Alcotest.test_case "edges monotone" `Quick test_histogram_edges_monotone;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "bisect bad bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "simpson" `Quick test_integrate;
          Alcotest.test_case "pow1m" `Quick test_pow1m;
          Alcotest.test_case "ppm" `Quick test_ppm;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
      ( "fit",
        [
          Alcotest.test_case "simplex quadratic" `Quick test_simplex_quadratic;
          Alcotest.test_case "simplex rosenbrock" `Quick test_simplex_rosenbrock;
          Alcotest.test_case "simplex bounded" `Quick test_simplex_bounded;
          QCheck_alcotest.to_alcotest prop_simplex_equals_old;
          Alcotest.test_case "exponential fit" `Quick test_curve_fit_exponential;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map ordered" `Quick test_parallel_map;
          Alcotest.test_case "each task once" `Quick test_parallel_run_exactly_once;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "size validation" `Quick test_parallel_rejects_bad_size;
        ] );
      ( "prob",
        [
          Alcotest.test_case "poisson sums to 1" `Quick test_poisson_pmf_sums;
          Alcotest.test_case "poisson mean" `Quick test_poisson_pmf_mean;
          Alcotest.test_case "poisson sampling" `Quick test_poisson_sample_mean;
          Alcotest.test_case "nb -> poisson limit" `Quick test_negative_binomial_limits;
          Alcotest.test_case "nb sums to 1" `Quick test_negative_binomial_sums;
          Alcotest.test_case "truncated poisson" `Quick test_truncated_poisson;
          Alcotest.test_case "log factorial" `Quick test_log_factorial;
          Alcotest.test_case "gamma sampling moments" `Quick
            test_gamma_sample_moments;
          Alcotest.test_case "gamma sampling validation" `Quick
            test_gamma_sample_rejects;
          Alcotest.test_case "gamma mixing severity" `Quick
            test_gamma_mixing_sample;
          Alcotest.test_case "poisson sampling chi-square" `Quick
            test_poisson_sample_chisq;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "formatters" `Quick test_table_formats;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "replayable" `Quick test_seeds_replayable;
          Alcotest.test_case "path sensitivity" `Quick
            test_seeds_path_sensitivity;
          Alcotest.test_case "scope composes" `Quick test_seeds_scope_composes;
          Alcotest.test_case "order independent" `Quick
            test_seeds_order_independent;
        ] );
      ( "latency",
        [
          Alcotest.test_case "empty window is 0.0" `Quick test_latency_empty;
          Alcotest.test_case "single sample" `Quick test_latency_single;
          Alcotest.test_case "relative error" `Quick
            test_latency_relative_error;
          Alcotest.test_case "merge" `Quick test_latency_merge;
          Alcotest.test_case "outliers clamped" `Quick test_latency_outliers;
        ] );
      ("properties", qcheck_cases);
    ]
