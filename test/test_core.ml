open Dl_core

let checkf = Alcotest.(check (float 1e-9))
let checkf_eps eps = Alcotest.(check (float eps))

(* --- Williams-Brown (eq. 1) ------------------------------------------------------ *)

let test_wb_endpoints () =
  checkf "DL(0) = 1 - Y" 0.25 (Williams_brown.defect_level ~yield:0.75 ~coverage:0.0);
  checkf "DL(1) = 0" 0.0 (Williams_brown.defect_level ~yield:0.75 ~coverage:1.0);
  checkf "Y=1 means DL=0" 0.0 (Williams_brown.defect_level ~yield:1.0 ~coverage:0.5)

let test_wb_known_value () =
  (* the classic 1981 example: Y=0.5, T=0.9 -> DL ~ 6.7% *)
  checkf_eps 1e-4 "Y=.5 T=.9" 0.0670
    (Williams_brown.defect_level ~yield:0.5 ~coverage:0.9)

let test_wb_required_coverage_inverse () =
  let yield_ = 0.6 in
  List.iter
    (fun t ->
      let dl = Williams_brown.defect_level ~yield:yield_ ~coverage:t in
      if dl > 0.0 then
        checkf_eps 1e-9 "roundtrip" t
          (Williams_brown.required_coverage ~yield:yield_ ~target_dl:dl))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_wb_paper_example_1 () =
  (* Example 1's WB side: Y=0.75, DL=100ppm -> T = 99.97% *)
  checkf_eps 1e-4 "T = 99.97%" 0.99965
    (Williams_brown.required_coverage ~yield:0.75 ~target_dl:1e-4)

let test_wb_yield_from () =
  let y = Williams_brown.yield_from ~coverage:0.9 ~defect_level:0.0670 in
  checkf_eps 1e-3 "yield recovery" 0.5 y

let test_wb_domain_checks () =
  Alcotest.(check bool) "yield 0 rejected" true
    (try
       ignore (Williams_brown.defect_level ~yield:0.0 ~coverage:0.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "coverage 2 rejected" true
    (try
       ignore (Williams_brown.defect_level ~yield:0.5 ~coverage:2.0);
       false
     with Invalid_argument _ -> true)

(* --- Agrawal (eq. 2) --------------------------------------------------------------- *)

let test_agrawal_endpoints () =
  checkf "DL(0) = 1-Y" 0.25 (Agrawal.defect_level ~yield:0.75 ~coverage:0.0 ~n:3.0);
  checkf "DL(1) = 0" 0.0 (Agrawal.defect_level ~yield:0.75 ~coverage:1.0 ~n:3.0)

let test_agrawal_n1_close_to_wb_small_dl () =
  (* with n = 1 the model is DL = (1-T)(1-Y)/(Y + (1-T)(1-Y)); for small
     (1-T) this tracks WB to first order *)
  let t = 0.99 in
  let wb = Williams_brown.defect_level ~yield:0.9 ~coverage:t in
  let ag = Agrawal.defect_level ~yield:0.9 ~coverage:t ~n:1.0 in
  Alcotest.(check bool) "same order of magnitude" true (ag /. wb > 0.5 && ag /. wb < 2.0)

let test_agrawal_larger_n_lower_dl () =
  (* more faults per faulty chip means faulty chips are easier to catch *)
  let dl n = Agrawal.defect_level ~yield:0.75 ~coverage:0.8 ~n in
  Alcotest.(check bool) "monotone in n" true (dl 5.0 < dl 2.0 && dl 2.0 < dl 1.0)

let test_agrawal_fit_recovers_n () =
  let yield_ = 0.7 and n_true = 4.0 in
  let points =
    List.map
      (fun t -> (t, Agrawal.defect_level ~yield:yield_ ~coverage:t ~n:n_true))
      [ 0.1; 0.3; 0.5; 0.7; 0.9; 0.95; 0.99 ]
  in
  let n_fit, rmse = Agrawal.fit_n ~yield:yield_ points in
  checkf_eps 1e-3 "n recovered" n_true n_fit;
  Alcotest.(check bool) "tiny rmse" true (rmse < 1e-6)

let test_agrawal_n_of_mean_defects () =
  checkf_eps 1e-9 "lambda 2"
    (2.0 /. (1.0 -. exp (-2.0)))
    (Agrawal.n_of_mean_defects ~lambda:2.0)

(* --- Weighted model (eqs. 3-6) -------------------------------------------------------- *)

let test_weighted_yield () =
  checkf "eq 5" (exp (-0.6)) (Weighted.yield_of_weights [| 0.1; 0.2; 0.3 |])

let test_weighted_coverage () =
  checkf "eq 6" 0.5
    (Weighted.coverage ~weights:[| 1.0; 2.0; 3.0 |] ~detected:[| true; true; false |])

let test_weighted_scale_to_yield () =
  let weights = [| 0.01; 0.02; 0.005 |] in
  let scaled, factor = Weighted.scale_to_yield ~weights ~target_yield:0.75 in
  checkf "target reached" 0.75 (Weighted.yield_of_weights scaled);
  Alcotest.(check bool) "factor positive" true (factor > 0.0);
  (* scaling is uniform, so relative coverage is invariant *)
  let detected = [| true; false; true |] in
  checkf "theta invariant"
    (Weighted.coverage ~weights ~detected)
    (Weighted.coverage ~weights:scaled ~detected)

let test_weighted_probability_inverses () =
  List.iter
    (fun p ->
      checkf_eps 1e-12 "inverse" p
        (Weighted.probability_of_weight (Weighted.weight_of_probability p)))
    [ 0.0; 1e-9; 1e-4; 0.5; 0.99 ]

let test_weighted_dl_equals_wb_uniform () =
  (* with all-equal weights and a fraction f detected, theta = f, so eq 3
     equals eq 1 at T = f *)
  let weights = Array.make 10 0.0287682072451781 in
  (* total = 0.2876..., Y = 0.75 *)
  let detected = Array.init 10 (fun i -> i < 7) in
  let dl_weighted = Weighted.defect_level_of_weights ~weights ~detected in
  let y = Weighted.yield_of_weights weights in
  checkf_eps 1e-12 "matches WB" (Williams_brown.defect_level ~yield:y ~coverage:0.7)
    dl_weighted

(* --- Susceptibility (eqs. 7-8, 10) ------------------------------------------------------ *)

let test_susceptibility_k1_zero () =
  checkf "T(1) = 0" 0.0 (Susceptibility.coverage_at ~s:(exp 3.0) 1.0)

let test_susceptibility_limit () =
  Alcotest.(check bool) "T(inf) -> 1" true
    (Susceptibility.coverage_at ~s:(exp 3.0) 1e15 > 0.9999)

let test_susceptibility_fig1_values () =
  (* fig 1 parameters: s_T = e^3 -> T(k) = 1 - k^{-1/3} *)
  let s = exp 3.0 in
  checkf_eps 1e-12 "k=8" (1.0 -. 0.5) (Susceptibility.coverage_at ~s 8.0);
  checkf_eps 1e-12 "k=1000" 0.9 (Susceptibility.coverage_at ~s 1000.0)

let test_susceptibility_slower_for_larger_s () =
  let k = 100.0 in
  Alcotest.(check bool) "larger s is slower" true
    (Susceptibility.coverage_at ~s:(exp 4.0) k < Susceptibility.coverage_at ~s:(exp 2.0) k)

let test_test_length_inverse () =
  let s = exp 2.5 in
  List.iter
    (fun target ->
      let k = Susceptibility.test_length ~s ~target in
      checkf_eps 1e-9 "roundtrip" target (Susceptibility.coverage_at ~s k))
    [ 0.5; 0.9; 0.99 ]

let test_ratio_eq10 () =
  checkf "R = 2" 2.0 (Susceptibility.ratio ~s_t:(exp 3.0) ~s_theta:(exp 1.5));
  checkf "s from ratio" (exp 1.5) (Susceptibility.s_of_ratio ~s_t:(exp 3.0) ~r:2.0)

let test_susceptibility_fit () =
  let s_true = exp 2.0 and theta_max = 0.96 in
  let samples =
    Array.init 40 (fun i ->
        let k = exp (float_of_int i /. 4.0) in
        (k, Susceptibility.weighted_coverage_at ~s:s_true ~theta_max k))
  in
  let fit = Susceptibility.fit_curve samples in
  checkf_eps 1e-3 "s recovered" s_true fit.s;
  checkf_eps 1e-4 "theta_max recovered" theta_max fit.theta_max

(* --- Projection (eqs. 9, 11) -------------------------------------------------------------- *)

let test_projection_reduces_to_wb () =
  let params = { Projection.r = 1.0; theta_max = 1.0 } in
  List.iter
    (fun t ->
      checkf "equals WB"
        (Williams_brown.defect_level ~yield:0.75 ~coverage:t)
        (Projection.defect_level ~yield:0.75 ~params ~coverage:t))
    [ 0.0; 0.3; 0.7; 0.95; 1.0 ]

let test_projection_eq9_consistent_with_k_elimination () =
  (* eq 9 must equal the parametric composition of eqs 7-8 *)
  let s_t = exp 3.0 and r = 2.0 and theta_max = 0.96 in
  let s_theta = Susceptibility.s_of_ratio ~s_t ~r in
  let params = { Projection.r; theta_max } in
  List.iter
    (fun k ->
      let t = Susceptibility.coverage_at ~s:s_t k in
      let theta = Susceptibility.weighted_coverage_at ~s:s_theta ~theta_max k in
      checkf_eps 1e-12 "theta(T) = theta(k)" theta (Projection.theta_of_coverage params t))
    [ 1.0; 2.0; 10.0; 100.0; 1e4; 1e6 ]

let test_projection_paper_example_1 () =
  (* Y=0.75, theta_max=1, R=2.1, DL target 100 ppm -> T = 97.7% *)
  let params = { Projection.r = 2.1; theta_max = 1.0 } in
  match Projection.required_coverage ~yield:0.75 ~params ~target_dl:1e-4 with
  | Some t -> checkf_eps 5e-4 "example 1" 0.977 t
  | None -> Alcotest.fail "target should be reachable"

let test_projection_paper_example_2 () =
  (* Y=0.75, theta_max=0.99, R=1, T=1: the residual defect level
     1 - 0.75^0.01 = 2873 ppm (the paper prints 2279 ppm; see
     EXPERIMENTS.md) *)
  let params = { Projection.r = 1.0; theta_max = 0.99 } in
  let dl = Projection.defect_level ~yield:0.75 ~params ~coverage:1.0 in
  checkf_eps 1e-7 "example 2" 2.8727e-3 dl;
  checkf_eps 1e-12 "equals residual" dl
    (Projection.residual_defect_level ~yield:0.75 ~theta_max:0.99)

let test_projection_residual_unreachable () =
  let params = { Projection.r = 1.5; theta_max = 0.96 } in
  let residual = Projection.residual_defect_level ~yield:0.75 ~theta_max:0.96 in
  Alcotest.(check bool) "below residual unreachable" true
    (Projection.required_coverage ~yield:0.75 ~params ~target_dl:(residual /. 2.0) = None);
  (match Projection.required_coverage ~yield:0.75 ~params ~target_dl:(2.0 *. residual) with
  | Some t -> Alcotest.(check bool) "above residual reachable" true (t > 0.0 && t <= 1.0)
  | None -> Alcotest.fail "should be reachable")

let test_projection_required_coverage_inverse () =
  let params = { Projection.r = 1.9; theta_max = 0.96 } in
  List.iter
    (fun t ->
      let dl = Projection.defect_level ~yield:0.75 ~params ~coverage:t in
      match Projection.required_coverage ~yield:0.75 ~params ~target_dl:dl with
      | Some t' -> checkf_eps 1e-9 "roundtrip" t t'
      | None -> Alcotest.fail "reachable by construction")
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_projection_r_greater_one_needs_less_coverage () =
  (* the paper's point: with R > 1 the same DL needs less stuck-at coverage *)
  let t_wb = Williams_brown.required_coverage ~yield:0.75 ~target_dl:1e-4 in
  let params = { Projection.r = 2.1; theta_max = 1.0 } in
  match Projection.required_coverage ~yield:0.75 ~params ~target_dl:1e-4 with
  | Some t -> Alcotest.(check bool) "less stringent" true (t < t_wb)
  | None -> Alcotest.fail "reachable"

let test_projection_monotonicity () =
  let params = { Projection.r = 1.9; theta_max = 0.96 } in
  let prev = ref 1.0 in
  for i = 0 to 100 do
    let t = float_of_int i /. 100.0 in
    let dl = Projection.defect_level ~yield:0.75 ~params ~coverage:t in
    Alcotest.(check bool) "DL decreases in T" true (dl <= !prev +. 1e-12);
    prev := dl
  done

let test_projection_fit_theta_recovers () =
  let truth = { Projection.r = 1.9; theta_max = 0.96 } in
  let points =
    Array.init 50 (fun i ->
        let t = float_of_int i /. 50.0 in
        (t, Projection.theta_of_coverage truth t))
  in
  let fit = Projection.fit_theta points in
  checkf_eps 1e-3 "R" truth.r fit.params.r;
  checkf_eps 1e-4 "theta_max" truth.theta_max fit.params.theta_max

let test_projection_fit_dl_recovers () =
  let truth = { Projection.r = 2.0; theta_max = 0.96 } in
  let points =
    Array.init 60 (fun i ->
        let t = 0.3 +. (0.7 *. float_of_int i /. 60.0) in
        (t, Projection.defect_level ~yield:0.75 ~params:truth ~coverage:t))
  in
  let fit = Projection.fit_dl ~yield:0.75 points in
  checkf_eps 0.05 "R" truth.r fit.params.r;
  checkf_eps 1e-3 "theta_max" truth.theta_max fit.params.theta_max

let test_projection_fit_rmse_scales () =
  (* fit_dl minimizes on log10 DL, fit_theta on Θ itself; each fit records
     the units its rmse is in so the two are never compared naively. *)
  let truth = { Projection.r = 1.9; theta_max = 0.96 } in
  let theta_points =
    Array.init 40 (fun i ->
        let t = float_of_int i /. 40.0 in
        (t, Projection.theta_of_coverage truth t))
  in
  let dl_points =
    Array.init 40 (fun i ->
        let t = 0.3 +. (0.7 *. float_of_int i /. 40.0) in
        (t, Projection.defect_level ~yield:0.75 ~params:truth ~coverage:t))
  in
  let ft = Projection.fit_theta theta_points in
  let fd = Projection.fit_dl ~yield:0.75 dl_points in
  Alcotest.(check bool) "fit_theta is linear-scale" true
    (ft.rmse_scale = Projection.Linear);
  Alcotest.(check bool) "fit_dl is log10-scale" true
    (fd.rmse_scale = Projection.Log10);
  Alcotest.(check string) "unit labels differ" "linear units"
    (Projection.rmse_unit ft.rmse_scale);
  Alcotest.(check string) "log label" "log10 units"
    (Projection.rmse_unit fd.rmse_scale)

(* --- degenerate fit inputs -------------------------------------------------------------------- *)

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_fit_degenerate_rejects () =
  expect_invalid "fit_theta empty" (fun () -> Projection.fit_theta [||]);
  expect_invalid "fit_dl empty" (fun () -> Projection.fit_dl ~yield:0.75 [||]);
  expect_invalid "fit_theta NaN y" (fun () ->
      Projection.fit_theta [| (0.5, Float.nan) |]);
  expect_invalid "fit_theta NaN x" (fun () ->
      Projection.fit_theta [| (Float.nan, 0.5) |]);
  expect_invalid "fit_theta coverage > 1" (fun () ->
      Projection.fit_theta [| (1.5, 0.5) |]);
  expect_invalid "fit_dl coverage < 0" (fun () ->
      Projection.fit_dl ~yield:0.75 [| (-0.1, 0.01) |]);
  expect_invalid "fit_alpha empty" (fun () ->
      Clustered.fit_alpha ~yield:0.75 []);
  expect_invalid "fit_alpha NaN" (fun () ->
      Clustered.fit_alpha ~yield:0.75 [ (0.5, Float.nan) ]);
  expect_invalid "fit_alpha coverage > 1" (fun () ->
      Clustered.fit_alpha ~yield:0.75 [ (1.2, 0.01) ]);
  expect_invalid "fit_alpha bad init" (fun () ->
      Clustered.fit_alpha ~init:0.0 ~yield:0.75 [ (0.5, 0.1) ]);
  expect_invalid "fit_alpha bad yield" (fun () ->
      Clustered.fit_alpha ~yield:0.0 [ (0.5, 0.1) ])

let finite_rmse name rmse =
  Alcotest.(check bool) (name ^ " rmse finite") true (Float.is_finite rmse)

let test_fit_degenerate_finite () =
  (* Degenerate but well-typed inputs must converge to something finite
     rather than exploding inside the simplex. *)
  let single = Projection.fit_theta [| (0.5, 0.4) |] in
  finite_rmse "single point" single.rmse;
  let flat =
    Projection.fit_theta (Array.make 8 (0.5, 0.4))
  in
  finite_rmse "zero variance" flat.rmse;
  let saturated =
    Projection.fit_theta [| (0.5, 1.0); (0.9, 1.0); (1.0, 1.0) |]
  in
  finite_rmse "coverage 1" saturated.rmse;
  let dl_flat =
    Projection.fit_dl ~yield:0.75 (Array.make 6 (0.9, 1e-3))
  in
  finite_rmse "fit_dl zero variance" dl_flat.rmse;
  let a1, r1 = Clustered.fit_alpha ~yield:0.75 [ (0.5, 0.1) ] in
  finite_rmse "fit_alpha single" r1;
  Alcotest.(check bool) "alpha positive" true (a1 > 0.0);
  let a2, r2 =
    Clustered.fit_alpha ~yield:0.75 [ (0.5, 0.1); (0.5, 0.1); (0.5, 0.1) ]
  in
  finite_rmse "fit_alpha zero variance" r2;
  Alcotest.(check bool) "alpha positive" true (a2 > 0.0);
  let _, r3 = Clustered.fit_alpha ~yield:0.75 [ (1.0, 0.0) ] in
  finite_rmse "fit_alpha full coverage" r3

let test_fit_theta_from_matches_multistart () =
  (* On clean data, the cheap single-start refit from the optimum must not
     move it. *)
  let truth = { Projection.r = 1.9; theta_max = 0.96 } in
  let points =
    Array.init 50 (fun i ->
        let t = float_of_int i /. 50.0 in
        (t, Projection.theta_of_coverage truth t))
  in
  let full = Projection.fit_theta points in
  let from = Projection.fit_theta_from ~init:full.params points in
  checkf_eps 1e-6 "R stable" full.params.r from.params.r;
  checkf_eps 1e-6 "theta_max stable" full.params.theta_max
    from.params.theta_max

(* --- the compiled eq. 9 fits against Projection.Reference ------------------------- *)

let same_fit (a : Projection.fit) (b : Projection.fit) =
  let same x y = Int64.bits_of_float x = Int64.bits_of_float y in
  same a.params.r b.params.r
  && same a.params.theta_max b.params.theta_max
  && same a.rmse b.rmse && a.rmse_scale = b.rmse_scale

let fits_agree points =
  same_fit (Projection.fit_theta points) (Projection.Reference.fit_theta points)
  && List.for_all
       (fun init ->
         same_fit
           (Projection.fit_theta_from ~init points)
           (Projection.Reference.fit_theta_from ~init points))
       [ { Projection.r = 1.0; theta_max = 0.9 }; { r = 2.3; theta_max = 1.0 };
         { r = 80.0; theta_max = 0.005 } ]

(* Monotone (T, Θ) staircases in k order, as the pipelines sample them:
   runs of repeated T, often ending at T = 1.0, noisy Θ. *)
let prop_fits_equal_reference =
  QCheck.Test.make ~name:"fit_theta and fit_theta_from = Reference" ~count:60
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 50 in
          let* steps = array_repeat n (pair (float_bound_inclusive 0.2) (float_bound_inclusive 0.05)) in
          let* full = bool in
          return (steps, full)))
    (fun (steps, full) ->
      let t = ref 0.0 and th = ref 0.0 in
      let points =
        Array.mapi
          (fun i (dt, dth) ->
            (* Every third step repeats the previous T. *)
            if i mod 3 <> 2 then t := Float.min 1.0 (!t +. dt);
            th := Float.min 1.0 (!th +. dth);
            ((if full && i = Array.length steps - 1 then 1.0 else !t), !th))
          steps
      in
      fits_agree points)

(* The curves the pipelines fit: both fits on c17, c432s_small and c880s,
   and the fast coverage curves against Coverage.Reference on the same
   detection records. *)
let test_fits_equal_reference_on_circuits () =
  let module Coverage = Dl_fault.Coverage in
  List.iter
    (fun name ->
      let c = Option.get (Dl_netlist.Benchmarks.by_name name) in
      let e = Experiment.run (Experiment.config c) in
      let t_firsts =
        (Dl_fault.Fault_sim.run e.mapped_circuit ~faults:e.stuck_faults
           ~vectors:e.vectors)
          .first_detection
      in
      let voltage =
        Array.map (fun (d : Dl_switch.Swift.detection) -> d.voltage) e.swift_result.detection
      in
      let weights = e.scaled_weights in
      let t_ref = Coverage.Reference.make t_firsts
      and theta_ref = Coverage.Reference.make ~weights voltage in
      let ks = Experiment.sample_ks e ~points:100 in
      let points =
        Array.map (fun k -> (Coverage.Reference.at t_ref k, Coverage.Reference.at theta_ref k)) ks
      in
      let fast_points =
        let t = Coverage.make t_firsts and theta = Coverage.make ~weights voltage in
        Array.map (fun k -> (Coverage.at t k, Coverage.at theta k)) ks
      in
      if fast_points <> points then Alcotest.failf "%s: coverage samples differ" name;
      if not (fits_agree points) then Alcotest.failf "%s: fit differs from the reference" name)
    [ "c17"; "c432s_small"; "c880s" ]

(* --- Wafer_mc / Bootstrap --------------------------------------------------------------------- *)

let mc_universe () =
  let rng = Dl_util.Rng.create 42 in
  let n = 120 in
  let raw = Array.init n (fun _ -> Dl_util.Rng.float_in rng 0.2 1.0) in
  let weights, _ = Weighted.scale_to_yield ~weights:raw ~target_yield:0.8 in
  let firsts =
    Array.init n (fun _ ->
        if Dl_util.Rng.bernoulli rng 0.2 then None
        else Some (Dl_util.Rng.int rng 256))
  in
  (weights, firsts)

let test_wafer_mc_replay () =
  let weights, firsts = mc_universe () in
  let points = [| (16, 0.3); (64, 0.6); (256, 0.9) |] in
  let run seed =
    Wafer_mc.simulate
      ~seeds:(Dl_util.Seeds.scope (Dl_util.Seeds.create seed) "mc")
      ~dies:2_000 ~weights ~firsts ~points ()
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check bool) "same master seed replays bit-for-bit" true (a = b);
  let c = run 8 in
  Alcotest.(check bool) "different master seed differs" true
    (a.defective <> c.defective || a.bands <> c.bands);
  Alcotest.(check int) "one band per point" 3 (Array.length a.bands);
  Alcotest.(check bool) "observed yield sane" true
    (let y = Wafer_mc.observed_yield a in
     y > 0.5 && y < 1.0);
  Alcotest.(check int) "final band is last point" 256 (Wafer_mc.final_band a).k

let test_wafer_mc_validation () =
  let weights, firsts = mc_universe () in
  let seeds = Dl_util.Seeds.create 1 in
  let points = [| (16, 0.5) |] in
  expect_invalid "zero dies" (fun () ->
      Wafer_mc.simulate ~seeds ~dies:0 ~weights ~firsts ~points ());
  expect_invalid "negative alpha" (fun () ->
      Wafer_mc.simulate ~alpha_wafer:(-1.0) ~seeds ~dies:10 ~weights ~firsts
        ~points ());
  expect_invalid "length mismatch" (fun () ->
      Wafer_mc.simulate ~seeds ~dies:10 ~weights ~firsts:[| None |] ~points ());
  expect_invalid "negative weight" (fun () ->
      Wafer_mc.simulate ~seeds ~dies:10 ~weights:[| -1.0 |]
        ~firsts:[| None |] ~points ());
  expect_invalid "empty grid" (fun () ->
      Wafer_mc.simulate ~seeds ~dies:10 ~weights ~firsts ~points:[||] ())

let test_bootstrap_replay () =
  let weights, firsts = mc_universe () in
  let t_firsts =
    Array.init 100 (fun i -> if i mod 5 = 0 then None else Some (i * 2))
  in
  let run seed =
    Bootstrap.run ~fit_points:20
      ~seeds:(Dl_util.Seeds.scope (Dl_util.Seeds.create seed) "boot")
      ~replicates:25 ~yield:0.8 ~t_firsts ~theta_firsts:firsts
      ~theta_weights:weights ~n_vectors:256 ()
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check bool) "same master seed replays bit-for-bit" true (a = b);
  Alcotest.(check int) "replicate count" 25 (Array.length a.r_samples);
  Alcotest.(check bool) "CI ordered" true
    (a.r.lo <= a.r.median && a.r.median <= a.r.hi);
  Alcotest.(check bool) "median inside own CI" true
    (Bootstrap.contains a.r a.r.median);
  (* of_samples rebuilds the same summary from the persisted parts *)
  let rebuilt =
    Bootstrap.of_samples ~fit_points:a.fit_points ~point:a.point
      ~alpha_point:a.alpha_point ~r_samples:a.r_samples
      ~theta_max_samples:a.theta_max_samples ~alpha_samples:a.alpha_samples
  in
  Alcotest.(check bool) "of_samples round-trips" true (rebuilt = a)

let test_bootstrap_validation () =
  let weights, firsts = mc_universe () in
  let seeds = Dl_util.Seeds.create 1 in
  let t_firsts = [| Some 1; Some 2 |] in
  expect_invalid "zero replicates" (fun () ->
      Bootstrap.run ~seeds ~replicates:0 ~yield:0.8 ~t_firsts
        ~theta_firsts:firsts ~theta_weights:weights ~n_vectors:256 ());
  expect_invalid "bad yield" (fun () ->
      Bootstrap.run ~seeds ~replicates:5 ~yield:1.5 ~t_firsts
        ~theta_firsts:firsts ~theta_weights:weights ~n_vectors:256 ());
  expect_invalid "empty t sample" (fun () ->
      Bootstrap.run ~seeds ~replicates:5 ~yield:0.8 ~t_firsts:[||]
        ~theta_firsts:firsts ~theta_weights:weights ~n_vectors:256 ());
  expect_invalid "weights/firsts mismatch" (fun () ->
      Bootstrap.run ~seeds ~replicates:5 ~yield:0.8 ~t_firsts
        ~theta_firsts:firsts ~theta_weights:[| 1.0 |] ~n_vectors:256 ())

(* --- Yield models ----------------------------------------------------------------------------- *)

let test_yield_poisson () = checkf "poisson" (exp (-2.0)) (Yield_model.poisson ~area:4.0 ~density:0.5)

let test_yield_nb_limit () =
  let ad = 1.5 in
  let nb = Yield_model.negative_binomial ~area:ad ~density:1.0 ~alpha:1e7 in
  checkf_eps 1e-6 "nb -> poisson" (exp (-.ad)) nb

let test_yield_nb_clustering_raises_yield () =
  (* clustering concentrates defects on fewer chips: higher yield *)
  let y_po = Yield_model.poisson ~area:2.0 ~density:1.0 in
  let y_nb = Yield_model.negative_binomial ~area:2.0 ~density:1.0 ~alpha:0.5 in
  Alcotest.(check bool) "clustered > poisson" true (y_nb > y_po)

let test_yield_murphy_between () =
  let ad = 1.0 in
  let po = Yield_model.poisson ~area:ad ~density:1.0 in
  let murphy = Yield_model.murphy ~area:ad ~density:1.0 in
  let seeds = Yield_model.seeds ~area:ad ~density:1.0 in
  Alcotest.(check bool) "poisson < murphy < seeds" true (po < murphy && murphy < seeds)

let test_yield_inversions () =
  checkf "defects per chip" 2.0 (Yield_model.defects_per_chip ~yield:(exp (-2.0)));
  let dist = Yield_model.faulty_chip_fault_distribution ~yield:0.75 ~max_faults:60 in
  let total = Array.fold_left ( +. ) 0.0 dist in
  checkf_eps 1e-9 "distribution sums to 1" 1.0 total;
  let mean =
    Array.fold_left ( +. ) 0.0 (Array.mapi (fun i p -> float_of_int (i + 1) *. p) dist)
  in
  checkf_eps 1e-6 "distribution mean = n" (Yield_model.mean_faults_on_faulty_chip ~yield:0.75) mean

(* --- qcheck properties -------------------------------------------------------------------------- *)

let yield_gen = QCheck.Gen.float_range 0.05 0.99
let cov_gen = QCheck.Gen.float_range 0.0 1.0

let prop_wb_in_range =
  QCheck.Test.make ~name:"WB defect level in [0, 1-Y]" ~count:500
    QCheck.(make Gen.(pair yield_gen cov_gen))
    (fun (y, t) ->
      let dl = Williams_brown.defect_level ~yield:y ~coverage:t in
      dl >= 0.0 && dl <= 1.0 -. y +. 1e-12)

let prop_eq11_between_floor_and_ceiling =
  QCheck.Test.make ~name:"eq 11 bounded by residual and 1-Y" ~count:500
    QCheck.(
      make
        Gen.(
          let* y = yield_gen in
          let* t = cov_gen in
          let* r = float_range 0.2 5.0 in
          let* tm = float_range 0.05 1.0 in
          return (y, t, r, tm)))
    (fun (y, t, r, tm) ->
      let params = { Projection.r; theta_max = tm } in
      let dl = Projection.defect_level ~yield:y ~params ~coverage:t in
      let residual = Projection.residual_defect_level ~yield:y ~theta_max:tm in
      dl >= residual -. 1e-12 && dl <= (1.0 -. y) +. 1e-12)

let prop_eq11_above_wb_iff_theta_below_t =
  QCheck.Test.make ~name:"eq 11 vs WB ordered by theta vs T" ~count:500
    QCheck.(
      make
        Gen.(
          let* y = yield_gen in
          let* t = float_range 0.01 0.99 in
          let* r = float_range 0.2 5.0 in
          let* tm = float_range 0.05 1.0 in
          return (y, t, r, tm)))
    (fun (y, t, r, tm) ->
      let params = { Projection.r; theta_max = tm } in
      let theta = Projection.theta_of_coverage params t in
      let dl = Projection.defect_level ~yield:y ~params ~coverage:t in
      let wb = Williams_brown.defect_level ~yield:y ~coverage:t in
      if theta > t then dl <= wb +. 1e-12 else dl >= wb -. 1e-12)

let prop_weighted_coverage_bounds =
  QCheck.Test.make ~name:"weighted coverage in [0,1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (float_range 0.0 10.0) bool))
    (fun l ->
      let weights = Array.of_list (List.map fst l) in
      let detected = Array.of_list (List.map snd l) in
      let theta = Weighted.coverage ~weights ~detected in
      theta >= 0.0 && theta <= 1.0)

let prop_required_coverage_sound =
  QCheck.Test.make ~name:"required coverage achieves the target" ~count:300
    QCheck.(
      make
        Gen.(
          let* y = yield_gen in
          let* r = float_range 0.5 4.0 in
          let* tm = float_range 0.5 1.0 in
          let* dl = float_range 1e-6 0.2 in
          return (y, r, tm, dl)))
    (fun (y, r, tm, dl_target) ->
      let params = { Projection.r; theta_max = tm } in
      match Projection.required_coverage ~yield:y ~params ~target_dl:dl_target with
      | None -> Projection.residual_defect_level ~yield:y ~theta_max:tm >= dl_target
      | Some t ->
          Projection.defect_level ~yield:y ~params ~coverage:t <= dl_target +. 1e-9)

let () =
  Alcotest.run "dl_core"
    [
      ( "williams-brown",
        [
          Alcotest.test_case "endpoints" `Quick test_wb_endpoints;
          Alcotest.test_case "known value" `Quick test_wb_known_value;
          Alcotest.test_case "required coverage inverse" `Quick
            test_wb_required_coverage_inverse;
          Alcotest.test_case "paper example 1 (WB)" `Quick test_wb_paper_example_1;
          Alcotest.test_case "yield from fallout" `Quick test_wb_yield_from;
          Alcotest.test_case "domain checks" `Quick test_wb_domain_checks;
        ] );
      ( "agrawal",
        [
          Alcotest.test_case "endpoints" `Quick test_agrawal_endpoints;
          Alcotest.test_case "n=1 near WB" `Quick test_agrawal_n1_close_to_wb_small_dl;
          Alcotest.test_case "monotone in n" `Quick test_agrawal_larger_n_lower_dl;
          Alcotest.test_case "fit recovers n" `Quick test_agrawal_fit_recovers_n;
          Alcotest.test_case "n of mean defects" `Quick test_agrawal_n_of_mean_defects;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "yield eq 5" `Quick test_weighted_yield;
          Alcotest.test_case "coverage eq 6" `Quick test_weighted_coverage;
          Alcotest.test_case "scale to yield" `Quick test_weighted_scale_to_yield;
          Alcotest.test_case "probability inverses" `Quick test_weighted_probability_inverses;
          Alcotest.test_case "uniform weights = WB" `Quick test_weighted_dl_equals_wb_uniform;
        ] );
      ( "susceptibility",
        [
          Alcotest.test_case "T(1) = 0" `Quick test_susceptibility_k1_zero;
          Alcotest.test_case "limit" `Quick test_susceptibility_limit;
          Alcotest.test_case "fig 1 values" `Quick test_susceptibility_fig1_values;
          Alcotest.test_case "larger s slower" `Quick test_susceptibility_slower_for_larger_s;
          Alcotest.test_case "test length inverse" `Quick test_test_length_inverse;
          Alcotest.test_case "ratio eq 10" `Quick test_ratio_eq10;
          Alcotest.test_case "fit recovers" `Quick test_susceptibility_fit;
        ] );
      ( "projection",
        [
          Alcotest.test_case "reduces to WB" `Quick test_projection_reduces_to_wb;
          Alcotest.test_case "eq 9 = k elimination" `Quick
            test_projection_eq9_consistent_with_k_elimination;
          Alcotest.test_case "paper example 1" `Quick test_projection_paper_example_1;
          Alcotest.test_case "paper example 2" `Quick test_projection_paper_example_2;
          Alcotest.test_case "residual unreachable" `Quick test_projection_residual_unreachable;
          Alcotest.test_case "required coverage inverse" `Quick
            test_projection_required_coverage_inverse;
          Alcotest.test_case "R>1 relaxes coverage" `Quick
            test_projection_r_greater_one_needs_less_coverage;
          Alcotest.test_case "monotone" `Quick test_projection_monotonicity;
          Alcotest.test_case "fit theta recovers" `Quick test_projection_fit_theta_recovers;
          Alcotest.test_case "fit dl recovers" `Quick test_projection_fit_dl_recovers;
          Alcotest.test_case "fit rmse scales" `Quick test_projection_fit_rmse_scales;
        ] );
      ( "degenerate-fits",
        [
          Alcotest.test_case "invalid inputs rejected" `Quick
            test_fit_degenerate_rejects;
          Alcotest.test_case "degenerate inputs stay finite" `Quick
            test_fit_degenerate_finite;
          Alcotest.test_case "single-start refit stable" `Quick
            test_fit_theta_from_matches_multistart;
          Alcotest.test_case "fits = reference on circuits" `Slow
            test_fits_equal_reference_on_circuits;
        ] );
      ( "wafer-mc",
        [
          Alcotest.test_case "seeded replay" `Quick test_wafer_mc_replay;
          Alcotest.test_case "validation" `Quick test_wafer_mc_validation;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "seeded replay" `Quick test_bootstrap_replay;
          Alcotest.test_case "validation" `Quick test_bootstrap_validation;
        ] );
      ( "yield-models",
        [
          Alcotest.test_case "poisson" `Quick test_yield_poisson;
          Alcotest.test_case "nb limit" `Quick test_yield_nb_limit;
          Alcotest.test_case "clustering raises yield" `Quick
            test_yield_nb_clustering_raises_yield;
          Alcotest.test_case "murphy between" `Quick test_yield_murphy_between;
          Alcotest.test_case "inversions" `Quick test_yield_inversions;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_wb_in_range;
            prop_eq11_between_floor_and_ceiling;
            prop_eq11_above_wb_iff_theta_below_t;
            prop_weighted_coverage_bounds;
            prop_required_coverage_sound;
            prop_fits_equal_reference;
          ] );
    ]
