(* End-to-end pipeline tests: netlist -> ATPG -> layout -> IFA -> switch-level
   fault simulation -> defect-level projection, on a small circuit.  These
   assert the *shape* properties DESIGN.md §3 promises, on a budget that
   keeps `dune runtest` fast. *)

open Dl_core
module Coverage = Dl_fault.Coverage

(* One experiment shared by all cases (the expensive part). *)
let experiment =
  lazy
    (let c = Dl_netlist.Benchmarks.c432s_small () in
     Experiment.run (Experiment.config ~seed:7 ~max_random_vectors:768 c))

let final_k e = Array.length e.Experiment.vectors

let test_pipeline_runs () =
  let e = Lazy.force experiment in
  Alcotest.(check bool) "vectors applied" true (Array.length e.vectors > 0);
  Alcotest.(check bool) "realistic faults extracted" true
    (Array.length e.extraction.faults > 100)

let test_yield_scaled () =
  let e = Lazy.force experiment in
  let scaled_total = Dl_util.Stats.total e.scaled_weights in
  Alcotest.(check (float 1e-9)) "scaled to 0.75" 0.75 (exp (-.scaled_total))

let test_stuck_at_coverage_saturates () =
  let e = Lazy.force experiment in
  Alcotest.(check bool) "T -> 1 (redundant faults excluded)" true
    (Coverage.at e.t_curve (final_k e) > 0.98)

let test_curves_monotone () =
  let e = Lazy.force experiment in
  let check_curve name curve =
    let prev = ref 0.0 in
    Array.iter
      (fun k ->
        let v = Coverage.at curve k in
        if v < !prev -. 1e-12 then Alcotest.failf "%s not monotone at k=%d" name k;
        prev := v)
      (Experiment.sample_ks e ~points:40)
  in
  check_curve "T" e.t_curve;
  check_curve "Theta" e.theta_curve;
  check_curve "Gamma" e.gamma_curve

let test_theta_saturates_below_one () =
  (* the residual defect level of voltage-only testing (theta_max < 1) *)
  let e = Lazy.force experiment in
  let final = Coverage.at e.theta_curve (final_k e) in
  Alcotest.(check bool) "theta_max < 1" true (final < 1.0);
  Alcotest.(check bool) "but substantial" true (final > 0.7)

let test_gamma_saturates_below_t () =
  (* paper fig 4: the unweighted realistic coverage saturates below the
     stuck-at coverage because equal-likelihood opens are hard to detect *)
  let e = Lazy.force experiment in
  let k = final_k e in
  Alcotest.(check bool) "Gamma(final) < T(final)" true
    (Coverage.at e.gamma_curve k < Coverage.at e.t_curve k)

let test_iddq_improves_theta () =
  (* current testing catches bridges voltage testing misses *)
  let e = Lazy.force experiment in
  let k = final_k e in
  Alcotest.(check bool) "IDDQ strictly helps" true
    (Coverage.at e.theta_iddq_curve k > Coverage.at e.theta_curve k)

let test_dl_floor_is_residual () =
  let e = Lazy.force experiment in
  let k = final_k e in
  let theta_final = Coverage.at e.theta_curve k in
  let expected =
    Projection.residual_defect_level ~yield:e.yield ~theta_max:theta_final
  in
  Alcotest.(check (float 1e-9)) "DL floor" expected (Experiment.defect_level_at e k)

let test_fit_parameters_in_plausible_range () =
  let e = Lazy.force experiment in
  let fit = e.fit in
  Alcotest.(check bool) "R plausible" true (fit.params.r > 0.5 && fit.params.r < 5.0);
  Alcotest.(check bool) "theta_max plausible" true
    (fit.params.theta_max > 0.7 && fit.params.theta_max <= 1.0);
  Alcotest.(check bool) "fit is tight" true (fit.rmse < 0.05)

(* [e.fit] is eq. 9 fitted on the run's own (T(k), Θ(k)) curves at 100
   log-spaced vector counts, bit for bit: callers read it instead of
   refitting. *)
let test_fit_is_own_curves_fit () =
  let e = Lazy.force experiment in
  let points =
    Array.map
      (fun k -> (Coverage.at e.t_curve k, Coverage.at e.theta_curve k))
      (Experiment.sample_ks e ~points:100)
  in
  let refit = Projection.fit_theta points in
  let bits (f : Projection.fit) =
    List.map Int64.bits_of_float [ f.params.r; f.params.theta_max; f.rmse ]
  in
  Alcotest.(check (list int64)) "R, θmax, rmse" (bits refit) (bits e.fit);
  Alcotest.(check bool) "rmse scale" true (refit.rmse_scale = e.fit.rmse_scale)

let test_fitted_model_tracks_simulation () =
  (* eq 11 with the fitted parameters reproduces the simulated DL(T) cloud
     (paper fig 5's "the theoretical curve matches very well") *)
  let e = Lazy.force experiment in
  let fit = e.fit in
  let ks = Experiment.sample_ks e ~points:25 in
  Array.iter
    (fun k ->
      let t = Coverage.at e.t_curve k in
      let dl_sim = Experiment.defect_level_at e k in
      let dl_model =
        Projection.defect_level ~yield:e.yield ~params:fit.params ~coverage:t
      in
      Alcotest.(check bool)
        (Printf.sprintf "model near simulation at k=%d" k)
        true
        (Float.abs (dl_model -. dl_sim) < 0.03))
    ks

let test_dl_points_decrease () =
  let e = Lazy.force experiment in
  let ks = Experiment.sample_ks e ~points:20 in
  let pts = Experiment.dl_vs_t_points e ~ks in
  let prev = ref 1.0 in
  Array.iter
    (fun (_, dl) ->
      Alcotest.(check bool) "DL non-increasing along k" true (dl <= !prev +. 1e-12);
      prev := dl)
    pts

let test_weight_histogram_disperses () =
  (* fig 3's qualitative content *)
  let e = Lazy.force experiment in
  let h = Dl_extract.Ifa.weight_histogram e.extraction in
  let nonzero = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0
      (Dl_util.Histogram.counts h)
  in
  Alcotest.(check bool) "spread across many bins" true (nonzero >= 6)

let test_experiment_deterministic () =
  let c = Dl_netlist.Benchmarks.c17 () in
  let run () =
    let e = Experiment.run (Experiment.config ~seed:3 ~max_random_vectors:128 c) in
    ( Array.length e.vectors,
      Coverage.at e.theta_curve (Array.length e.vectors),
      Experiment.defect_level_at e (Array.length e.vectors) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bitwise repeatable" true (a = b)

let test_c17_full_pipeline () =
  (* tiny end-to-end sanity including the DL at full coverage *)
  let c = Dl_netlist.Benchmarks.c17 () in
  let e = Experiment.run (Experiment.config ~seed:3 ~max_random_vectors:256 c) in
  let k = Array.length e.vectors in
  Alcotest.(check (float 1e-9)) "c17 fully stuck-at covered" 1.0
    (Coverage.at e.t_curve k);
  let dl = Experiment.defect_level_at e k in
  Alcotest.(check bool) "residual DL below DL(0)" true (dl < 0.25)

let test_uncollapsed_universe () =
  (* collapse_faults = false simulates the full line-fault universe: more
     faults in the denominator (c17: 34 vs 22 collapsed), yet both coverage
     definitions reach 1 on a complete test set. *)
  let c = Dl_netlist.Benchmarks.c17 () in
  let collapsed =
    Experiment.run (Experiment.config ~seed:3 ~max_random_vectors:256 c)
  in
  let uncollapsed =
    Experiment.run
      (Experiment.config ~seed:3 ~max_random_vectors:256 ~collapse_faults:false c)
  in
  Alcotest.(check int) "collapsed universe" 22
    (Array.length collapsed.stuck_faults);
  Alcotest.(check int) "uncollapsed universe" 34
    (Array.length uncollapsed.stuck_faults);
  let k = Array.length uncollapsed.vectors in
  Alcotest.(check (float 1e-9)) "uncollapsed T reaches 1" 1.0
    (Coverage.at uncollapsed.t_curve k);
  (* the switch-level side is untouched by the flag *)
  Alcotest.(check int) "same realistic faults"
    (Array.length collapsed.extraction.faults)
    (Array.length uncollapsed.extraction.faults)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "runs" `Quick test_pipeline_runs;
          Alcotest.test_case "yield scaled" `Quick test_yield_scaled;
          Alcotest.test_case "T saturates" `Quick test_stuck_at_coverage_saturates;
          Alcotest.test_case "curves monotone" `Quick test_curves_monotone;
          Alcotest.test_case "theta_max < 1" `Quick test_theta_saturates_below_one;
          Alcotest.test_case "Gamma < T at saturation" `Quick test_gamma_saturates_below_t;
          Alcotest.test_case "IDDQ improves theta" `Quick test_iddq_improves_theta;
          Alcotest.test_case "DL floor = residual" `Quick test_dl_floor_is_residual;
          Alcotest.test_case "fit plausible" `Quick test_fit_parameters_in_plausible_range;
          Alcotest.test_case "fit = eq. 9 on own curves" `Quick test_fit_is_own_curves_fit;
          Alcotest.test_case "model tracks simulation" `Quick
            test_fitted_model_tracks_simulation;
          Alcotest.test_case "DL decreases" `Quick test_dl_points_decrease;
          Alcotest.test_case "weights disperse" `Quick test_weight_histogram_disperses;
          Alcotest.test_case "deterministic" `Quick test_experiment_deterministic;
          Alcotest.test_case "c17 pipeline" `Quick test_c17_full_pipeline;
          Alcotest.test_case "uncollapsed universe" `Quick test_uncollapsed_universe;
        ] );
    ]
