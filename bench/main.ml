(* Benchmark and figure-regeneration harness.

   One section per figure/table of the paper (printed as data rows, shape
   comparable with the published plots) plus Bechamel micro-benchmarks of
   the underlying engines.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- fig4 fig5  # selected sections

   Sections: fig1 fig2 fig3 fig4 fig5 fig6 examples ablation delay
   quality resistive stability sweep clustered lot par kernel store serve
   mc ndet micro, and swift and atpg (only when named: reference runs of
   minutes and seconds)

   The [kernel] section additionally writes BENCH_fault_sim.json
   (machine-readable old-vs-new throughput gate) to the working directory
   or to $BENCH_FAULT_SIM_JSON; [store] likewise writes BENCH_store.json
   (cold-vs-warm artifact-cache gate) or $BENCH_STORE_JSON; [serve] writes
   BENCH_serve.json (concurrent loopback daemon gate) or
   $BENCH_SERVE_JSON; [mc] writes BENCH_mc.json (Monte-Carlo throughput
   and uncertainty-band gate) or $BENCH_MC_JSON; [ndet] writes
   BENCH_ndet.json (multi-detect overhead and DL(n) monotonicity gate) or
   $BENCH_NDET_JSON. *)

open Dl_core
module Coverage = Dl_fault.Coverage
module Table = Dl_util.Table

let section_banner name description =
  Printf.printf "\n================ %s — %s ================\n" name description

(* ---------------------------------------------------------------- fig 1 *)

(* Analytic coverage-growth curves, the paper's exact parameters:
   s_T = e^3, s_Θ = e^(3/2) (hence R = 2), θmax = 0.96. *)
let fig1 () =
  section_banner "Fig.1" "T(k) and Θ(k) growth curves (eqs. 7-8)";
  let s_t = exp 3.0 in
  let s_theta = Susceptibility.s_of_ratio ~s_t ~r:2.0 in
  let theta_max = 0.96 in
  let t = Table.create
      [ ("k", Table.Right); ("T(k)", Table.Right); ("Theta(k)", Table.Right) ]
  in
  Array.iter
    (fun k ->
      let kf = float_of_int k in
      Table.add_row t
        [
          string_of_int k;
          Table.fmt_pct (Susceptibility.coverage_at ~s:s_t kf);
          Table.fmt_pct (Susceptibility.weighted_coverage_at ~s:s_theta ~theta_max kf);
        ])
    (Coverage.log_spaced ~max:1_000_000 ~points:15);
  Table.print t;
  print_endline
    "shape check: Θ(k) approaches 0.96 faster than T(k) approaches 1 (R = 2)."

(* ---------------------------------------------------------------- fig 2 *)

let fig2 () =
  section_banner "Fig.2" "DL(T): Williams-Brown vs eq. 11 (Y=0.75, R=2, θmax=0.96)";
  let params = { Projection.r = 2.0; theta_max = 0.96 } in
  let t = Table.create
      [ ("T", Table.Right); ("Williams-Brown", Table.Right); ("eq. 11", Table.Right) ]
  in
  List.iter
    (fun cov ->
      Table.add_row t
        [
          Table.fmt_pct cov;
          Table.fmt_ppm (Williams_brown.defect_level ~yield:0.75 ~coverage:cov);
          Table.fmt_ppm (Projection.defect_level ~yield:0.75 ~params ~coverage:cov);
        ])
    [ 0.0; 0.2; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99; 1.0 ];
  Table.print t;
  Printf.printf
    "shape check: eq. 11 below WB at mid coverage, floors at the residual %s.\n"
    (Table.fmt_ppm (Projection.residual_defect_level ~yield:0.75 ~theta_max:0.96))

(* ------------------------------------------------- shared c432s experiment *)

let experiment =
  lazy
    (let c = Dl_netlist.Benchmarks.c432s () in
     Printf.printf "\n[running the c432s experiment: layout extraction + ATPG + gate/switch fault simulation...]\n%!";
     let t0 = Sys.time () in
     let e = Experiment.run (Experiment.config ~seed:7 ~max_random_vectors:4096 c) in
     Printf.printf "[experiment done in %.1fs cpu]\n%!" (Sys.time () -. t0);
     e)

(* ---------------------------------------------------------------- fig 3 *)

let fig3 () =
  let e = Lazy.force experiment in
  section_banner "Fig.3" "histogram of extracted fault weights (c432s layout)";
  Format.printf "%a" Dl_extract.Ifa.pp_summary e.extraction;
  print_string
    (Dl_util.Histogram.render ~width:46
       (Dl_extract.Ifa.weight_histogram ~bins:14 e.extraction));
  let ws = Array.map (fun (f : Dl_switch.Realistic.t) -> f.weight) e.extraction.faults in
  let lo, hi = Dl_util.Stats.min_max ws in
  Printf.printf
    "shape check: weights span %.1f decades (paper: ~3 decades, 1e-9..1e-6);\n\
     the equal-probability assumption is untenable.\n"
    (log10 (hi /. lo))

(* ---------------------------------------------------------------- fig 4 *)

let fig4 () =
  let e = Lazy.force experiment in
  section_banner "Fig.4" "fault coverage vs vector count (c432s)";
  Format.printf "%a@\n" Experiment.pp_summary e;
  let ks = Experiment.sample_ks e ~points:16 in
  let t = Table.create
      [ ("k", Table.Right); ("T(k)", Table.Right); ("Theta(k)", Table.Right);
        ("Gamma(k)", Table.Right) ]
  in
  Array.iter
    (fun (k, tk, th, g) ->
      Table.add_row t
        [ string_of_int k; Table.fmt_pct tk; Table.fmt_pct th; Table.fmt_pct g ])
    (Experiment.coverage_rows e ~ks);
  Table.print t;
  let final = Array.length e.vectors in
  Printf.printf
    "shape check: Γ saturates at %s < T(final) = %s (equal-likelihood opens are\n\
     hard to detect); Θ saturates at %s < 1 (voltage testing is incomplete).\n"
    (Table.fmt_pct (Coverage.at e.gamma_curve final))
    (Table.fmt_pct (Coverage.at e.t_curve final))
    (Table.fmt_pct (Coverage.at e.theta_curve final))

(* ---------------------------------------------------------------- fig 5 *)

let fig5 () =
  let e = Lazy.force experiment in
  section_banner "Fig.5" "DL vs stuck-at coverage: simulation, WB, fitted eq. 11";
  let fit = Experiment.fit_params e () in
  let fit_dl =
    let ks = Experiment.sample_ks e ~points:100 in
    Projection.fit_dl ~yield:e.yield (Experiment.dl_vs_t_points e ~ks)
  in
  Printf.printf
    "fit on Θ(T) (eq. 9):  R = %.2f, θmax = %.3f\n\
     fit on DL(T) (eq. 11): R = %.2f, θmax = %.3f   (paper's c432 fit: R = 1.9, θmax = 0.96)\n\n"
    fit.params.r fit.params.theta_max fit_dl.params.r fit_dl.params.theta_max;
  let ks = Experiment.sample_ks e ~points:14 in
  let t = Table.create
      [ ("T(k)", Table.Right); ("DL sim", Table.Right); ("WB", Table.Right);
        ("eq.11 fitted", Table.Right) ]
  in
  Array.iter
    (fun (tk, dl) ->
      Table.add_row t
        [
          Table.fmt_pct tk;
          Table.fmt_ppm dl;
          Table.fmt_ppm (Williams_brown.defect_level ~yield:e.yield ~coverage:tk);
          Table.fmt_ppm
            (Projection.defect_level ~yield:e.yield ~params:fit.params ~coverage:tk);
        ])
    (Experiment.dl_vs_t_points e ~ks);
  Table.print t;
  print_endline
    "shape check: the simulated cloud dips below WB at mid coverage (R > 1:\n\
     likely bridges are easier to detect) and floors above WB near T -> 1\n\
     (θmax < 1: residual defect level); the fitted eq. 11 tracks it."

(* ---------------------------------------------------------------- fig 6 *)

let fig6 () =
  let e = Lazy.force experiment in
  section_banner "Fig.6" "DL vs unweighted realistic coverage Γ";
  let ks = Experiment.sample_ks e ~points:14 in
  let t = Table.create
      [ ("Gamma(k)", Table.Right); ("DL sim", Table.Right);
        ("1-Y^(1-Gamma)", Table.Right) ]
  in
  Array.iter
    (fun (g, dl) ->
      Table.add_row t
        [
          Table.fmt_pct g;
          Table.fmt_ppm dl;
          Table.fmt_ppm (Williams_brown.defect_level ~yield:e.yield ~coverage:g);
        ])
    (Experiment.dl_vs_gamma_points e ~ks);
  Table.print t;
  print_endline
    "shape check: a complete-but-unweighted fault set still cannot predict DL —\n\
     the same deviation appears against 1 - Y^(1-Γ) (weights are essential)."

(* -------------------------------------------------------- worked examples *)

let examples () =
  section_banner "Examples" "the paper's two worked numerical examples";
  let t = Table.create
      [ ("quantity", Table.Left); ("this library", Table.Right); ("paper", Table.Right) ]
  in
  let t1 =
    Option.get
      (Projection.required_coverage ~yield:0.75
         ~params:{ Projection.r = 2.1; theta_max = 1.0 } ~target_dl:1e-4)
  in
  Table.add_row t [ "Ex.1 T for 100 ppm (R=2.1)"; Table.fmt_pct t1; "97.7%" ];
  Table.add_row t
    [ "Ex.1 T for 100 ppm (WB)";
      Table.fmt_pct (Williams_brown.required_coverage ~yield:0.75 ~target_dl:1e-4);
      "99.97%" ];
  let dl2 =
    Projection.defect_level ~yield:0.75
      ~params:{ Projection.r = 1.0; theta_max = 0.99 } ~coverage:1.0
  in
  Table.add_row t
    [ "Ex.2 DL at T=1 (θmax=.99)"; Table.fmt_ppm dl2; "2279 ppm (see EXPERIMENTS.md)" ];
  Table.print t

(* -------------------------------------------------------------- ablation *)

(* Design-choice ablations called out in DESIGN.md: what the detection
   technique and the weighting contribute. *)
let ablation () =
  let e = Lazy.force experiment in
  section_banner "Ablation" "detection technique and weighting (c432s)";
  let final = Array.length e.vectors in
  let dl_of theta = Weighted.defect_level ~yield:e.yield ~theta in
  let t = Table.create
      [ ("configuration", Table.Left); ("coverage", Table.Right);
        ("DL floor", Table.Right) ]
  in
  let theta_v = Coverage.at e.theta_curve final in
  let theta_i = Coverage.at e.theta_iddq_curve final in
  let gamma = Coverage.at e.gamma_curve final in
  Table.add_row t
    [ "voltage-only, weighted (paper)"; Table.fmt_pct theta_v;
      Table.fmt_ppm (dl_of theta_v) ];
  Table.add_row t
    [ "voltage+IDDQ, weighted"; Table.fmt_pct theta_i; Table.fmt_ppm (dl_of theta_i) ];
  Table.add_row t
    [ "voltage-only, unweighted (Huisman)"; Table.fmt_pct gamma;
      Table.fmt_ppm (dl_of gamma) ];
  Table.print t;
  print_endline
    "reading: IDDQ removes most of the residual defect level (bridges fight);\n\
     using the unweighted coverage as Θ misestimates the floor — weights matter."

(* ------------------------------------------------------------- delay test *)

(* The paper's closing argument: delay testing must join voltage testing.
   Transition-fault coverage over the same vector sequence, plus the timing
   profile that delay tests exercise. *)
let delay () =
  let e = Lazy.force experiment in
  section_banner "Delay" "transition faults and timing (extension; paper refs [8], conclusions)";
  let c = e.Experiment.mapped_circuit in
  let faults = Dl_fault.Transition.universe c in
  let r = Dl_fault.Transition.run c ~faults ~vectors:e.Experiment.vectors in
  let curve = Dl_fault.Transition.coverage_curve r in
  let t = Table.create
      [ ("k", Table.Right); ("stuck-at T(k)", Table.Right);
        ("transition TF(k)", Table.Right) ]
  in
  let ks = Experiment.sample_ks e ~points:10 in
  Array.iter
    (fun k ->
      Table.add_row t
        [ string_of_int k;
          Table.fmt_pct (Coverage.at e.Experiment.t_curve k);
          Table.fmt_pct (Coverage.at curve k) ])
    ks;
  Table.print t;
  Printf.printf
    "transition coverage lags stuck-at at every k (two conditions per      detection)
and saturates at %s; a dedicated two-pattern ATPG      (Transition_atpg) covers the rest.
"
    (Table.fmt_pct (Dl_fault.Transition.coverage r));
  let timing = Dl_logic.Timing.analyze c in
  Printf.printf
    "critical path: %.1f delay units through %d stages; worst slack %.2f
"
    (Dl_logic.Timing.critical_path_delay timing)
    (List.length (Dl_logic.Timing.critical_path timing))
    (Dl_logic.Timing.worst_slack timing)

(* ----------------------------------------------------------- test quality *)

let quality () =
  let e = Lazy.force experiment in
  section_banner "Quality" "n-detect profile and fault sampling (extension)";
  let c = e.Experiment.mapped_circuit in
  (* n-detect over a manageable prefix of the vector sequence *)
  let budget = min 256 (Array.length e.Experiment.vectors) in
  let vectors = Array.sub e.Experiment.vectors 0 budget in
  let dict = Dl_fault.Dictionary.build c ~faults:e.Experiment.stuck_faults ~vectors in
  let t = Table.create [ ("n", Table.Right); ("n-detect coverage", Table.Right) ] in
  List.iter
    (fun (n, cov) -> Table.add_row t [ string_of_int n; Table.fmt_pct cov ])
    (Dl_fault.Dictionary.n_detect_profile dict ~max_n:8);
  Table.print t;
  Printf.printf "compacted test set: %d of %d vectors preserve coverage
"
    (List.length (Dl_fault.Dictionary.greedy_compaction dict))
    budget;
  (* sampling accuracy *)
  let full = Dl_fault.Fault_sim.run c ~faults:e.Experiment.stuck_faults ~vectors in
  let actual = Dl_fault.Fault_sim.coverage full in
  let est =
    Dl_fault.Sampling.estimate_coverage ~seed:5
      ~sample_size:(Array.length e.Experiment.stuck_faults / 3)
      c ~faults:e.Experiment.stuck_faults ~vectors
  in
  Printf.printf
    "sampled coverage %.2f%% ± %.2f%% (95%%) vs exact %.2f%% — %s
"
    (100.0 *. est.coverage) (100.0 *. est.half_width) (100.0 *. actual)
    (if Dl_fault.Sampling.interval_ok est ~actual then "interval covers" else "MISS")

(* ---------------------------------------------------------- resistive bridges *)

(* How much of the extracted bridge population stays voltage-detectable as
   bridge resistance grows (Renovell's resistive bridging model): the
   physical knob behind theta_max. *)
let resistive () =
  let e = Lazy.force experiment in
  section_banner "Resistive" "bridge coverage vs short resistance (extension)";
  let m = Dl_cell.Mapping.flatten e.Experiment.mapped_circuit in
  let network = Dl_switch.Network.build m in
  (* The 40 heaviest extracted bridges carry most of the weight. *)
  let bridges =
    Array.to_list e.Experiment.extraction.faults
    |> List.filter_map (fun (f : Dl_switch.Realistic.t) ->
           match f.kind with
           | Dl_switch.Realistic.Bridge { node_a; node_b } ->
               Some (f.weight, (node_a, node_b))
           | _ -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.filteri (fun i _ -> i < 40)
    |> List.map snd |> Array.of_list
  in
  let budget = min 128 (Array.length e.Experiment.vectors) in
  let vectors = Array.sub e.Experiment.vectors 0 budget in
  let sweep =
    Dl_switch.Resistive.coverage_vs_resistance network ~bridges ~vectors
      ~resistances:[| 0.0; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 |]
  in
  let t = Table.create
      [ ("R_bridge (nmos units)", Table.Right); ("bridges detected", Table.Right) ]
  in
  Array.iter
    (fun (r, cov) ->
      Table.add_row t [ Printf.sprintf "%.1f" r; Table.fmt_pct cov ])
    sweep;
  Table.print t;
  print_endline
    "higher-resistance shorts stop flipping logic and escape the voltage test:
     the resistive tail is part of the residual defect level that IDDQ recovers."

(* ------------------------------------------------------------ clustered DL *)

let clustered () =
  section_banner "Clustered" "defect level under clustered statistics (extension)";
  let t = Table.create
      [ ("T", Table.Right); ("Poisson (WB)", Table.Right);
        ("alpha = 2", Table.Right); ("alpha = 0.5", Table.Right) ]
  in
  List.iter
    (fun cov ->
      Table.add_row t
        [
          Table.fmt_pct cov;
          Table.fmt_ppm (Williams_brown.defect_level ~yield:0.75 ~coverage:cov);
          Table.fmt_ppm (Clustered.defect_level ~yield:0.75 ~alpha:2.0 ~coverage:cov);
          Table.fmt_ppm (Clustered.defect_level ~yield:0.75 ~alpha:0.5 ~coverage:cov);
        ])
    [ 0.0; 0.5; 0.8; 0.9; 0.95; 0.99 ];
  Table.print t;
  print_endline
    "clustering (small alpha) lowers DL at equal yield/coverage: faulty dies
     carry several faults and partial tests catch them — the statistics-side
     view of Agrawal's multiple-fault argument."

(* ---------------------------------------------------------- seed stability *)

(* The fitted parameters are statements about the circuit and the defect
   statistics, not about one vector sequence: re-running with independent
   ATPG seeds must give consistent (R, theta_max). *)
let stability () =
  section_banner "Stability" "fitted parameters across independent seeds (extension)";
  let circuit = Dl_netlist.Benchmarks.c432s_small () in
  let t = Table.create
      [ ("seed", Table.Right); ("vectors", Table.Right); ("fitted R", Table.Right);
        ("fitted θmax", Table.Right) ]
  in
  let rs = ref [] and thetas = ref [] in
  List.iter
    (fun seed ->
      let e =
        Experiment.run (Experiment.config ~seed ~max_random_vectors:512 circuit)
      in
      let fit = Experiment.fit_params e () in
      rs := fit.params.r :: !rs;
      thetas := fit.params.theta_max :: !thetas;
      Table.add_row t
        [
          string_of_int seed;
          string_of_int (Array.length e.vectors);
          Printf.sprintf "%.3f" fit.params.r;
          Printf.sprintf "%.3f" fit.params.theta_max;
        ])
    [ 3; 7; 13; 29; 71 ];
  Table.print t;
  let arr l = Array.of_list l in
  Printf.printf "R = %.3f ± %.3f, θmax = %.3f ± %.3f over 5 seeds\n"
    (Dl_util.Stats.mean (arr !rs))
    (Dl_util.Stats.stddev (arr !rs))
    (Dl_util.Stats.mean (arr !thetas))
    (Dl_util.Stats.stddev (arr !thetas))

(* -------------------------------------------------------------- stats sweep *)

(* The physical reading of R: it tracks bridging dominance.  Sweep the
   open-defect density and watch the fitted (R, theta_max) respond — more
   opens (hard, equal-likelihood faults) pull R down and theta_max down. *)
let sweep () =
  section_banner "Sweep" "fitted (R, θmax) vs open-defect density (extension)";
  let circuit = Dl_netlist.Benchmarks.c432s_small () in
  let t = Table.create
      [ ("open-density scale", Table.Right); ("fitted R", Table.Right);
        ("fitted θmax", Table.Right); ("Θ final", Table.Right) ]
  in
  List.iter
    (fun scale ->
      let stats =
        List.fold_left
          (fun acc layer ->
            Dl_extract.Defect_stats.scale_class acc
              (Dl_extract.Defect_stats.Open_on layer) scale)
          Dl_extract.Defect_stats.default
          [ Dl_layout.Geom.Metal1; Dl_layout.Geom.Metal2; Dl_layout.Geom.Poly ]
      in
      let e =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:512 ~stats circuit)
      in
      let fit = Experiment.fit_params e () in
      Table.add_row t
        [
          Printf.sprintf "%.1fx" scale;
          Printf.sprintf "%.3f" fit.params.r;
          Printf.sprintf "%.3f" fit.params.theta_max;
          Table.fmt_pct (Coverage.at e.theta_curve (Array.length e.vectors));
        ])
    [ 0.2; 1.0; 5.0; 25.0 ];
  Table.print t;
  print_endline
    "clean (metal) opens behave like detectable stuck-ats: they pull R toward\n\
     1 and dilute the voltage-undetectable bridge tail, nudging theta_max up.";
  (* Second knob: floating-gate (poly) opens are voltage-undetectable, the
     direct driver of theta_max. *)
  let t2 = Table.create
      [ ("poly-open scale", Table.Right); ("fitted θmax", Table.Right);
        ("Θ final", Table.Right); ("residual DL", Table.Right) ]
  in
  List.iter
    (fun scale ->
      let stats =
        Dl_extract.Defect_stats.scale_class Dl_extract.Defect_stats.default
          (Dl_extract.Defect_stats.Open_on Dl_layout.Geom.Poly) scale
      in
      let e =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:512 ~stats circuit)
      in
      let fit = Experiment.fit_params e () in
      let theta_final = Coverage.at e.theta_curve (Array.length e.vectors) in
      Table.add_row t2
        [
          Printf.sprintf "%.0fx" scale;
          Printf.sprintf "%.3f" fit.params.theta_max;
          Table.fmt_pct theta_final;
          Table.fmt_ppm
            (Projection.residual_defect_level ~yield:e.yield ~theta_max:theta_final);
        ])
    [ 1.0; 10.0; 50.0 ];
  Table.print t2;
  print_endline
    "floating (unknown-level) opens are invisible to voltage testing: their\n\
     density directly sets theta_max and hence the residual defect level --\n\
     the knob the paper's conclusions point current/delay testing at."

(* --------------------------------------------------------------- lot check *)

let lot () =
  let e = Lazy.force experiment in
  section_banner "Lot" "Monte-Carlo production lot vs the analytic model";
  let detected =
    Array.map
      (fun (d : Dl_switch.Swift.detection) -> d.voltage <> None)
      e.Experiment.swift_result.detection
  in
  let lot =
    Production.simulate ~seed:13 ~dies:200_000 ~weights:e.Experiment.scaled_weights
      ~detected ()
  in
  let analytic =
    Weighted.defect_level_of_weights ~weights:e.Experiment.scaled_weights ~detected
  in
  Printf.printf
    "200k simulated dies with the extracted fault population:
    \  observed yield        %.4f   (target 0.75)
    \  empirical defect lvl  %s
    \  eq. 3 prediction      %s
"
    (Production.observed_yield lot)
    (Table.fmt_ppm (Production.defect_level lot))
    (Table.fmt_ppm analytic)

(* ------------------------------------------------------- parallel engine *)

(* Wall-clock speedup of Fault_sim.run_parallel over the serial engine on a
   c432-scale workload (collapsed fault universe, 1024 random vectors, no
   dropping so every block carries the full fault load), plus a bit-for-bit
   identity check of every merged field at each domain count. *)
let par () =
  section_banner "Par" "multicore PPSFP speedup vs domain count (c432s)";
  let c =
    Dl_netlist.Transform.decompose_for_cells (Dl_netlist.Benchmarks.c432s ())
  in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let rng = Dl_util.Rng.create 99 in
  let vectors =
    Array.init 1024 (fun _ ->
        Array.init (Dl_netlist.Circuit.input_count c) (fun _ ->
            Dl_util.Rng.bool rng))
  in
  Printf.printf "%d faults x %d vectors, recommended domains: %d\n%!"
    (Array.length faults) (Array.length vectors)
    (Dl_util.Parallel.default_domains ());
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, t_serial =
    time (fun () -> Dl_fault.Fault_sim.run ~drop_detected:false c ~faults ~vectors)
  in
  Printf.printf "serial: %.3f s (%d detected, %d gate evals)\n%!" t_serial
    (Dl_fault.Fault_sim.detected_count serial)
    serial.gate_evaluations;
  (* Old-vs-new: the retained pre-kernel engine on the same workload. *)
  let reference, t_reference =
    time (fun () ->
        Dl_fault.Fault_sim.Reference.run ~drop_detected:false c ~faults ~vectors)
  in
  Printf.printf
    "reference (pre-kernel) serial: %.3f s — kernel speedup %.2fx, identical: %s\n%!"
    t_reference (t_reference /. t_serial)
    (if reference.first_detection = serial.first_detection
        && reference.gate_evaluations = serial.gate_evaluations
     then "yes"
     else "NO");
  let counts =
    List.sort_uniq Stdlib.compare [ 1; 2; 4; Dl_util.Parallel.default_domains () ]
  in
  let t = Table.create
      [ ("domains", Table.Right); ("time", Table.Right); ("speedup", Table.Right);
        ("identical", Table.Right) ]
  in
  List.iter
    (fun domains ->
      Dl_util.Parallel.with_pool ~domains (fun pool ->
          let r, dt =
            time (fun () ->
                Dl_fault.Fault_sim.run_parallel ~drop_detected:false ~pool c
                  ~faults ~vectors)
          in
          let identical =
            r.first_detection = serial.first_detection
            && r.gate_evaluations = serial.gate_evaluations
          in
          Table.add_row t
            [ string_of_int domains;
              Printf.sprintf "%.3f s" dt;
              Printf.sprintf "%.2fx" (t_serial /. dt);
              (if identical then "yes" else "NO") ]))
    counts;
  Table.print t;
  (* The production mode (fault dropping) must agree too. *)
  let a = Dl_fault.Fault_sim.run ~drop_detected:true c ~faults ~vectors in
  let b =
    Dl_fault.Fault_sim.run_parallel ~drop_detected:true ~domains:4 c ~faults
      ~vectors
  in
  Printf.printf "drop_detected mode identical at 4 domains: %s\n"
    (if a.first_detection = b.first_detection
        && a.gate_evaluations = b.gate_evaluations
     then "yes"
     else "NO");
  print_endline
    "determinism: sharding is by fault index and merges preserve it, so the\n\
     table above must read identical = yes at every domain count."

(* ----------------------------------------------------------- flat kernel *)

(* Old-vs-new simulation-kernel gate: measures gate-evaluation throughput
   and steady-state allocation of the flat CSR engine against the retained
   reference engine, checks the results are bit-for-bit identical, and
   writes the machine-readable BENCH_fault_sim.json so the perf trajectory
   is tracked run over run.  Exits non-zero if the hot loop allocates
   (> 0.5 minor words per gate evaluation would mean a box crept back in —
   a genuine per-eval box costs >= 3 words). *)
let kernel_bench () =
  section_banner "Kernel" "flat CSR kernel vs reference engine (c432s)";
  let c =
    Dl_netlist.Transform.decompose_for_cells (Dl_netlist.Benchmarks.c432s ())
  in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let rng = Dl_util.Rng.create 99 in
  let vectors =
    Array.init 4096 (fun _ ->
        Array.init (Dl_netlist.Circuit.input_count c) (fun _ ->
            Dl_util.Rng.bool rng))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let measure ~section ~run_new ~run_ref =
    (* Warm-up runs amortize lowering and first-touch costs out of both
       the timing and the Gc delta. *)
    let reference : Dl_fault.Fault_sim.result = run_ref () in
    let warm : Dl_fault.Fault_sim.result = run_new () in
    assert (warm.first_detection = reference.first_detection);
    assert (warm.gate_evaluations = reference.gate_evaluations);
    let m0 = Gc.minor_words () in
    let result, t_new = time run_new in
    let m1 = Gc.minor_words () in
    let _, t_ref = time run_ref in
    let evals = float_of_int result.gate_evaluations in
    let gate_evals_per_sec = evals /. t_new in
    let minor_words_per_eval = (m1 -. m0) /. evals in
    let speedup = t_ref /. t_new in
    Printf.printf
      "%-10s kernel %.3fs (%.1fM evals/s, %.4f minor words/eval)  \
       reference %.3fs  speedup %.2fx\n%!"
      section t_new (gate_evals_per_sec /. 1e6) minor_words_per_eval t_ref
      speedup;
    (section, gate_evals_per_sec, minor_words_per_eval, speedup)
  in
  (* Explicit lets: list literals evaluate right-to-left in OCaml, which
     would scramble the printed order. *)
  let row_micro =
    measure ~section:"micro"
      ~run_new:(fun () ->
        Dl_fault.Fault_sim.run ~drop_detected:false c ~faults ~vectors)
      ~run_ref:(fun () ->
        Dl_fault.Fault_sim.Reference.run ~drop_detected:false c ~faults
          ~vectors)
  in
  let row_drop =
    measure ~section:"drop"
      ~run_new:(fun () ->
        Dl_fault.Fault_sim.run ~drop_detected:true c ~faults ~vectors)
      ~run_ref:(fun () ->
        Dl_fault.Fault_sim.Reference.run ~drop_detected:true c ~faults
          ~vectors)
  in
  let rows = [ row_micro; row_drop ] in
  (* --- PR 7 engine-variant rows on c880s-class and larger circuits ----- *)
  (* One row per engine variant per circuit: wall-clock over the same
     1024-vector no-drop workload (so throughput in fault-vector pairs per
     second is engine-comparable even though the inference engines
     evaluate far fewer gates), speedup vs the PR 2 flat kernel, and
     steady-state allocation per gate evaluation measured as the delta
     between a half- and a full-length run (cancelling per-run lowering
     and buffer setup). *)
  let failed = ref false in
  let variant_rows_for (cname, build) =
    let c = Dl_netlist.Transform.decompose_for_cells (build ()) in
    let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
    let rng = Dl_util.Rng.create 4242 in
    let vectors =
      Array.init 1024 (fun _ ->
          Array.init (Dl_netlist.Circuit.input_count c) (fun _ ->
              Dl_util.Rng.bool rng))
    in
    let half = Array.sub vectors 0 512 in
    let run engine vecs =
      Dl_fault.Fault_sim.run_with ~engine ~drop_detected:false c ~faults
        ~vectors:vecs
    in
    Printf.printf "\n%s: %d gates, %d collapsed faults, %d vectors\n%!" cname
      (Dl_netlist.Circuit.node_count c - Dl_netlist.Circuit.input_count c)
      (Array.length faults) (Array.length vectors);
    let reference = run Dl_fault.Fault_sim.Reference vectors in
    let pairs = float_of_int (Array.length faults * Array.length vectors) in
    let raw =
      List.map
        (fun engine ->
          ignore (run engine half) (* warm: fault-collapse, first touch *);
          let mh0 = Gc.minor_words () in
          let r_half = run engine half in
          let mh1 = Gc.minor_words () in
          let mf0 = Gc.minor_words () in
          let r, t = time (fun () -> run engine vectors) in
          let mf1 = Gc.minor_words () in
          let identical = r.first_detection = reference.first_detection in
          if not identical then begin
            Printf.eprintf "FAIL: %s/%s detection words differ from reference\n"
              cname
              (Dl_fault.Fault_sim.engine_to_string engine);
            failed := true
          end;
          let d_evals =
            r.Dl_fault.Fault_sim.stats.Dl_fault.Fault_sim.Stats.gate_evaluations
            - r_half.Dl_fault.Fault_sim.stats
                .Dl_fault.Fault_sim.Stats.gate_evaluations
          in
          let words_per_eval =
            if d_evals <= 0 then 0.0
            else (mf1 -. mf0 -. (mh1 -. mh0)) /. float_of_int d_evals
          in
          (engine, t, r, words_per_eval, identical))
        Dl_fault.Fault_sim.engines
    in
    let t_flat =
      List.fold_left
        (fun acc (e, t, _, _, _) ->
          if e = Dl_fault.Fault_sim.Flat then t else acc)
        nan raw
    in
    let table = Table.create
        [ ("engine", Table.Left); ("time", Table.Right);
          ("Mfault-vec/s", Table.Right); ("vs flat", Table.Right);
          ("words/eval", Table.Right); ("identical", Table.Right) ]
    in
    let rows =
      List.map
        (fun (engine, t, (r : Dl_fault.Fault_sim.result), wpe, identical) ->
          let speedup = t_flat /. t in
          Table.add_row table
            [ Dl_fault.Fault_sim.engine_to_string engine;
              Printf.sprintf "%.3f s" t;
              Printf.sprintf "%.2f" (pairs /. t /. 1e6);
              Printf.sprintf "%.2fx" speedup;
              Printf.sprintf "%.4f" wpe;
              (if identical then "yes" else "NO") ];
          (cname, engine, t, pairs /. t, speedup, wpe, r.Dl_fault.Fault_sim.stats))
        raw
    in
    Table.print table;
    (* gates: the PR 7 engines must beat the PR 2 flat kernel at least 2x
       on these circuits, and the wide hot loop must stay allocation-free *)
    let best =
      List.fold_left
        (fun acc (_, e, _, _, s, _, _) ->
          if e = Dl_fault.Fault_sim.Reference || e = Dl_fault.Fault_sim.Flat
          then acc
          else max acc s)
        0.0 rows
    in
    if best < 2.0 then begin
      Printf.eprintf
        "FAIL: %s: best engine-variant speedup %.2fx < 2x over the flat \
         kernel\n"
        cname best;
      failed := true
    end;
    List.iter
      (fun (_, e, _, _, _, wpe, _) ->
        if e = Dl_fault.Fault_sim.Wide && wpe > 0.05 then begin
          Printf.eprintf
            "FAIL: %s: wide hot loop allocates %.4f minor words per gate \
             evaluation (gate: 0.05)\n"
            cname wpe;
          failed := true
        end)
      rows;
    rows
  in
  let variant_rows =
    List.concat_map variant_rows_for
      [ ("c880s", Dl_netlist.Benchmarks.c880s);
        ("c1355s", Dl_netlist.Benchmarks.c1355s);
        ("c1908s", Dl_netlist.Benchmarks.c1908s) ]
  in
  let json_path =
    match Sys.getenv_opt "BENCH_FAULT_SIM_JSON" with
    | Some p -> p
    | None -> "BENCH_fault_sim.json"
  in
  let oc = open_out json_path in
  output_string oc "[\n";
  List.iteri
    (fun i (section, geps, words, speedup) ->
      Printf.fprintf oc
        "  {\"section\": %S, \"gate_evals_per_sec\": %.0f, \
         \"minor_words_per_eval\": %.4f, \"speedup_vs_reference\": %.3f}%s\n"
        section geps words speedup
        (if i = List.length rows - 1 && variant_rows = [] then "" else ","))
    rows;
  List.iteri
    (fun i (cname, engine, t, tput, speedup, wpe, stats) ->
      let s = stats in
      Printf.fprintf oc
        "  {\"section\": %S, \"engine\": %S, \"time_s\": %.4f, \
         \"fault_vectors_per_sec\": %.0f, \"speedup_vs_flat\": %.3f, \
         \"minor_words_per_gate_eval\": %.4f, \"stats\": \
         {\"gate_evaluations\": %d, \"events\": %d, \"faults_inferred\": %d, \
         \"faults_simulated\": %d, \"stem_simulations\": %d, \
         \"faults_dropped\": %d}}%s\n"
        cname
        (Dl_fault.Fault_sim.engine_to_string engine)
        t tput speedup wpe s.Dl_fault.Fault_sim.Stats.gate_evaluations
        s.Dl_fault.Fault_sim.Stats.events
        s.Dl_fault.Fault_sim.Stats.faults_inferred
        s.Dl_fault.Fault_sim.Stats.faults_simulated
        s.Dl_fault.Fault_sim.Stats.stem_simulations
        s.Dl_fault.Fault_sim.Stats.faults_dropped
        (if i = List.length variant_rows - 1 then "" else ","))
    variant_rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  let micro_words =
    List.fold_left
      (fun acc (s, _, w, _) -> if s = "micro" then w else acc)
      infinity rows
  in
  if micro_words > 0.5 then begin
    Printf.eprintf
      "FAIL: steady-state hot loop allocates %.4f minor words per gate \
       evaluation (expected ~0)\n"
      micro_words;
    exit 1
  end;
  if !failed then exit 1;
  print_endline
    "gate: identity asserted against the reference engine on every row;\n\
     steady-state allocation ~0 words per gate evaluation; PR 7 engines\n\
     >= 2x over the flat kernel on c880s/c1355s/c1908s."

(* ------------------------------------------------------------ store bench *)

(* Cold-vs-warm gate for the artifact store: the same c432s pipeline twice
   through one fresh cache must (a) produce a bit-identical summary and
   fit, (b) hit every stage on the second run, and (c) be meaningfully
   faster warm.  Writes the machine-readable BENCH_store.json (or
   $BENCH_STORE_JSON) so the caching win is tracked run over run. *)
let store_bench () =
  section_banner "Store" "artifact cache cold vs warm (c432s pipeline)";
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlproj_store_bench_%d" (Unix.getpid ()))
  in
  if Sys.file_exists cache_dir then rm_rf cache_dir;
  let run () =
    let c = Dl_netlist.Benchmarks.c432s () in
    let t0 = Unix.gettimeofday () in
    let e =
      Experiment.run
        (Experiment.config ~seed:7 ~max_random_vectors:256 ~cache_dir c)
    in
    (e, Unix.gettimeofday () -. t0)
  in
  Printf.printf "[cold run...]\n%!";
  let cold, cold_s = run () in
  Printf.printf "[warm run...]\n%!";
  let warm, warm_s = run () in
  let total = List.length warm.Experiment.stage_reports in
  let hits =
    List.length
      (List.filter
         (fun (r : Dl_store.Stage.report) -> r.outcome = Dl_store.Stage.Hit)
         warm.Experiment.stage_reports)
  in
  let hit_rate = float_of_int hits /. float_of_int total in
  let speedup = cold_s /. warm_s in
  Printf.printf "cold %.3f s, warm %.3f s — %.0fx, warm hits %d/%d\n" cold_s
    warm_s speedup hits total;
  Format.printf "%a@." Dl_store.Stage.pp_reports warm.Experiment.stage_reports;
  let identical =
    cold.Experiment.summary = warm.Experiment.summary
    && cold.Experiment.fit = warm.Experiment.fit
  in
  rm_rf cache_dir;
  let json_path =
    match Sys.getenv_opt "BENCH_STORE_JSON" with
    | Some p -> p
    | None -> "BENCH_store.json"
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"section\": \"store\", \"cold_s\": %.3f, \"warm_s\": %.3f, \
     \"warm_speedup\": %.2f, \"hit_rate\": %.3f}\n"
    cold_s warm_s speedup hit_rate;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  let failed = ref false in
  if not identical then begin
    Printf.eprintf "FAIL: warm summary/fit differ from cold\n";
    failed := true
  end;
  if hit_rate < 1.0 then begin
    Printf.eprintf "FAIL: warm run hit only %d of %d stages\n" hits total;
    failed := true
  end;
  if speedup < 3.0 then begin
    Printf.eprintf "FAIL: warm speedup %.2fx < 3x\n" speedup;
    failed := true
  end;
  if !failed then exit 1;
  print_endline
    "gate: warm run bit-identical to cold and served entirely from cache."

(* ------------------------------------------------------------ serve bench *)

(* Loopback load test for the Dl_serve daemon: N concurrent clients fire
   submissions drawn from a small set of distinct configs at one warm
   server, so identical requests coalesce in flight or hit the result
   cache and only a handful of underlying experiments ever run.  Measures
   end-to-end throughput and client-observed latency percentiles, then
   gates: every request answered with a Result, answers for the same key
   identical, and the coalescing hit-rate above one half.  Writes the
   machine-readable BENCH_serve.json (or $BENCH_SERVE_JSON). *)
let serve_bench () =
  section_banner "Serve" "concurrent loopback clients vs the projection daemon";
  let module P = Dl_serve.Protocol in
  let socket =
    Dl_serve.Transport.Unix_socket
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "dlproj_bench_%d.sock" (Unix.getpid ())))
  in
  let cfg =
    Dl_serve.Server.config ~workers:2 ~queue_capacity:64 ~domains_per_worker:1
      ~listen:socket ()
  in
  let server = Dl_serve.Server.start cfg in
  let clients = 8 and per_client = 12 and distinct = 4 in
  let total = clients * per_client in
  let spec seed =
    P.job_spec ~seed ~max_random_vectors:64 (P.Builtin "c17")
  in
  let latencies = Array.make total nan in
  let failures = Atomic.make 0 in
  let by_key : (string, P.result_payload) Hashtbl.t = Hashtbl.create 8 in
  let key_mutex = Mutex.create () in
  let mismatches = Atomic.make 0 in
  let client_thread i () =
    Dl_serve.Client.with_client socket (fun c ->
        for r = 0 to per_client - 1 do
          let t0 = Unix.gettimeofday () in
          match Dl_serve.Client.submit c (spec ((i + r) mod distinct)) with
          | P.Result served ->
              latencies.((i * per_client) + r) <-
                (Unix.gettimeofday () -. t0) *. 1000.0;
              let p = served.P.payload in
              Mutex.lock key_mutex;
              (match Hashtbl.find_opt by_key p.P.request_key with
              | None -> Hashtbl.replace by_key p.P.request_key p
              | Some first -> if compare first p <> 0 then Atomic.incr mismatches);
              Mutex.unlock key_mutex
          | _ -> Atomic.incr failures
        done)
  in
  Printf.printf "[%d clients x %d requests, %d distinct configs...]\n%!"
    clients per_client distinct;
  let wall0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create (client_thread i) ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let stats = Dl_serve.Server.stats server in
  Dl_serve.Server.stop server;
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let pct q =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let req_per_sec = float_of_int total /. wall_s in
  let coalesce_rate =
    float_of_int (stats.P.completed - stats.P.executed)
    /. float_of_int (max 1 stats.P.completed)
  in
  Printf.printf
    "%d requests in %.3f s — %.0f req/s, p50 %.2f ms, p99 %.2f ms\n"
    total wall_s req_per_sec p50 p99;
  Printf.printf "executed %d, completed %d — coalesce/cache hit-rate %.2f\n"
    stats.P.executed stats.P.completed coalesce_rate;
  let json_path =
    match Sys.getenv_opt "BENCH_SERVE_JSON" with
    | Some p -> p
    | None -> "BENCH_serve.json"
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"section\": \"serve\", \"clients\": %d, \"requests\": %d, \
     \"wall_s\": %.3f, \"req_per_sec\": %.0f, \"p50_ms\": %.3f, \
     \"p99_ms\": %.3f, \"executed\": %d, \"coalesce_rate\": %.3f}\n"
    clients total wall_s req_per_sec p50 p99 stats.P.executed coalesce_rate;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  let failed = ref false in
  if Atomic.get failures > 0 then begin
    Printf.eprintf "FAIL: %d of %d requests were not answered with a Result\n"
      (Atomic.get failures) total;
    failed := true
  end;
  if Atomic.get mismatches > 0 then begin
    Printf.eprintf "FAIL: %d answers differed from the first for their key\n"
      (Atomic.get mismatches);
    failed := true
  end;
  if coalesce_rate <= 0.5 then begin
    Printf.eprintf "FAIL: coalesce/cache hit-rate %.2f <= 0.5\n" coalesce_rate;
    failed := true
  end;
  if !failed then exit 1;
  print_endline
    "gate: every request answered, per-key answers identical, majority\n\
     of requests served without re-execution."

(* ------------------------------------------------------- serve-load bench *)

(* Open-loop smoke of the Load_gen platform: a seeded Poisson schedule over
   a benchmark + generated-family mix replayed against a warm loopback
   server.  Unlike the closed-loop "serve" section above, arrivals do not
   wait for responses, so rejection/expiry/tail-latency behaviour under a
   fixed offered rate is visible.  Gates: no failed exchanges, a minimum
   sustained throughput, and a bounded p99.  Writes BENCH_serve_load.json
   (or $BENCH_SERVE_LOAD_JSON). *)
let serve_load_bench () =
  section_banner "Serve-load"
    "seeded open-loop traffic vs the projection daemon";
  let module L = Dl_serve.Load_gen in
  let socket =
    Dl_serve.Transport.Unix_socket
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "dlproj_bench_load_%d.sock" (Unix.getpid ())))
  in
  let server =
    Dl_serve.Server.start
      (Dl_serve.Server.config ~workers:2 ~queue_capacity:64
         ~domains_per_worker:1 ~listen:socket ())
  in
  let cfg =
    L.config ~rate:30.0 ~duration:2.0
      ~mix:[ ("c17", 3); ("tree-like", 1) ]
      ~seed:11 ~gates:40 ~distinct:2 ~max_random_vectors:32 ()
  in
  Printf.printf "[%.0f req/s for %.1f s over %s, %d distinct seeds/class...]\n%!"
    cfg.L.rate cfg.L.duration
    (String.concat "," (List.map fst cfg.L.mix))
    cfg.L.distinct;
  let _records, report = L.run ~clients:4 ~socket cfg in
  Dl_serve.Server.stop server;
  Format.printf "%a@." L.pp_report report;
  let json_path =
    match Sys.getenv_opt "BENCH_SERVE_LOAD_JSON" with
    | Some p -> p
    | None -> "BENCH_serve_load.json"
  in
  let oc = open_out json_path in
  Printf.fprintf oc "{\"section\": \"serve-load\", \"report\": %s}\n"
    (L.report_to_json report);
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  (* Smoke gates: generous (cold family experiments dominate the tail on a
     loaded CI box) but fatal for gross regressions — a wedged queue, a
     coalescer that stopped deduplicating, or a p99 runaway. *)
  let min_throughput = 2.0 and max_p99_ms = 30_000.0 in
  let failed = ref false in
  if report.L.failed > 0 then begin
    Printf.eprintf "FAIL: %d of %d exchanges failed outright\n" report.L.failed
      report.L.sent;
    failed := true
  end;
  if report.L.achieved_rate < min_throughput then begin
    Printf.eprintf "FAIL: sustained throughput %.1f served/s < %.1f\n"
      report.L.achieved_rate min_throughput;
    failed := true
  end;
  if report.L.p99_ms > max_p99_ms then begin
    Printf.eprintf "FAIL: p99 %.1f ms > %.0f ms\n" report.L.p99_ms max_p99_ms;
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf
    "gate: no failed exchanges, >= %.0f served/s sustained, p99 <= %.0f ms\n"
    min_throughput max_p99_ms

(* ---------------------------------------------------------- cluster bench *)

(* Loopback fleet gate: the same batch shape run against one worker alone
   and against a 1-coordinator/4-worker TCP fleet.  Gates: every request
   answered, cross-worker resubmissions bit-identical, the distributed
   store serves resubmissions without recomputing (fetch-through hit-rate
   >= 0.9), and aggregate throughput — >= 3x on a >= 4-core host, a
   reduced no-regression bound on smaller hosts (an in-process fleet
   cannot out-run its core count).  Appends a cluster row to
   BENCH_serve.json (or $BENCH_SERVE_JSON). *)
let cluster_bench () =
  section_banner "Cluster" "1-coordinator/4-worker loopback fleet vs a single worker";
  let module P = Dl_serve.Protocol in
  let module W = Dl_cluster.Worker in
  let module Coord = Dl_cluster.Coord in
  let module Ring = Dl_cluster.Hash_ring in
  let module T = Dl_serve.Transport in
  let loopback = T.Tcp ("127.0.0.1", 0) in
  let cores = Dl_util.Parallel.default_domains () in
  let dpw = if cores >= 4 then 2 else 1 in
  let fleet_size = 4 and n_jobs = 12 and clients = 4 in
  let spec seed =
    P.job_spec ~seed ~max_random_vectors:128 (P.Builtin "c432s_small")
  in
  let tmp tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dlproj_bench_cluster_%d_%s" (Unix.getpid ()) tag)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let rec remove_tree path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun e -> remove_tree (Filename.concat path e))
          (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let failures = Atomic.make 0 in
  (* [clients] threads drain a shared batch of distinct seeds; returns
     wall seconds and the answers by seed *)
  let run_batch endpoint seeds =
    let seeds = Array.of_list seeds in
    let next = Atomic.make 0 in
    let answers = Array.make (Array.length seeds) None in
    let worker () =
      Dl_serve.Client.with_client endpoint (fun c ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < Array.length seeds then begin
              (match Dl_serve.Client.submit c (spec seeds.(i)) with
              | P.Result served -> answers.(i) <- Some served.P.payload
              | _ -> Atomic.incr failures);
              loop ()
            end
          in
          loop ())
    in
    let wall0 = Unix.gettimeofday () in
    let threads = List.init clients (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. wall0 in
    (wall, Array.to_list (Array.map2 (fun s a -> (s, a)) seeds answers))
  in
  (* baseline: the same batch shape against one worker alone *)
  let base_dir = tmp "base" in
  let w0 =
    W.start ~workers:1 ~domains_per_worker:dpw ~cache_dir:base_dir
      ~listen:loopback ()
  in
  Printf.printf "[baseline: %d jobs against 1 worker...]\n%!" n_jobs;
  let t_base, _ = run_batch (W.bound w0) (List.init n_jobs Fun.id) in
  W.stop w0;
  remove_tree base_dir;
  (* fleet: 4 workers with the peer store tier, one coordinator; fresh
     seeds so no phase warms the other *)
  let dirs = List.init fleet_size (fun i -> tmp (Printf.sprintf "w%d" i)) in
  let ws =
    List.map
      (fun dir ->
        W.start ~workers:1 ~domains_per_worker:dpw ~cache_dir:dir
          ~listen:loopback ())
      dirs
  in
  let fleet = List.map W.bound ws in
  List.iter (fun w -> W.set_peers w fleet) ws;
  let coord =
    Coord.start
      (Coord.config ~max_in_flight:4 ~probe_period_s:0.5 ~listen:loopback
         ~workers:fleet ())
  in
  Printf.printf "[fleet: %d jobs against %d workers via the coordinator...]\n%!"
    n_jobs fleet_size;
  let t_fleet, fleet_answers =
    run_batch (Coord.bound coord) (List.init n_jobs (fun i -> 100 + i))
  in
  (* fetch-through: resubmit every job directly to a worker that did not
     execute it; the answer must be assembled from the distributed store
     (bit-identical, nothing recomputed) *)
  let ring = Ring.create (List.map T.to_string fleet) in
  let mismatches = ref 0 and hits = ref 0 and misses = ref 0 in
  let strip (p : P.result_payload) =
    { p with P.stage_hits = 0; stage_misses = 0 }
  in
  List.iter
    (fun (seed, answer) ->
      match answer with
      | None -> ()
      | Some (payload : P.result_payload) ->
          (* ring route: home executed it (modulo stealing); the next
             distinct members hold none of its artifacts locally *)
          let route = Ring.route ring payload.P.request_key in
          let rec resubmit = function
            | [] -> ()
            | name :: rest -> (
                match
                  Dl_serve.Client.with_client (T.of_string name) (fun c ->
                      Dl_serve.Client.submit c (spec seed))
                with
                | P.Result served when served.P.coalesced ->
                    (* this worker executed the original (stolen or
                       home); ask the next one *)
                    resubmit rest
                | P.Result served ->
                    if strip served.P.payload <> strip payload then
                      incr mismatches;
                    hits := !hits + served.P.payload.P.stage_hits;
                    misses := !misses + served.P.payload.P.stage_misses
                | _ -> Atomic.incr failures)
          in
          resubmit (match route with [] -> [] | _home :: rest -> rest))
    fleet_answers;
  Coord.stop coord;
  List.iter W.stop ws;
  List.iter remove_tree dirs;
  let speedup = t_base /. t_fleet in
  let hit_rate =
    float_of_int !hits /. float_of_int (max 1 (!hits + !misses))
  in
  Printf.printf
    "1 worker: %.3f s; fleet of %d: %.3f s — %.2fx aggregate throughput \
     (%d cores)\n"
    t_base fleet_size t_fleet speedup cores;
  Printf.printf
    "cross-worker resubmissions: fetch-through hit-rate %.2f, %d mismatches\n"
    hit_rate !mismatches;
  let json_path =
    match Sys.getenv_opt "BENCH_SERVE_JSON" with
    | Some p -> p
    | None -> "BENCH_serve.json"
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 json_path in
  Printf.fprintf oc
    "{\"section\": \"cluster\", \"workers\": %d, \"jobs\": %d, \
     \"cores\": %d, \"t_single_s\": %.3f, \"t_fleet_s\": %.3f, \
     \"speedup\": %.3f, \"fetch_hit_rate\": %.3f}\n"
    fleet_size n_jobs cores t_base t_fleet speedup hit_rate;
  close_out oc;
  Printf.printf "appended cluster row to %s\n" json_path;
  let failed = ref false in
  if Atomic.get failures > 0 then begin
    Printf.eprintf "FAIL: %d requests were not answered with a Result\n"
      (Atomic.get failures);
    failed := true
  end;
  if !mismatches > 0 then begin
    Printf.eprintf
      "FAIL: %d cross-worker answers differed from the fleet's\n" !mismatches;
    failed := true
  end;
  if hit_rate < 0.9 then begin
    Printf.eprintf "FAIL: fetch-through hit-rate %.2f < 0.9\n" hit_rate;
    failed := true
  end;
  let min_speedup = if cores >= 4 then 3.0 else 0.35 in
  if speedup < min_speedup then begin
    Printf.eprintf "FAIL: fleet speedup %.2fx < %.2fx (on %d cores)\n" speedup
      min_speedup cores;
    failed := true
  end;
  if !failed then exit 1;
  if cores >= 4 then
    print_endline
      "gate: all answered, cross-worker answers bit-identical, \
       fetch-through hit-rate >= 0.9, fleet >= 3x one worker."
  else
    Printf.printf
      "gate: all answered, cross-worker answers bit-identical, \
       fetch-through hit-rate >= 0.9; %d-core host, so the 3x fleet gate \
       is reduced to a %.2fx no-regression bound.\n"
      cores min_speedup

(* ------------------------------------------------------------------ swift *)

(* The compiled switch-level engine against the retained reference on the
   inputs of a default cold pipeline: detections and region solves must be
   identical (exit 1 otherwise), and both wall times are printed.  Not in
   the default set: the reference takes about a minute on c432s and five on
   c880s. *)
let swift_bench () =
  section_banner "Swift" "compiled switch-level engine vs Swift.Reference";
  let t =
    Table.create
      [ ("circuit", Table.Left); ("faults", Table.Right); ("vectors", Table.Right);
        ("region solves", Table.Right); ("pipeline s", Table.Right);
        ("reference s", Table.Right); ("compiled s", Table.Right);
        ("speed-up", Table.Right) ]
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun name ->
      let circuit = Option.get (Dl_netlist.Benchmarks.by_name name) in
      let e, pipeline_s = timed (fun () -> Experiment.run (Experiment.config circuit)) in
      let net = Dl_switch.Network.build (Dl_cell.Mapping.flatten e.mapped_circuit) in
      let faults = e.extraction.faults and vectors = e.vectors in
      let fast, fast_s = timed (fun () -> Dl_switch.Swift.run net ~faults ~vectors) in
      let slow, slow_s =
        timed (fun () -> Dl_switch.Swift.Reference.run net ~faults ~vectors)
      in
      if fast.detection <> slow.detection || fast.region_solves <> slow.region_solves
      then begin
        Printf.printf "FAIL %s: compiled engine differs from Swift.Reference\n" name;
        exit 1
      end;
      Table.add_row t
        [ name; string_of_int (Array.length faults);
          string_of_int (Array.length vectors); string_of_int fast.region_solves;
          Printf.sprintf "%.2f" pipeline_s; Printf.sprintf "%.2f" slow_s;
          Printf.sprintf "%.2f" fast_s; Printf.sprintf "%.1fx" (slow_s /. fast_s) ])
    [ "c432s"; "c880s" ];
  Table.print t;
  print_endline "identical detections and region solves on every circuit."

(* ------------------------------------------------------------------- atpg *)

(* The compiled PODEM engine against the retained reference on the faults a
   flow hands it: every collapsed fault of c432s, and the faults left after
   the random phase on c499s (64 vectors, as in the gate-level benchmark)
   and c880s (the pipeline default).  Outcomes and vectors must be
   identical (exit 1 otherwise); both wall times are printed.  Not in the
   default set: the reference takes about ten seconds. *)
let atpg_bench () =
  section_banner "Atpg" "compiled PODEM vs Podem.Reference";
  let t =
    Table.create
      [ ("circuit", Table.Left); ("faults", Table.Right); ("tests", Table.Right);
        ("untestable", Table.Right); ("aborted", Table.Right);
        ("reference s", Table.Right); ("compiled s", Table.Right);
        ("speed-up", Table.Right) ]
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun (name, max_random) ->
      let c =
        Dl_netlist.Transform.decompose_for_cells
          (Option.get (Dl_netlist.Benchmarks.by_name name))
      in
      let all = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
      let faults =
        match max_random with
        | None -> all
        | Some max_vectors ->
            (Dl_atpg.Random_gen.run ~seed:7 ~max_vectors c ~faults:all).remaining
      in
      let scoap = Dl_atpg.Scoap.compute c in
      let fast, fast_s =
        timed (fun () ->
            let ctx = Dl_atpg.Podem.compile ~scoap c in
            Array.map (Dl_atpg.Podem.run ctx) faults)
      in
      let slow, slow_s =
        timed (fun () -> Array.map (Dl_atpg.Podem.Reference.generate ~scoap c) faults)
      in
      if fast <> slow then begin
        Printf.printf "FAIL %s: compiled PODEM differs from Podem.Reference\n" name;
        exit 1
      end;
      let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 fast in
      Table.add_row t
        [ name; string_of_int (Array.length faults);
          string_of_int (count (function Dl_atpg.Podem.Test _ -> true | _ -> false));
          string_of_int (count (( = ) Dl_atpg.Podem.Untestable));
          string_of_int (count (( = ) Dl_atpg.Podem.Aborted));
          Printf.sprintf "%.3f" slow_s; Printf.sprintf "%.3f" fast_s;
          Printf.sprintf "%.1fx" (slow_s /. fast_s) ])
    [ ("c432s", None); ("c499s", Some 64); ("c880s", Some 4096) ];
  Table.print t;
  print_endline "identical outcomes and vectors on every circuit."

(* ---------------------------------------------------------- micro-benches *)

let micro () =
  section_banner "Micro" "Bechamel engine benchmarks (time per run)";
  let open Bechamel in
  let c432 = Dl_netlist.Transform.decompose_for_cells (Dl_netlist.Benchmarks.c432s ()) in
  let small = Dl_netlist.Transform.decompose_for_cells (Dl_netlist.Benchmarks.c432s_small ()) in
  let rng = Dl_util.Rng.create 99 in
  let words = Dl_logic.Sim2.random_words rng c432 in
  let faults = Dl_fault.Stuck_at.collapse c432 (Dl_fault.Stuck_at.universe c432) in
  let vectors64 =
    Array.init 64 (fun _ ->
        Array.init (Dl_netlist.Circuit.input_count c432) (fun _ -> Dl_util.Rng.bool rng))
  in
  let podem = Dl_atpg.Podem.compile ~scoap:(Dl_atpg.Scoap.compute c432) c432 in
  let hard_fault = faults.(Array.length faults / 2) in
  let mapping = Dl_cell.Mapping.flatten small in
  let network = Dl_switch.Network.build mapping in
  let layout = Dl_layout.Layout.synthesize mapping in
  let bridge_region =
    let a = mapping.Dl_cell.Mapping.signal_node.(small.Dl_netlist.Circuit.outputs.(0)) in
    let b = mapping.Dl_cell.Mapping.signal_node.(small.Dl_netlist.Circuit.outputs.(1)) in
    Dl_switch.Solver.make network
      ~instances:
        (List.filter_map (fun g -> Dl_switch.Network.owner_instance network g) [ a; b ])
      ~modifications:[ Dl_switch.Solver.Bridge_nodes { node_a = a; node_b = b } ]
  in
  let bridge_compiled = Dl_switch.Solver.compile bridge_region in
  let bridge_scratch = Dl_switch.Solver.scratch () in
  let bridge_ext =
    Array.map (fun _ -> Dl_logic.Ternary.V1) (Dl_switch.Solver.external_nodes bridge_compiled)
  in
  let bridge_charge =
    Array.map (fun _ -> Dl_logic.Ternary.VX) (Dl_switch.Solver.solved_nodes bridge_compiled)
  in
  let bridge_out = Array.copy bridge_charge in
  let kernel = Dl_netlist.Kernel.of_circuit c432 in
  let kernel_buf = Dl_netlist.Kernel.create_words kernel in
  let tests =
    [
      Test.make ~name:"sim2 reference: c432s, 64 patterns"
        (Staged.stage (fun () -> ignore (Dl_logic.Sim2.run c432 words)));
      Test.make ~name:"sim2 kernel: c432s, 64 patterns"
        (Staged.stage (fun () ->
             Dl_logic.Sim2.load_words kernel kernel_buf words;
             Dl_logic.Sim2.run_flat kernel kernel_buf));
      Test.make ~name:"ppsfp kernel: c432s block, all faults"
        (Staged.stage (fun () ->
             ignore (Dl_fault.Fault_sim.run c432 ~faults ~vectors:vectors64)));
      Test.make ~name:"ppsfp reference: c432s block, all faults"
        (Staged.stage (fun () ->
             ignore
               (Dl_fault.Fault_sim.Reference.run c432 ~faults ~vectors:vectors64)));
      Test.make ~name:"podem: one c432s fault"
        (Staged.stage (fun () -> ignore (Dl_atpg.Podem.run podem hard_fault)));
      Test.make ~name:"scoap: c432s"
        (Staged.stage (fun () -> ignore (Dl_atpg.Scoap.compute c432)));
      Test.make ~name:"switch solver: bridge region"
        (Staged.stage (fun () ->
             ignore
               (Dl_switch.Solver.solve bridge_region
                  ~external_value:(fun _ -> Dl_logic.Ternary.V1)
                  ~charge:(fun _ -> Dl_logic.Ternary.VX))));
      Test.make ~name:"switch solver compiled: bridge region"
        (Staged.stage (fun () ->
             ignore
               (Dl_switch.Solver.solve_compiled bridge_compiled bridge_scratch
                  ~ext:bridge_ext ~charge:bridge_charge ~out:bridge_out)));
      Test.make ~name:"layout: c432s_small synthesize"
        (Staged.stage (fun () -> ignore (Dl_layout.Layout.synthesize mapping)));
      Test.make ~name:"ifa: c432s_small extract"
        (Staged.stage (fun () -> ignore (Dl_extract.Ifa.extract layout)));
      Test.make ~name:"eq.11 evaluation"
        (Staged.stage (fun () ->
             ignore
               (Projection.defect_level ~yield:0.75
                  ~params:{ Projection.r = 1.9; theta_max = 0.96 }
                  ~coverage:0.9)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"dl" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table = Table.create [ ("benchmark", Table.Left); ("time/run", Table.Right) ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table.add_row table [ name; pretty ])
    (List.sort compare !rows);
  Table.print table

(* --------------------------------------------------------------- mc bench *)

(* Statistical-layer gate: Monte-Carlo wafer simulation throughput plus
   sanity of the uncertainty summaries on the real c432s pipeline.  Gates:
   (a) Wafer_mc.simulate sustains a minimum dies/sec over the extracted
   weight universe, (b) every MC band contains the paper's closed-form
   point estimate (eq. 3) between its 5% and 95% per-wafer quantiles, and
   (c) the bootstrap CIs contain their own full-data point estimates.
   Writes the machine-readable BENCH_mc.json (or $BENCH_MC_JSON). *)
let mc_bench () =
  section_banner "MC" "wafer Monte-Carlo + bootstrap gates (c432s)";
  let c = Dl_netlist.Benchmarks.c432s () in
  let mc = Experiment.mc ~dies:20_000 () in
  Printf.printf "[pipeline with --mc-dies 20000 --bootstrap 100...]\n%!";
  let t0 = Unix.gettimeofday () in
  let e =
    Experiment.run
      (Experiment.config ~seed:7 ~max_random_vectors:256 ~mc ~bootstrap:100 c)
  in
  let pipeline_s = Unix.gettimeofday () -. t0 in
  let m = Option.get e.Experiment.wafer_mc in
  let b = Option.get e.Experiment.bootstrap_fit in
  (* Throughput: re-run the simulator alone over the same universe. *)
  let firsts =
    Array.map
      (fun (d : Dl_switch.Swift.detection) -> d.voltage)
      e.Experiment.swift_result.detection
  in
  let points =
    Array.map
      (fun (b : Wafer_mc.band) -> (b.k, b.coverage))
      m.Wafer_mc.bands
  in
  let dies = 50_000 in
  let t0 = Unix.gettimeofday () in
  let timed =
    Wafer_mc.simulate
      ~seeds:(Dl_util.Seeds.scope (Dl_util.Seeds.create 7) "bench-mc")
      ~dies ~weights:e.Experiment.scaled_weights ~firsts ~points ()
  in
  let mc_s = Unix.gettimeofday () -. t0 in
  let dies_per_s = float_of_int dies /. mc_s in
  Printf.printf
    "pipeline %.2f s; standalone MC: %d dies x %d points in %.3f s = %.0f \
     dies/s (observed yield %.4f)\n"
    pipeline_s dies (Array.length points) mc_s dies_per_s
    (Wafer_mc.observed_yield timed);
  let final = Wafer_mc.final_band m in
  Printf.printf
    "final band (k=%d, theta=%.4f): DL %.1f ppm in [%.1f, %.1f] ppm; \
     closed form %.1f ppm\n"
    final.Wafer_mc.k final.Wafer_mc.coverage
    (1e6 *. final.Wafer_mc.dl_point)
    (1e6 *. final.Wafer_mc.dl_q05)
    (1e6 *. final.Wafer_mc.dl_q95)
    (1e6
    *. Weighted.defect_level ~yield:e.Experiment.yield
         ~theta:final.Wafer_mc.coverage);
  Printf.printf
    "bootstrap (%d replicates): R %.3f in [%.3f, %.3f], thetamax %.4f in \
     [%.4f, %.4f]\n"
    b.Bootstrap.replicates b.Bootstrap.point.Projection.params.r
    b.Bootstrap.r.Bootstrap.lo b.Bootstrap.r.Bootstrap.hi
    b.Bootstrap.point.Projection.params.theta_max
    b.Bootstrap.theta_max.Bootstrap.lo b.Bootstrap.theta_max.Bootstrap.hi;
  let bad_band =
    Array.find_opt
      (fun (band : Wafer_mc.band) ->
        let closed =
          Weighted.defect_level ~yield:e.Experiment.yield
            ~theta:band.Wafer_mc.coverage
        in
        not
          (band.Wafer_mc.dl_q05 <= closed && closed <= band.Wafer_mc.dl_q95))
      m.Wafer_mc.bands
  in
  let ci_ok =
    Bootstrap.contains b.Bootstrap.r b.Bootstrap.point.Projection.params.r
    && Bootstrap.contains b.Bootstrap.theta_max
         b.Bootstrap.point.Projection.params.theta_max
  in
  let json_path =
    match Sys.getenv_opt "BENCH_MC_JSON" with
    | Some p -> p
    | None -> "BENCH_mc.json"
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"section\": \"mc\", \"dies\": %d, \"mc_s\": %.3f, \"dies_per_s\": \
     %.0f, \"pipeline_s\": %.2f, \"bands\": %d, \"band_contains_point\": %b, \
     \"bootstrap_ci_contains_point\": %b}\n"
    dies mc_s dies_per_s pipeline_s (Array.length m.Wafer_mc.bands)
    (bad_band = None) ci_ok;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  let failed = ref false in
  let min_dies_per_s = 20_000.0 in
  if dies_per_s < min_dies_per_s then begin
    Printf.eprintf "FAIL: %.0f dies/s below the %.0f dies/s floor\n" dies_per_s
      min_dies_per_s;
    failed := true
  end;
  (match bad_band with
  | Some band ->
      Printf.eprintf
        "FAIL: band at k=%d does not contain the closed-form point estimate\n"
        band.Wafer_mc.k;
      failed := true
  | None -> ());
  if not ci_ok then begin
    Printf.eprintf
      "FAIL: bootstrap CI does not contain its own point estimate\n";
    failed := true
  end;
  if !failed then exit 1;
  print_endline
    "gate: MC throughput above floor; bands bracket the closed form; \
     bootstrap CIs bracket their point estimates."

(* ------------------------------------------------------------ ndet bench *)

(* n-detection gates on the real c880s pipeline: (a) engine overhead — the
   chunked multi-detect driver at quota 4 must cost at most 2.5x the
   dropping 1-detection engine on the same universe and vector sequence
   (best of 3 runs each), and (b) the full-pipeline DL(n) table must be
   monotone non-increasing in n at the shared coverage target.  Writes the
   machine-readable BENCH_ndet.json (or $BENCH_NDET_JSON). *)
let ndet_bench () =
  section_banner "NDET" "multi-detect overhead + DL(n) monotonicity (c880s)";
  let c = Dl_netlist.Benchmarks.c880s () in
  Printf.printf "[pipeline with --ndet 8...]\n%!";
  let t0 = Unix.gettimeofday () in
  let e =
    Experiment.run
      (Experiment.config ~seed:7 ~max_random_vectors:256 ~ndet:8 c)
  in
  let pipeline_s = Unix.gettimeofday () -. t0 in
  let nd = Option.get e.Experiment.ndet in
  let mapped = e.Experiment.mapped_circuit in
  let faults = e.Experiment.stuck_faults in
  let engine = e.Experiment.cfg.Experiment.sim_engine in
  (* Overhead measurement on a long random sequence: the chunked driver
     has fixed per-block bookkeeping, so a fair amortized comparison needs
     enough vectors that both engines drop most faults well before the
     end.  Repeat each run and take the best of 3 batches to shed timer
     and allocation noise at sub-millisecond per-run cost. *)
  let rng = Dl_util.Rng.create 4242 in
  let n_pi = Dl_netlist.Circuit.input_count mapped in
  let vectors =
    Array.init 1024 (fun _ ->
        Array.init n_pi (fun _ -> Dl_util.Rng.bool rng))
  in
  let repeats = 10 in
  let best_of_3 f =
    let rec go best i =
      if i >= 3 then best
      else begin
        let t0 = Unix.gettimeofday () in
        for _ = 1 to repeats do
          ignore (Sys.opaque_identity (f ()))
        done;
        go
          (Float.min best ((Unix.gettimeofday () -. t0) /. float_of_int repeats))
          (i + 1)
      end
    in
    go infinity 0
  in
  let single =
    Dl_fault.Fault_sim.run_with ~engine ~drop_detected:true mapped ~faults
      ~vectors
  in
  let ndet4 =
    Dl_fault.Fault_sim.run_ndet ~engine ~drop_after:4 mapped ~faults ~vectors
  in
  let t_single =
    best_of_3 (fun () ->
        Dl_fault.Fault_sim.run_with ~engine ~drop_detected:true mapped ~faults
          ~vectors)
  in
  let t_ndet4 =
    best_of_3 (fun () ->
        Dl_fault.Fault_sim.run_ndet ~engine ~drop_after:4 mapped ~faults
          ~vectors)
  in
  (* The gated overhead is the deterministic work ratio (faulty-machine
     gate evaluations), not wall clock: sub-millisecond timings swing with
     machine load, while the evaluation counters are reproducible to the
     bit on every run.  Wall clock stays as an informational column. *)
  let overhead =
    float_of_int ndet4.Dl_fault.Fault_sim.gate_evaluations
    /. float_of_int (max 1 single.Dl_fault.Fault_sim.gate_evaluations)
  in
  let wall_ratio = t_ndet4 /. t_single in
  Printf.printf
    "pipeline %.2f s; %d faults x %d vectors [%s]: 1-detection %.4f s \
     (%d evals), run_ndet(4) %.4f s (%d evals), work overhead %.2fx \
     (wall %.2fx)\n"
    pipeline_s (Array.length faults) (Array.length vectors)
    (Dl_fault.Fault_sim.engine_to_string engine)
    t_single single.Dl_fault.Fault_sim.gate_evaluations t_ndet4
    ndet4.Dl_fault.Fault_sim.gate_evaluations overhead wall_ratio;
  let rows = nd.Experiment.dl_n.Dl_n.rows in
  let table = Table.create
      [ ("n", Table.Right); ("final T(n)", Table.Right);
        ("k@T*", Table.Right); ("DL@T*", Table.Right) ]
  in
  Array.iter
    (fun (r : Dl_n.row) ->
      Table.add_row table
        [ string_of_int r.Dl_n.n; Table.fmt_pct r.Dl_n.final_t;
          string_of_int r.Dl_n.k_at_target; Table.fmt_ppm r.Dl_n.dl_at_target ])
    rows;
  Table.print table;
  let monotone = ref true in
  Array.iteri
    (fun j (r : Dl_n.row) ->
      if j > 0 && r.Dl_n.dl_at_target > rows.(j - 1).Dl_n.dl_at_target +. 1e-12
      then monotone := false)
    rows;
  let json_path =
    match Sys.getenv_opt "BENCH_NDET_JSON" with
    | Some p -> p
    | None -> "BENCH_ndet.json"
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"section\": \"ndet\", \"pipeline_s\": %.2f, \"t_single_s\": %.4f, \
     \"t_ndet4_s\": %.4f, \"overhead\": %.3f, \"wall_ratio\": %.3f, \
     \"single_evals\": %d, \"ndet4_evals\": %d, \"dl_monotone\": %b, \
     \"rows\": [%s]}\n"
    pipeline_s t_single t_ndet4 overhead wall_ratio
    single.Dl_fault.Fault_sim.gate_evaluations
    ndet4.Dl_fault.Fault_sim.gate_evaluations !monotone
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun (r : Dl_n.row) ->
               Printf.sprintf "{\"n\": %d, \"dl_at_target\": %.17g}" r.Dl_n.n
                 r.Dl_n.dl_at_target)
             rows)));
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  let failed = ref false in
  let max_overhead = 2.5 in
  if overhead > max_overhead then begin
    Printf.eprintf
      "FAIL: run_ndet(4) work overhead %.2fx above the %.1fx ceiling\n"
      overhead max_overhead;
    failed := true
  end;
  if not !monotone then begin
    Printf.eprintf "FAIL: DL(n) at the shared target is not non-increasing\n";
    failed := true
  end;
  if !failed then exit 1;
  print_endline
    "gate: multi-detect overhead under the ceiling; DL(n) monotone \
     non-increasing."

(* ------------------------------------------------------------------ main *)

let sections =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("examples", examples);
    ("ablation", ablation);
    ("delay", delay);
    ("quality", quality);
    ("resistive", resistive);
    ("stability", stability);
    ("sweep", sweep);
    ("clustered", clustered);
    ("lot", lot);
    ("par", par);
    ("kernel", kernel_bench);
    ("store", store_bench);
    ("serve", serve_bench);
    ("serve-load", serve_load_bench);
    ("cluster", cluster_bench);
    ("mc", mc_bench);
    ("ndet", ndet_bench);
    (* Last: after a Bechamel run, the c880s pipeline of [ndet] grew the
       heap past 1.5 GB on OCaml 5.1 (it stays near 150 MB otherwise). *)
    ("micro", micro);
    ("swift", swift_bench);
    ("atpg", atpg_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
        List.filter (fun s -> s <> "swift" && s <> "atpg") (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (have: %s)\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
