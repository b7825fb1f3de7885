(* Benchmark and figure-regeneration harness.

   One section per figure/table of the paper (printed as data rows, shape
   comparable with the published plots) plus Bechamel micro-benchmarks of
   the underlying engines.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- fig4 fig5  # selected sections

   Sections: fig1 fig2 fig3 fig4 fig5 fig6 examples ablation stability
   sweep clustered lot par kernel store serve serve-load cluster mc ndet
   projection micro, and swift and atpg (only when named: reference runs
   of minutes and seconds).  An unknown name
   fails the run (exit 2) before any section starts.

   Sections report through one harness: [check] gates (a failed check
   prints one FAIL line and makes the run exit 1 once every requested
   section has run) and [metric] rows.  The run writes every row to
   BENCH.jsonl in the working directory, truncated per run, one JSON
   object per line: {"section", "metric", "value", "unit", "host",
   "nproc"}. *)

open Dl_core
module Coverage = Dl_fault.Coverage
module Table = Dl_util.Table

let section_banner name description =
  Printf.printf "\n================ %s — %s ================\n" name description

(* ---------------------------------------------------------------- harness *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The first run's result and the least of [n] wall times: single runs of a
   few milliseconds swing with load. *)
let best_of n f =
  let r, t = timed f in
  let best = ref t in
  for _ = 2 to n do
    best := Float.min !best (snd (timed f))
  done;
  (r, !best)

(* The section the driver is running, whether all of its checks have held,
   and the rows recorded so far (newest first). *)
let current = ref ""
let section_ok = ref true
let failed = ref false
let rows : (string * string * float * string) list ref = ref []

let check ok fmt =
  Printf.ksprintf
    (fun m ->
      if not ok then begin
        flush stdout;
        Printf.eprintf "FAIL: %s\n%!" m;
        section_ok := false;
        failed := true
      end)
    fmt

(* The section's one-line summary of its gates, printed only if they held. *)
let gate fmt =
  Printf.ksprintf (fun m -> if !section_ok then print_endline ("gate: " ^ m)) fmt

let metric name value unit = rows := (!current, name, value, unit) :: !rows
let count name n = metric name (float_of_int n) "count"
let flag name b = metric name (if b then 1.0 else 0.0) "bool"

let cpu_model () =
  let model line =
    match String.index_opt line ':' with
    | Some i when String.trim (String.sub line 0 i) = "model name" ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      Option.value ~default:"unknown"
        (List.find_map model (String.split_on_char '\n' text))
  | exception Sys_error _ -> "unknown"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_rows path =
  let module P = Dl_serve.Protocol in
  let host = P.json_escape (cpu_model ()) in
  let nproc = Domain.recommended_domain_count () in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (section, name, value, unit) ->
          Printf.fprintf oc
            "{\"section\":\"%s\",\"metric\":\"%s\",\"value\":%s,\"unit\":\"%s\",\
             \"host\":\"%s\",\"nproc\":%d}\n"
            section (P.json_escape name) (P.json_float value) unit host nproc)
        (List.rev !rows))

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
     let e, s =
       timed (fun () ->
           Experiment.run (Experiment.config ~seed:7 ~max_random_vectors:4096 c))
     in
     Printf.printf "[experiment done in %.1fs]\n%!" s;
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
  let fit = e.fit in
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
    "clustering (small alpha) lowers DL at equal yield/coverage: faulty dies\n\
     carry several faults and partial tests catch them — the statistics-side\n\
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
      let fit = e.fit in
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
      let fit = e.fit in
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
      let fit = e.fit in
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

(* Eq. 3 checked by sampling: a simulated lot over the extracted fault
   population, with both clustering alphas infinite (independent Poisson
   defects, the model eq. 3 assumes), tested with the whole vector
   sequence. *)
let lot () =
  let e = Lazy.force experiment in
  section_banner "Lot" "Monte-Carlo production lot vs the analytic model";
  let firsts =
    Array.map
      (fun (d : Dl_switch.Swift.detection) -> d.voltage)
      e.Experiment.swift_result.detection
  in
  let k = Array.length e.Experiment.vectors in
  let lot =
    Wafer_mc.simulate
      ~seeds:(Dl_util.Seeds.scope (Dl_util.Seeds.create 13) "bench-lot")
      ~dies:200_000 ~weights:e.Experiment.scaled_weights ~firsts
      ~points:[| (k, Coverage.at e.Experiment.theta_curve k) |]
      ()
  in
  let analytic =
    Weighted.defect_level_of_weights ~weights:e.Experiment.scaled_weights
      ~detected:(Array.map Option.is_some firsts)
  in
  Printf.printf
    "200k simulated dies with the extracted fault population:\n\
    \  observed yield        %.4f   (target 0.75)\n\
    \  empirical defect lvl  %s\n\
    \  eq. 3 prediction      %s\n"
    (Wafer_mc.observed_yield lot)
    (Table.fmt_ppm (Wafer_mc.final_band lot).dl_point)
    (Table.fmt_ppm analytic)

(* ------------------------------------------------------- parallel engine *)

(* Wall-clock speedup of Fault_sim.run_parallel over the serial engine on a
   c432-scale workload (collapsed fault universe, 1024 random vectors, no
   dropping so every block carries the full fault load), plus a bit-for-bit
   identity check of every merged field at each domain count.  Each time is
   the best of five runs: one run takes about a millisecond, and a single
   un-warmed one swings by an order of magnitude. *)
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
  let same (a : Dl_fault.Fault_sim.result) (b : Dl_fault.Fault_sim.result) =
    a.first_detection = b.first_detection
    && a.gate_evaluations = b.gate_evaluations
  in
  let yes_no ok = if ok then "yes" else "NO" in
  let serial, t_serial =
    best_of 5 (fun () ->
        Dl_fault.Fault_sim.run ~drop_detected:false c ~faults ~vectors)
  in
  Printf.printf "serial: %.3f s (%d detected, %d gate evals)\n%!" t_serial
    (Dl_fault.Fault_sim.detected_count serial)
    serial.gate_evaluations;
  (* Old-vs-new: the retained pre-kernel engine on the same workload. *)
  let reference, t_reference =
    best_of 5 (fun () ->
        Dl_fault.Fault_sim.Reference.run ~drop_detected:false c ~faults ~vectors)
  in
  let reference_ok = reference.first_detection = serial.first_detection in
  Printf.printf
    "reference serial: %.3f s — wide speedup %.2fx, identical: %s\n%!"
    t_reference (t_reference /. t_serial) (yes_no reference_ok);
  metric "serial_s" t_serial "s";
  metric "reference_s" t_reference "s";
  check reference_ok
    "par: the serial wide engine's detections differ from the reference's";
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
            best_of 5 (fun () ->
                Dl_fault.Fault_sim.run_parallel ~drop_detected:false ~pool c
                  ~faults ~vectors)
          in
          let identical = same r serial in
          Table.add_row t
            [ string_of_int domains;
              Printf.sprintf "%.3f s" dt;
              Printf.sprintf "%.2fx" (t_serial /. dt);
              yes_no identical ];
          metric (Printf.sprintf "domains%d.time_s" domains) dt "s";
          metric (Printf.sprintf "domains%d.speedup" domains) (t_serial /. dt) "x";
          check identical "par: %d domains differ from the serial run" domains))
    counts;
  Table.print t;
  (* The production mode (fault dropping) must agree too. *)
  let a = Dl_fault.Fault_sim.run ~drop_detected:true c ~faults ~vectors in
  let b =
    Dl_fault.Fault_sim.run_parallel ~drop_detected:true ~domains:4 c ~faults
      ~vectors
  in
  let drop_ok = same a b in
  Printf.printf "drop_detected mode identical at 4 domains: %s\n" (yes_no drop_ok);
  check drop_ok "par: drop_detected mode differs from the serial run at 4 domains";
  print_endline
    "determinism: sharding is by fault index and merges preserve it, so the\n\
     table above must read identical = yes at every domain count.";
  gate "serial = reference; every domain count and drop mode identical to serial."

(* ---------------------------------------------------------- PPSFP engine *)

(* Old-vs-new simulation gate: measures gate-evaluation throughput and
   steady-state allocation of the wide PPSFP engine against the retained
   reference engine and checks the results are bit-for-bit identical.
   Fails if the hot loop allocates or if the wide engine's speedup over the
   reference falls below [min_wide_speedup] on any of the larger
   circuits. *)

(* 2x the flat-kernel engine's speedup over the reference (median of five
   runs per circuit: 3.3x on c880s, 4.0x on c1355s, 3.85x on c1908s, 2-vCPU
   host), taking the largest: the same bar as the old gate "best variant
   >= 2x over the flat kernel", now that the flat kernel is gone. *)
let min_wide_speedup = 8.0

let kernel_bench () =
  section_banner "Kernel" "wide PPSFP engine vs reference engine (c432s)";
  let module F = Dl_fault.Fault_sim in
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
  let measure name ~drop_detected =
    let run_new () = F.run ~drop_detected c ~faults ~vectors in
    let run_ref () = F.Reference.run ~drop_detected c ~faults ~vectors in
    (* Warm-up runs amortize lowering and first-touch costs out of both
       the timing and the Gc delta. *)
    let reference = run_ref () in
    let warm = run_new () in
    check (warm.first_detection = reference.first_detection)
      "%s: wide detections differ from the reference" name;
    let m0 = Gc.minor_words () in
    let result, t_new = timed run_new in
    let m1 = Gc.minor_words () in
    let _, t_ref = timed run_ref in
    let evals = float_of_int result.gate_evaluations in
    let gate_evals_per_sec = evals /. t_new in
    let minor_words_per_eval = (m1 -. m0) /. evals in
    let speedup = t_ref /. t_new in
    Printf.printf
      "%-10s wide %.3fs (%.1fM evals/s, %.4f minor words/eval)  \
       reference %.3fs  speedup %.2fx\n%!"
      name t_new (gate_evals_per_sec /. 1e6) minor_words_per_eval t_ref
      speedup;
    metric (name ^ ".gate_evals_per_sec") gate_evals_per_sec "1/s";
    metric (name ^ ".minor_words_per_eval") minor_words_per_eval "words";
    metric (name ^ ".speedup_vs_reference") speedup "x";
    minor_words_per_eval
  in
  let micro_words = measure "micro" ~drop_detected:false in
  ignore (measure "drop" ~drop_detected:true);
  check (micro_words <= 0.5)
    "steady-state hot loop allocates %.4f minor words per gate evaluation \
     (expected ~0)"
    micro_words;
  (* --- wide vs reference on c880s-class and larger circuits ------------- *)
  (* Wall-clock over the same 1024-vector no-drop workload (so throughput
     in fault-vector pairs per second is engine-comparable even though the
     wide engine evaluates far fewer gates), speedup vs the reference, and
     steady-state allocation per gate evaluation measured as the delta
     between a half- and a full-length run (cancelling per-run lowering and
     buffer setup). *)
  let circuit (cname, build) =
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
      F.run_with ~engine ~drop_detected:false c ~faults ~vectors:vecs
    in
    Printf.printf "\n%s: %d gates, %d collapsed faults, %d vectors\n%!" cname
      (Dl_netlist.Circuit.node_count c - Dl_netlist.Circuit.input_count c)
      (Array.length faults) (Array.length vectors);
    let pairs = float_of_int (Array.length faults * Array.length vectors) in
    let measure engine =
      ignore (run engine half) (* warm: fault-collapse, first touch *);
      let mh0 = Gc.minor_words () in
      let r_half = run engine half in
      let mh1 = Gc.minor_words () in
      let mf0 = Gc.minor_words () in
      let r = run engine vectors in
      let mf1 = Gc.minor_words () in
      let _, t = best_of 3 (fun () -> run engine vectors) in
      let d_evals =
        r.stats.F.Stats.gate_evaluations - r_half.stats.F.Stats.gate_evaluations
      in
      let words_per_eval =
        if d_evals <= 0 then 0.0
        else (mf1 -. mf0 -. (mh1 -. mh0)) /. float_of_int d_evals
      in
      let name = cname ^ "." ^ F.engine_to_string engine in
      let s = r.stats in
      metric (name ^ ".time_s") t "s";
      metric (name ^ ".fault_vectors_per_sec") (pairs /. t) "1/s";
      metric (name ^ ".minor_words_per_gate_eval") words_per_eval "words";
      count (name ^ ".gate_evaluations") s.F.Stats.gate_evaluations;
      count (name ^ ".events") s.F.Stats.events;
      count (name ^ ".faults_inferred") s.F.Stats.faults_inferred;
      count (name ^ ".faults_simulated") s.F.Stats.faults_simulated;
      count (name ^ ".stem_simulations") s.F.Stats.stem_simulations;
      count (name ^ ".faults_dropped") s.F.Stats.faults_dropped;
      (r, t, words_per_eval)
    in
    let reference, t_ref, ref_wpe = measure F.Reference in
    let wide, t_wide, wide_wpe = measure F.Wide in
    let speedup = t_ref /. t_wide in
    let identical = wide.first_detection = reference.first_detection in
    metric (cname ^ ".wide.speedup_vs_reference") speedup "x";
    let table = Table.create
        [ ("engine", Table.Left); ("time", Table.Right);
          ("Mfault-vec/s", Table.Right); ("vs reference", Table.Right);
          ("words/eval", Table.Right); ("identical", Table.Right) ]
    in
    let row engine t speedup wpe identical =
      Table.add_row table
        [ F.engine_to_string engine;
          Printf.sprintf "%.3f s" t;
          Printf.sprintf "%.2f" (pairs /. t /. 1e6);
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.4f" wpe;
          (if identical then "yes" else "NO") ]
    in
    row F.Reference t_ref 1.0 ref_wpe true;
    row F.Wide t_wide speedup wide_wpe identical;
    Table.print table;
    check identical "%s/wide detection words differ from reference" cname;
    check (speedup >= min_wide_speedup)
      "%s: wide engine %.2fx over the reference, below %.1fx" cname speedup
      min_wide_speedup;
    check (wide_wpe <= 0.05)
      "%s: wide hot loop allocates %.4f minor words per gate evaluation \
       (gate: 0.05)"
      cname wide_wpe
  in
  List.iter circuit
    [ ("c880s", Dl_netlist.Benchmarks.c880s);
      ("c1355s", Dl_netlist.Benchmarks.c1355s);
      ("c1908s", Dl_netlist.Benchmarks.c1908s) ];
  gate
    "identity asserted against the reference engine on every row;\n\
     steady-state allocation ~0 words per gate evaluation; wide engine\n\
     >= %.0fx over the reference on c880s/c1355s/c1908s."
    min_wide_speedup

(* ------------------------------------------------------------ store bench *)

(* Cold-vs-warm gate for the artifact store: the same c432s pipeline twice
   through one fresh cache must (a) produce a bit-identical summary and
   fit, (b) hit every stage on the second run, and (c) be meaningfully
   faster warm. *)
let store_bench () =
  section_banner "Store" "artifact cache cold vs warm (c432s pipeline)";
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlproj_store_bench_%d" (Unix.getpid ()))
  in
  remove_tree cache_dir;
  let run () =
    let c = Dl_netlist.Benchmarks.c432s () in
    timed (fun () ->
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:256 ~cache_dir c))
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
  remove_tree cache_dir;
  metric "cold_s" cold_s "s";
  metric "warm_s" warm_s "s";
  metric "warm_speedup" speedup "x";
  metric "hit_rate" hit_rate "ratio";
  check
    (cold.Experiment.summary = warm.Experiment.summary
    && cold.Experiment.fit = warm.Experiment.fit)
    "warm summary/fit differ from cold";
  check (hit_rate >= 1.0) "warm run hit only %d of %d stages" hits total;
  check (speedup >= 3.0) "warm speedup %.2fx < 3x" speedup;
  (* Every stage of the warm run was a hit, so nothing needed the layout. *)
  check
    (not (Lazy.is_val warm.Experiment.extraction.layout))
    "the warm run synthesized the layout";
  gate
    "warm run bit-identical to cold, served entirely from cache, no layout \
     synthesized."

(* ------------------------------------------------------------ serve bench *)

(* Loopback load test for the Dl_serve daemon: N concurrent clients fire
   submissions drawn from a small set of distinct configs at one warm
   server, so identical requests coalesce in flight or hit the result
   cache and only a handful of underlying experiments ever run.  Measures
   end-to-end throughput and client-observed latency percentiles, then
   gates: every request answered with a Result, answers for the same key
   identical, and the coalescing hit-rate above one half. *)
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
          let spec = spec ((i + r) mod distinct) in
          match timed (fun () -> Dl_serve.Client.submit c spec) with
          | P.Result served, s ->
              latencies.((i * per_client) + r) <- s *. 1000.0;
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
  let (), wall_s =
    timed (fun () ->
        List.iter Thread.join
          (List.init clients (fun i -> Thread.create (client_thread i) ())))
  in
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
  count "clients" clients;
  count "requests" total;
  metric "wall_s" wall_s "s";
  metric "req_per_sec" req_per_sec "1/s";
  metric "p50_ms" p50 "ms";
  metric "p99_ms" p99 "ms";
  count "executed" stats.P.executed;
  metric "coalesce_rate" coalesce_rate "ratio";
  check (Atomic.get failures = 0)
    "%d of %d requests were not answered with a Result" (Atomic.get failures)
    total;
  check (Atomic.get mismatches = 0)
    "%d answers differed from the first for their key" (Atomic.get mismatches);
  check (coalesce_rate > 0.5) "coalesce/cache hit-rate %.2f <= 0.5"
    coalesce_rate;
  gate
    "every request answered, per-key answers identical, majority\n\
     of requests served without re-execution."

(* ------------------------------------------------------- serve-load bench *)

(* Open-loop smoke of the Load_gen platform: a seeded Poisson schedule over
   a benchmark + generated-family mix replayed against a warm loopback
   server.  Unlike the closed-loop "serve" section above, arrivals do not
   wait for responses, so rejection/expiry/tail-latency behaviour under a
   fixed offered rate is visible.  Gates: no failed exchanges, a minimum
   sustained throughput, and a bounded p99. *)
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
  count "planned" report.L.planned_n;
  count "sent" report.L.sent;
  count "served" report.L.served;
  count "coalesced" report.L.coalesced;
  count "rejected" report.L.rejected;
  count "expired" report.L.expired;
  count "failed" report.L.failed;
  metric "elapsed_s" report.L.elapsed_s "s";
  metric "offered_rate" report.L.offered_rate "1/s";
  metric "achieved_rate" report.L.achieved_rate "1/s";
  metric "rejection_rate" report.L.rejection_rate "ratio";
  metric "rtt_ms.p50" report.L.p50_ms "ms";
  metric "rtt_ms.p99" report.L.p99_ms "ms";
  metric "rtt_ms.p999" report.L.p999_ms "ms";
  metric "rtt_ms.mean" report.L.mean_ms "ms";
  metric "rtt_ms.max" report.L.max_ms "ms";
  (* Smoke gates: generous (cold family experiments dominate the tail on a
     loaded CI box) but fatal for gross regressions — a wedged queue, a
     coalescer that stopped deduplicating, or a p99 runaway. *)
  let min_throughput = 2.0 and max_p99_ms = 30_000.0 in
  check (report.L.failed = 0) "%d of %d exchanges failed outright"
    report.L.failed report.L.sent;
  check (report.L.achieved_rate >= min_throughput)
    "sustained throughput %.1f served/s < %.1f" report.L.achieved_rate
    min_throughput;
  check (report.L.p99_ms <= max_p99_ms) "p99 %.1f ms > %.0f ms" report.L.p99_ms
    max_p99_ms;
  gate "no failed exchanges, >= %.0f served/s sustained, p99 <= %.0f ms"
    min_throughput max_p99_ms

(* ---------------------------------------------------------- cluster bench *)

(* Loopback fleet gate: the same batch shape run against one worker alone
   and against a 1-coordinator/4-worker TCP fleet.  Gates: every request
   answered, cross-worker resubmissions bit-identical, the distributed
   store serves resubmissions without recomputing (fetch-through hit-rate
   >= 0.9), and aggregate throughput — >= 3x on a >= 4-core host, a
   reduced no-regression bound on smaller hosts (an in-process fleet
   cannot out-run its core count). *)
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
    let (), wall =
      timed (fun () ->
          List.iter Thread.join
            (List.init clients (fun _ -> Thread.create worker ())))
    in
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
  count "workers" fleet_size;
  count "jobs" n_jobs;
  count "cores" cores;
  metric "t_single_s" t_base "s";
  metric "t_fleet_s" t_fleet "s";
  metric "speedup" speedup "x";
  metric "fetch_hit_rate" hit_rate "ratio";
  check (Atomic.get failures = 0) "%d requests were not answered with a Result"
    (Atomic.get failures);
  check (!mismatches = 0) "%d cross-worker answers differed from the fleet's"
    !mismatches;
  check (hit_rate >= 0.9) "fetch-through hit-rate %.2f < 0.9" hit_rate;
  let min_speedup = if cores >= 4 then 3.0 else 0.35 in
  check (speedup >= min_speedup) "fleet speedup %.2fx < %.2fx (on %d cores)"
    speedup min_speedup cores;
  if cores >= 4 then
    gate
      "all answered, cross-worker answers bit-identical, fetch-through \
       hit-rate >= 0.9, fleet >= 3x one worker."
  else
    gate
      "all answered, cross-worker answers bit-identical, fetch-through \
       hit-rate >= 0.9; %d-core host, so the 3x fleet gate is reduced to a \
       %.2fx no-regression bound."
      cores min_speedup

(* ------------------------------------------------------------------ swift *)

(* The compiled switch-level engine on the inputs of a default cold
   pipeline, on one domain and on a pool of [Parallel.default_domains ()],
   against the retained reference: detections and region solves must equal
   the reference's, and the two engine runs' memo counters must be equal.  Every wall time is printed, with the region shapes,
   how solves were answered (full key, ext-only key, or computed), the
   relaxation rounds of the computed solves, and how often each solver cap
   stopped a computation unsettled: the 8-pass feedback loop of a region
   evaluation, and the round cap of a solve.  Not in the default set: the
   reference takes about a minute on c432s and five on c880s. *)
let swift_bench () =
  section_banner "Swift" "switch-level engine: 1 domain, pooled, Swift.Reference";
  let domains = Dl_util.Parallel.default_domains () in
  let t =
    Table.create
      [ ("circuit", Table.Left); ("faults", Table.Right); ("vectors", Table.Right);
        ("region solves", Table.Right); ("shapes", Table.Right);
        ("full-key hits", Table.Right); ("ext-only hits", Table.Right);
        ("misses", Table.Right); ("rounds", Table.Right);
        ("feedback caps", Table.Right); ("round caps", Table.Right);
        ("pipeline s", Table.Right);
        ("reference s", Table.Right); ("1-domain s", Table.Right);
        (Printf.sprintf "%d-domain s" domains, Table.Right); ("speed-up", Table.Right) ]
  in
  List.iter
    (fun name ->
      let circuit = Option.get (Dl_netlist.Benchmarks.by_name name) in
      let e, pipeline_s = timed (fun () -> Experiment.run (Experiment.config circuit)) in
      let net = Dl_switch.Network.build (Dl_cell.Mapping.flatten e.mapped_circuit) in
      let faults = e.extraction.faults and vectors = e.vectors in
      let engine domains =
        let memo = Dl_switch.Swift.memo_stats () in
        let r, s =
          timed (fun () ->
              Dl_switch.Swift.run ~memo_stats:memo ~domains net ~faults ~vectors)
        in
        (r, memo, s)
      in
      let serial, memo, serial_s = engine 1 in
      let pooled, pooled_memo, pooled_s = engine domains in
      check
        (pooled.detection = serial.detection
        && pooled.region_solves = serial.region_solves
        && pooled_memo = memo)
        "%s: the %d-domain run differs from the 1-domain run" name domains;
      let slow, slow_s =
        timed (fun () -> Dl_switch.Swift.Reference.run net ~faults ~vectors)
      in
      check
        (serial.detection = slow.detection && serial.region_solves = slow.region_solves)
        "%s: compiled engine differs from Swift.Reference" name;
      Table.add_row t
        [ name; string_of_int (Array.length faults);
          string_of_int (Array.length vectors); string_of_int serial.region_solves;
          string_of_int memo.shapes; string_of_int memo.full_hits;
          string_of_int memo.ext_only_hits; string_of_int memo.misses;
          string_of_int memo.rounds; string_of_int memo.feedback_capped;
          string_of_int memo.rounds_capped; Printf.sprintf "%.2f" pipeline_s;
          Printf.sprintf "%.2f" slow_s; Printf.sprintf "%.2f" serial_s;
          Printf.sprintf "%.2f" pooled_s; Printf.sprintf "%.1fx" (slow_s /. pooled_s) ])
    [ "c432s_small"; "c432s"; "c880s" ];
  Table.print t;
  if !section_ok then
    print_endline
      "identical detections and region solves on every circuit, and identical \
       memo counters on every pool size."

(* ------------------------------------------------------------------- atpg *)

(* The compiled PODEM engine against the retained reference on the faults a
   flow hands it: every collapsed fault of c432s, and the faults left after
   the random phase on c499s (64 vectors, as in the gate-level benchmark)
   and c880s (the pipeline default).  Outcomes and vectors must be
   identical; both wall times are printed.  Not in the
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
      check (fast = slow) "%s: compiled PODEM differs from Podem.Reference" name;
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
  if !section_ok then print_endline "identical outcomes and vectors on every circuit."

(* ------------------------------------------------------------- projection *)

(* The projection tail of a default pipeline on c17, c432s_small and c880s:
   the T(k) and Θ(k) curves ([Coverage.make], unit and weighted) and the
   eq. 9 fit ([Projection.fit_theta] over the pipeline's 100 log-spaced
   samples), each against its retained reference.  Prints the time per
   call and the minor and direct-major words one call allocates, and fails
   on any bit difference: [at] at every k, [detections_in_order], [final],
   and the fitted (R, θmax, rmse). *)
let projection_bench () =
  section_banner "Projection" "coverage curves and eq. 9 fit vs their references";
  let module C = Dl_fault.Coverage in
  let t =
    Table.create
      [ ("circuit", Table.Left); ("job", Table.Left); ("reference us", Table.Right);
        ("fast us", Table.Right); ("speed-up", Table.Right);
        ("reference minor/major words", Table.Right);
        ("fast minor/major words", Table.Right) ]
  in
  (* Wall time per call over [reps] calls after a warm-up call, and the
     words one call allocates on the minor heap and directly on the major
     heap, averaged over the same calls. *)
  let measure ~reps f =
    ignore (Sys.opaque_identity (f ()));
    (* [Gc.minor_words], not [Gc.counters]: the latter's minor count is
       inexact on OCaml 5.1. *)
    let (minor, major), s =
      timed (fun () ->
          let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done;
          let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
          (minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0)))
    in
    let per_call w = w /. float_of_int reps in
    (per_call (s *. 1e6), Printf.sprintf "%.0f/%.0f" (per_call minor) (per_call major))
  in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  List.iter
    (fun name ->
      let e =
        Experiment.run (Experiment.config (Option.get (Dl_netlist.Benchmarks.by_name name)))
      in
      let t_firsts =
        (Dl_fault.Fault_sim.run e.mapped_circuit ~faults:e.stuck_faults ~vectors:e.vectors)
          .first_detection
      in
      let voltage =
        Array.map (fun (d : Dl_switch.Swift.detection) -> d.voltage) e.swift_result.detection
      in
      let n = Array.length e.vectors in
      let row job ~reps slow fast =
        let slow_us, slow_words = measure ~reps slow in
        let fast_us, fast_words = measure ~reps fast in
        Table.add_row t
          [ name; job; Printf.sprintf "%.1f" slow_us; Printf.sprintf "%.1f" fast_us;
            Printf.sprintf "%.1fx" (slow_us /. fast_us); slow_words; fast_words ]
      in
      let curve job ?weights firsts =
        let fast = C.make ?weights firsts and slow = C.Reference.make ?weights firsts in
        for k = 0 to n + 1 do
          check (same (C.at fast k) (C.Reference.at slow k))
            "%s %s: at %d differs from the reference" name job k
        done;
        let fd = C.detections_in_order fast and sd = C.Reference.detections_in_order slow in
        check
          (Array.length fd = Array.length sd
          && Array.for_all2 (fun (k, v) (k', v') -> k = k' && same v v') fd sd
          && same (C.final fast) (C.Reference.final slow))
          "%s %s: detections_in_order or final differs from the reference" name job;
        row job ~reps:200
          (fun () -> ignore (C.Reference.make ?weights firsts))
          (fun () -> ignore (C.make ?weights firsts));
        fast
      in
      let t_curve = curve "make T" t_firsts in
      let theta_curve = curve "make Θ" ~weights:e.scaled_weights voltage in
      let points =
        Array.map
          (fun k -> (C.at t_curve k, C.at theta_curve k))
          (Experiment.sample_ks e ~points:100)
      in
      let fast = Projection.fit_theta points and slow = Projection.Reference.fit_theta points in
      check
        (same fast.params.r slow.params.r
        && same fast.params.theta_max slow.params.theta_max
        && same fast.rmse slow.rmse)
        "%s: fit_theta differs from the reference" name;
      row "fit_theta" ~reps:10
        (fun () -> ignore (Projection.Reference.fit_theta points))
        (fun () -> ignore (Projection.fit_theta points)))
    [ "c17"; "c432s_small"; "c880s" ];
  Table.print t;
  if !section_ok then print_endline "identical curves and fits on every circuit."

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
  let bridge_instances, bridge_modifications =
    let a = mapping.Dl_cell.Mapping.signal_node.(small.Dl_netlist.Circuit.outputs.(0)) in
    let b = mapping.Dl_cell.Mapping.signal_node.(small.Dl_netlist.Circuit.outputs.(1)) in
    ( List.filter_map (fun g -> Dl_switch.Network.owner_instance network g) [ a; b ],
      [ Dl_switch.Solver.Bridge_nodes { node_a = a; node_b = b } ] )
  in
  let bridge_region =
    Dl_switch.Solver.make network ~instances:bridge_instances
      ~modifications:bridge_modifications
  in
  let bridge_compiled =
    Dl_switch.Solver.lower (Dl_switch.Solver.lowering network) ~instances:bridge_instances
      ~modifications:bridge_modifications
  in
  let bridge_shape = Dl_switch.Solver.shape bridge_compiled in
  let bridge_scratch = Dl_switch.Solver.scratch () in
  let bridge_ext =
    Array.map (fun _ -> Dl_logic.Ternary.V1) (Dl_switch.Solver.external_nodes bridge_compiled)
  in
  let bridge_charge =
    Array.map (fun _ -> Dl_logic.Ternary.VX) (Dl_switch.Solver.solved_nodes bridge_compiled)
  in
  let bridge_out = Array.copy bridge_charge in
  let kernel = Dl_netlist.Kernel.of_circuit c432 in
  let kernel_buf = Dl_netlist.Kernel.create_words4 kernel in
  (* own generator, so the rows above keep their inputs *)
  let vectors256 =
    let rng = Dl_util.Rng.create 256 in
    Array.init 256 (fun _ ->
        Array.init (Dl_netlist.Circuit.input_count c432) (fun _ -> Dl_util.Rng.bool rng))
  in
  let tests =
    [
      Test.make ~name:"sim2 reference: c432s, 64 patterns"
        (Staged.stage (fun () -> ignore (Dl_logic.Sim2.run c432 words)));
      Test.make ~name:"sim2 kernel: c432s, 256 patterns"
        (Staged.stage (fun () ->
             Dl_logic.Sim2.load_patterns4 kernel kernel_buf vectors256 ~base:0 ~count:256;
             Dl_logic.Sim2.run_flat4 kernel kernel_buf));
      Test.make ~name:"ppsfp wide: c432s block, all faults"
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
               (Dl_switch.Solver.solve_compiled bridge_shape bridge_scratch
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
   (c) the bootstrap CIs contain their own full-data point estimates. *)
let mc_bench () =
  section_banner "MC" "wafer Monte-Carlo + bootstrap gates (c432s)";
  let c = Dl_netlist.Benchmarks.c432s () in
  let mc = Experiment.mc ~dies:20_000 () in
  Printf.printf "[pipeline with --mc-dies 20000 --bootstrap 100...]\n%!";
  let e, pipeline_s =
    timed (fun () ->
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:256 ~mc ~bootstrap:100 c))
  in
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
  let standalone, mc_s =
    timed (fun () ->
        Wafer_mc.simulate
          ~seeds:(Dl_util.Seeds.scope (Dl_util.Seeds.create 7) "bench-mc")
          ~dies ~weights:e.Experiment.scaled_weights ~firsts ~points ())
  in
  let dies_per_s = float_of_int dies /. mc_s in
  Printf.printf
    "pipeline %.2f s; standalone MC: %d dies x %d points in %.3f s = %.0f \
     dies/s (observed yield %.4f)\n"
    pipeline_s dies (Array.length points) mc_s dies_per_s
    (Wafer_mc.observed_yield standalone);
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
  count "dies" dies;
  metric "mc_s" mc_s "s";
  metric "dies_per_s" dies_per_s "1/s";
  metric "pipeline_s" pipeline_s "s";
  count "bands" (Array.length m.Wafer_mc.bands);
  flag "band_contains_point" (bad_band = None);
  flag "bootstrap_ci_contains_point" ci_ok;
  let min_dies_per_s = 20_000.0 in
  check (dies_per_s >= min_dies_per_s) "%.0f dies/s below the %.0f dies/s floor"
    dies_per_s min_dies_per_s;
  Option.iter
    (fun (band : Wafer_mc.band) ->
      check false "band at k=%d does not contain the closed-form point estimate"
        band.k)
    bad_band;
  check ci_ok "bootstrap CI does not contain its own point estimate";
  gate
    "MC throughput above floor; bands bracket the closed form; bootstrap CIs \
     bracket their point estimates."

(* ------------------------------------------------------------ ndet bench *)

(* n-detection gates on the real c880s pipeline: (a) engine overhead — the
   chunked multi-detect driver at quota 4 must cost at most 2.5x the
   dropping 1-detection engine on the same universe and vector sequence
   (best of 3 runs each), and (b) the full-pipeline DL(n) table must be
   monotone non-increasing in n at the shared coverage target. *)
let ndet_bench () =
  section_banner "NDET" "multi-detect overhead + DL(n) monotonicity (c880s)";
  let c = Dl_netlist.Benchmarks.c880s () in
  Printf.printf "[pipeline with --ndet 8...]\n%!";
  let e, pipeline_s =
    timed (fun () ->
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:256 ~ndet:8 c))
  in
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
  let per_run f =
    let (), s =
      best_of 3 (fun () ->
          for _ = 1 to repeats do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    s /. float_of_int repeats
  in
  let single =
    Dl_fault.Fault_sim.run_with ~engine ~drop_detected:true mapped ~faults
      ~vectors
  in
  let ndet4 =
    Dl_fault.Fault_sim.run_ndet ~engine ~drop_after:4 mapped ~faults ~vectors
  in
  let t_single =
    per_run (fun () ->
        Dl_fault.Fault_sim.run_with ~engine ~drop_detected:true mapped ~faults
          ~vectors)
  in
  let t_ndet4 =
    per_run (fun () ->
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
  metric "pipeline_s" pipeline_s "s";
  metric "t_single_s" t_single "s";
  metric "t_ndet4_s" t_ndet4 "s";
  metric "overhead" overhead "x";
  metric "wall_ratio" wall_ratio "x";
  count "single_evals" single.Dl_fault.Fault_sim.gate_evaluations;
  count "ndet4_evals" ndet4.Dl_fault.Fault_sim.gate_evaluations;
  flag "dl_monotone" !monotone;
  Array.iter
    (fun (r : Dl_n.row) ->
      metric (Printf.sprintf "n%d.dl_at_target" r.n) r.dl_at_target "ratio")
    rows;
  let max_overhead = 2.5 in
  check (overhead <= max_overhead)
    "run_ndet(4) work overhead %.2fx above the %.1fx ceiling" overhead
    max_overhead;
  check !monotone "DL(n) at the shared target is not non-increasing";
  gate "multi-detect overhead under the ceiling; DL(n) monotone non-increasing."

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
    ("projection", projection_bench);
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
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section %s (have: %s)\n"
        (String.concat " " (List.map (Printf.sprintf "%S") unknown))
        (String.concat " " (List.map fst sections));
      exit 2);
  Fun.protect
    ~finally:(fun () -> write_rows "BENCH.jsonl")
    (fun () ->
      List.iter
        (fun name ->
          current := name;
          section_ok := true;
          (List.assoc name sections) ())
        requested);
  Printf.printf "\nwrote BENCH.jsonl (%d rows)\n" (List.length !rows);
  if !failed then exit 1
