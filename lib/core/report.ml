module Coverage = Dl_fault.Coverage

let pct x = Printf.sprintf "%.2f %%" (100.0 *. x)
let ppm x = Printf.sprintf "%.1f ppm" (1e6 *. x)

let of_experiment ?(points = 12) (e : Experiment.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let c = e.mapped_circuit in
  let final = Array.length e.vectors in
  out "# Defect-level projection report — %s\n\n" c.title;
  out "## Circuit and test set\n\n";
  out "- %d nodes (%d inputs, %d gates, %d outputs), depth %d\n"
    (Dl_netlist.Circuit.node_count c)
    (Dl_netlist.Circuit.input_count c)
    (Dl_netlist.Circuit.gate_count c)
    (Dl_netlist.Circuit.output_count c)
    (Dl_netlist.Circuit.depth c);
  out "- %d vectors: %d random + %d deterministic (PODEM)\n"
    final e.atpg_stats.random_vectors e.atpg_stats.deterministic_vectors;
  out "- %d collapsed stuck-at faults (%d proven redundant and excluded)\n\n"
    (Array.length e.stuck_faults) e.atpg_stats.untestable;
  out "## Layout fault extraction\n\n";
  out "- %d weighted realistic faults; total weight %.4e\n"
    (Array.length e.extraction.faults)
    (Dl_extract.Ifa.total_weight e.extraction);
  out "- weights scaled by %.3e so that Y = %.2f (eq. 5)\n\n" e.scale_factor e.yield;
  List.iter
    (fun (s : Dl_extract.Ifa.class_summary) ->
      out "  - %s: %d sites, weight %.3e\n"
        (Dl_extract.Defect_stats.class_name s.cls)
        s.count s.total_weight)
    e.extraction.summaries;
  out "\n## Coverage growth\n\n";
  out "| k | T(k) | Θ(k) | Γ(k) | DL(Θ(k)) | WB DL(T(k)) |\n";
  out "|---|---|---|---|---|---|\n";
  Array.iter
    (fun (k, t, th, g) ->
      out "| %d | %s | %s | %s | %s | %s |\n" k (pct t) (pct th) (pct g)
        (ppm (Experiment.defect_level_at e k))
        (ppm (Williams_brown.defect_level ~yield:e.yield ~coverage:t)))
    (Experiment.coverage_rows e ~ks:(Experiment.sample_ks e ~points));
  let fit = e.fit in
  out "\n## Fitted model (eq. 11)\n\n";
  out "- R = %.3f, θmax = %.4f (rmse %.4f, %s, on the Θ(T) relation)\n" fit.params.r
    fit.params.theta_max fit.rmse
    (Projection.rmse_unit fit.rmse_scale);
  out "- residual defect level 1 − Y^(1−θmax) = %s\n"
    (ppm (Projection.residual_defect_level ~yield:e.yield ~theta_max:fit.params.theta_max));
  let theta_v = Coverage.at e.theta_curve final in
  let theta_i = Coverage.at e.theta_iddq_curve final in
  out "\n## Detection-technique ablation\n\n";
  out "| configuration | Θ final | DL floor |\n|---|---|---|\n";
  out "| static voltage only | %s | %s |\n" (pct theta_v)
    (ppm (Weighted.defect_level ~yield:e.yield ~theta:theta_v));
  out "| voltage + IDDQ | %s | %s |\n" (pct theta_i)
    (ppm (Weighted.defect_level ~yield:e.yield ~theta:theta_i));
  out "| unweighted Γ as Θ | %s | %s |\n"
    (pct (Coverage.at e.gamma_curve final))
    (ppm (Weighted.defect_level ~yield:e.yield ~theta:(Coverage.at e.gamma_curve final)));
  Option.iter
    (fun (m : Wafer_mc.t) ->
      let alpha_str a = if Float.is_finite a then Printf.sprintf "%g" a else "∞" in
      out "\n## Monte-Carlo DL bands (wafer-mc)\n\n";
      out
        "- %d dies (%d wafers × %d dies, %d lots), α_wafer = %s, α_lot = %s; \
         observed yield %s\n\n"
        m.dies m.wafers m.dies_per_wafer m.lots (alpha_str m.alpha_wafer)
        (alpha_str m.alpha_lot)
        (pct (Wafer_mc.observed_yield m));
      out "| k | Θ(k) | DL point | DL 5%% | DL 50%% | DL 95%% |\n";
      out "|---|---|---|---|---|---|\n";
      Array.iter
        (fun (b : Wafer_mc.band) ->
          out "| %d | %s | %s | %s | %s | %s |\n" b.k (pct b.coverage)
            (ppm b.dl_point) (ppm b.dl_q05) (ppm b.dl_q50) (ppm b.dl_q95))
        m.bands)
    e.wafer_mc;
  Option.iter
    (fun (b : Bootstrap.t) ->
      out "\n## Bootstrap confidence intervals (%d replicates)\n\n"
        b.replicates;
      out "| parameter | point | 5%% | 50%% | 95%% |\n|---|---|---|---|---|\n";
      out "| R | %.3f | %.3f | %.3f | %.3f |\n" b.point.Projection.params.r
        b.r.Bootstrap.lo b.r.median b.r.hi;
      out "| θmax | %.4f | %.4f | %.4f | %.4f |\n"
        b.point.Projection.params.theta_max b.theta_max.Bootstrap.lo
        b.theta_max.median b.theta_max.hi;
      out "| α (clustering) | %.3g | %.3g | %.3g | %.3g |\n" b.alpha_point
        b.alpha.Bootstrap.lo b.alpha.median b.alpha.hi)
    e.bootstrap_fit;
  Buffer.contents buf

let write_file ?points path e =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (of_experiment ?points e))
