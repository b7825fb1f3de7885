(* The paper's experiment end to end, on a reduced vector budget so it runs
   in seconds: synthesize a layout for the c432-scale benchmark, extract
   weighted realistic faults, generate tests, fault-simulate at gate and
   switch level, project the defect level and fit (R, θmax).

     dune exec examples/c432_pipeline.exe [-- circuit [jobs]]

   Pass "c432s" for the full-size run (about a minute); default is the
   3-slice variant.  The optional second argument sets the worker-domain
   count for the gate-level fault simulation (default: one per recommended
   core); the results are identical at any setting.
*)

open Dl_core
module Coverage = Dl_fault.Coverage
module Table = Dl_util.Table

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "c432s_small" in
  let circuit =
    match Dl_netlist.Benchmarks.by_name name with
    | Some c -> c
    | None ->
        Printf.eprintf "unknown benchmark %S\n" name;
        exit 1
  in
  Format.printf "circuit: %a@\n" Dl_netlist.Circuit.pp_summary circuit;
  let domains =
    if Array.length Sys.argv > 2 then
      match int_of_string_opt Sys.argv.(2) with
      | Some j when j >= 1 -> j
      | _ ->
          Printf.eprintf "jobs must be a positive integer, not %S\n" Sys.argv.(2);
          exit 1
    else Dl_util.Parallel.default_domains ()
  in
  Printf.printf "fault simulation on %d domain%s\n" domains
    (if domains = 1 then "" else "s");
  let cfg = Experiment.config ~seed:7 ~max_random_vectors:1024 ~domains circuit in
  let e = Experiment.run cfg in

  (* Layout and extraction summary (fig. 3 territory).  The layout is
     built on first use: a run whose layout-ifa stage was a store hit
     synthesizes it here, from the mapped circuit. *)
  Format.printf "@\n%a@\n" Dl_layout.Layout.pp_stats (Lazy.force e.extraction.layout);
  Format.printf "%a@\n" Dl_extract.Ifa.pp_summary e.extraction;
  print_endline "fault-weight histogram (log bins):";
  print_string (Dl_util.Histogram.render ~width:40 (Dl_extract.Ifa.weight_histogram ~bins:12 e.extraction));

  (* Coverage curves (fig. 4 territory). *)
  Format.printf "@\n%a@\n@\n" Experiment.pp_summary e;
  let ks = Experiment.sample_ks e ~points:12 in
  let t = Table.create
      [ ("k", Table.Right); ("T(k)", Table.Right); ("Θ(k)", Table.Right);
        ("Γ(k)", Table.Right); ("DL(Θ(k))", Table.Right); ("WB DL(T)", Table.Right) ]
  in
  Array.iter
    (fun (k, tk, th, g) ->
      Table.add_row t
        [
          string_of_int k;
          Table.fmt_pct tk;
          Table.fmt_pct th;
          Table.fmt_pct g;
          Table.fmt_ppm (Experiment.defect_level_at e k);
          Table.fmt_ppm (Williams_brown.defect_level ~yield:e.yield ~coverage:tk);
        ])
    (Experiment.coverage_rows e ~ks);
  Table.print t;

  (* Model fit (fig. 5 territory). *)
  let fit = e.fit in
  Printf.printf
    "\nfitted eq. 11 parameters: R = %.2f, θmax = %.3f (paper's c432 fit: R = 1.9, θmax = 0.96)\n"
    fit.params.r fit.params.theta_max;
  Printf.printf "residual defect level: %s\n"
    (Table.fmt_ppm
       (Projection.residual_defect_level ~yield:e.yield ~theta_max:fit.params.theta_max));

  (* What IDDQ testing would buy (the paper's closing argument). *)
  let k_final = Array.length e.vectors in
  let theta_v = Coverage.at e.theta_curve k_final in
  let theta_i = Coverage.at e.theta_iddq_curve k_final in
  Printf.printf
    "\nvoltage-only Θ = %s -> DL floor %s\nwith IDDQ    Θ = %s -> DL floor %s\n"
    (Table.fmt_pct theta_v)
    (Table.fmt_ppm (Weighted.defect_level ~yield:e.yield ~theta:theta_v))
    (Table.fmt_pct theta_i)
    (Table.fmt_ppm (Weighted.defect_level ~yield:e.yield ~theta:theta_i))
