(* The conclusion's inverse use of the model: "the proposed model can be
   used, together with DL(T) experimental curves, to tune assumed defect
   statistics in a process line."

   We play process engineer: a fab's observed fallout curve (synthesized
   here from a run with *modified* defect statistics, standing in for real
   fallout data) disagrees with the DL(T) projection made from the assumed
   statistics.  Fitting (R, θmax) to both curves exposes the direction of
   the discrepancy, and rescaling the assumed short/open balance recovers
   the observed behaviour.

     dune exec examples/defect_tuning.exe
*)

open Dl_core
module Defect_stats = Dl_extract.Defect_stats
module Geom = Dl_layout.Geom
module Table = Dl_util.Table

let circuit = Dl_netlist.Benchmarks.c432s_small ()

let run stats =
  Experiment.run (Experiment.config ~seed:7 ~max_random_vectors:512 ~stats circuit)

let describe label e =
  let fit = e.Experiment.fit in
  let k = Array.length e.Experiment.vectors in
  Printf.printf "%-22s R = %.2f  θmax = %.3f  final DL = %s\n" label fit.params.r
    fit.params.theta_max
    (Table.fmt_ppm (Experiment.defect_level_at e k));
  fit

let () =
  (* The fab's line actually has 4x the assumed metal-open density (say, a
     via-contamination excursion). *)
  let assumed = Defect_stats.default in
  let actual =
    Defect_stats.scale_class
      (Defect_stats.scale_class assumed (Defect_stats.Open_on Geom.Metal1) 4.0)
      (Defect_stats.Open_on Geom.Metal2) 4.0
  in
  print_endline "== Step 1: projection vs 'measured' fallout ==";
  let projected = run assumed in
  let measured = run actual in
  let fit_assumed = describe "assumed statistics:" projected in
  let fit_actual = describe "measured fallout:" measured in

  print_endline "\n== Step 2: diagnose the discrepancy ==";
  if fit_actual.params.r < fit_assumed.params.r then
    print_endline
      "Measured R is lower than projected: yield loss is less bridging-\n\
       dominated than assumed — the open-defect density must be higher\n\
       than the assumed statistics say.";

  print_endline "\n== Step 3: tune the assumed statistics ==";
  let t = Table.create
      [ ("open-density scale", Table.Right); ("R", Table.Right);
        ("θmax", Table.Right); ("|ΔR| vs measured", Table.Right) ]
  in
  let best = ref (1.0, infinity) in
  List.iter
    (fun scale ->
      let stats =
        Defect_stats.scale_class
          (Defect_stats.scale_class assumed (Defect_stats.Open_on Geom.Metal1) scale)
          (Defect_stats.Open_on Geom.Metal2) scale
      in
      let fit = (run stats).Experiment.fit in
      let err = Float.abs (fit.params.r -. fit_actual.params.r) in
      if err < snd !best then best := (scale, err);
      Table.add_row t
        [
          Printf.sprintf "%.1fx" scale;
          Printf.sprintf "%.3f" fit.params.r;
          Printf.sprintf "%.3f" fit.params.theta_max;
          Printf.sprintf "%.3f" err;
        ])
    [ 1.0; 2.0; 4.0; 8.0 ];
  Table.print t;
  Printf.printf
    "\nBest-matching open-density scale: %.1fx (ground truth in this scenario: 4.0x)\n"
    (fst !best)
