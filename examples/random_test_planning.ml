(* Random-test planning from first principles.

   Eq. 7's susceptibility s_T summarizes a whole circuit in one number.
   Underneath it sit per-fault detection probabilities (the paper's
   refs [18-20]); this example walks the chain:

     Monte-Carlo per-fault p_i  ->  expected T(k)  ->  fitted s_T
     -> test length for a coverage target -> defect level at that length

     dune exec examples/random_test_planning.exe
*)

module Circuit = Dl_netlist.Circuit
module Detectability = Dl_fault.Detectability
module Table = Dl_util.Table
open Dl_core

let () =
  let c = Dl_netlist.Benchmarks.c432s () in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  Printf.printf "circuit %s: %d collapsed stuck-at faults\n\n" c.Circuit.title
    (Array.length faults);

  (* 1. Per-fault detection probabilities, estimated by Monte-Carlo. *)
  let empirical = Detectability.estimate ~seed:11 ~samples:1500 c ~faults in
  Printf.printf "mean detection probability: Monte-Carlo %.4f\n"
    (Detectability.mean_detectability empirical);
  print_endline "hardest faults (Monte-Carlo):";
  List.iter
    (fun (i, p) ->
      Printf.printf "  %-18s p = %.5f\n"
        (Dl_fault.Stuck_at.to_string c faults.(i))
        p)
    (Detectability.hardest empirical 5);
  print_newline ();

  (* 2. The induced coverage curve and its eq. 7 summary. *)
  let ks = Dl_fault.Coverage.log_spaced ~max:100_000 ~points:24 in
  let samples =
    Array.map
      (fun k -> (float_of_int k, Detectability.expected_coverage empirical k))
      ks
  in
  let fit = Susceptibility.fit_curve samples in
  Printf.printf
    "fitted eq. 7 parameters from the detection-probability curve:\n\
    \  s_T = %.1f (ln s_T = %.2f), saturation %.4f\n\n"
    fit.s (log fit.s) fit.theta_max;

  (* 3. Test length planning. *)
  let t = Table.create
      [ ("target T", Table.Right); ("k (per-fault model)", Table.Right);
        ("k (eq. 7 fit)", Table.Right) ]
  in
  List.iter
    (fun target ->
      let exact =
        match Detectability.test_length_for empirical ~target with
        | Some k -> string_of_int k
        | None -> "unreachable"
      in
      let via_fit =
        if target >= fit.theta_max then "unreachable"
        else
          Printf.sprintf "%.0f"
            (Susceptibility.test_length ~s:fit.s ~target:(target /. fit.theta_max))
      in
      Table.add_row t [ Table.fmt_pct target; exact; via_fit ])
    [ 0.8; 0.9; 0.95; 0.98 ];
  Table.print t;
  print_newline ();

  (* 4. Defect level as a function of random-test length (ref [15]'s
     question), through eq. 3 with Θ(k) ≈ θmax-scaled coverage. *)
  let t2 = Table.create [ ("k", Table.Right); ("T(k)", Table.Right); ("DL bound (WB)", Table.Right) ] in
  List.iter
    (fun k ->
      let cov = Detectability.expected_coverage empirical k in
      Table.add_row t2
        [ string_of_int k; Table.fmt_pct cov;
          Table.fmt_ppm (Williams_brown.defect_level ~yield:0.75 ~coverage:cov) ])
    [ 10; 100; 1000; 10_000 ];
  Table.print t2
