(* Tests for the extension layers: clustered-yield DL,
   detection-probability theory, transition/delay faults, static timing,
   SVG export and the extra arithmetic generators. *)

open Dl_netlist

let rng = Dl_util.Rng.create 707
let checkf_eps eps = Alcotest.(check (float eps))

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

(* --- Clustered defect level ------------------------------------------------- *)

let test_clustered_poisson_limit () =
  List.iter
    (fun t ->
      let wb = Dl_core.Williams_brown.defect_level ~yield:0.75 ~coverage:t in
      let cl = Dl_core.Clustered.defect_level ~yield:0.75 ~alpha:1e7 ~coverage:t in
      checkf_eps 1e-5 "alpha -> inf is WB" wb cl)
    [ 0.0; 0.3; 0.7; 0.95; 1.0 ]

let test_clustered_endpoints () =
  checkf_eps 1e-12 "DL(0) = 1 - Y" 0.25
    (Dl_core.Clustered.defect_level ~yield:0.75 ~alpha:0.5 ~coverage:0.0);
  checkf_eps 1e-12 "DL(1) = 0" 0.0
    (Dl_core.Clustered.defect_level ~yield:0.75 ~alpha:0.5 ~coverage:1.0)

let test_clustered_lower_dl () =
  (* clustering concentrates faults on few dies: partial tests catch them *)
  let wb = Dl_core.Williams_brown.defect_level ~yield:0.75 ~coverage:0.9 in
  let cl = Dl_core.Clustered.defect_level ~yield:0.75 ~alpha:0.5 ~coverage:0.9 in
  Alcotest.(check bool) "clustered below WB" true (cl < wb)

let test_clustered_mean_faults () =
  (* the NB zero-class must reproduce the yield *)
  List.iter
    (fun alpha ->
      let m = Dl_core.Clustered.mean_faults ~yield:0.6 ~alpha in
      let y = (1.0 +. (m /. alpha)) ** -.alpha in
      checkf_eps 1e-9 "yield roundtrip" 0.6 y)
    [ 0.2; 1.0; 5.0; 100.0 ]

let test_clustered_required_coverage () =
  let alpha = 1.5 and yield_ = 0.8 in
  List.iter
    (fun t ->
      let dl = Dl_core.Clustered.defect_level ~yield:yield_ ~alpha ~coverage:t in
      checkf_eps 1e-9 "inverse" t
        (Dl_core.Clustered.required_coverage ~yield:yield_ ~alpha ~target_dl:dl))
    [ 0.2; 0.6; 0.9 ]

let test_clustered_fit () =
  let alpha_true = 2.0 and yield_ = 0.7 in
  let pts =
    List.map
      (fun t -> (t, Dl_core.Clustered.defect_level ~yield:yield_ ~alpha:alpha_true ~coverage:t))
      [ 0.1; 0.3; 0.5; 0.7; 0.85; 0.95 ]
  in
  let alpha_fit, rmse = Dl_core.Clustered.fit_alpha ~yield:yield_ pts in
  checkf_eps 1e-3 "alpha recovered" alpha_true alpha_fit;
  Alcotest.(check bool) "tight" true (rmse < 1e-6)

(* --- Detection probabilities ------------------------------------------------------ *)

let test_detectability_analytic_curve () =
  let d = Dl_fault.Detectability.of_probabilities [| 0.5; 0.5 |] in
  checkf_eps 1e-12 "k=1" 0.5 (Dl_fault.Detectability.expected_coverage d 1);
  checkf_eps 1e-12 "k=2" 0.75 (Dl_fault.Detectability.expected_coverage d 2);
  checkf_eps 1e-12 "k=0" 0.0 (Dl_fault.Detectability.expected_coverage d 0)

let test_detectability_estimate_matches_measured () =
  let c = Benchmarks.c17 () in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let d = Dl_fault.Detectability.estimate ~seed:3 ~samples:2000 c ~faults in
  (* c17: every collapsed fault has detection probability >= 1/4ish *)
  Array.iter
    (fun p -> Alcotest.(check bool) "all detectable" true (p > 0.05))
    (Dl_fault.Detectability.probabilities d);
  (* the predicted curve should match an independent measured curve *)
  let vectors = random_vectors c 64 in
  let sim = Dl_fault.Fault_sim.run ~drop_detected:false c ~faults ~vectors in
  let measured = Dl_fault.Coverage.make sim.first_detection in
  List.iter
    (fun k ->
      let predicted = Dl_fault.Detectability.expected_coverage d k in
      let got = Dl_fault.Coverage.at measured k in
      Alcotest.(check bool)
        (Printf.sprintf "close at k=%d" k)
        true
        (Float.abs (predicted -. got) < 0.15))
    [ 1; 2; 4; 8; 16 ]

let test_detectability_test_length () =
  let d = Dl_fault.Detectability.of_probabilities [| 0.5 |] in
  (* 1 - 0.5^k >= 0.99 at k = 7 *)
  Alcotest.(check bool) "k for 99%" true
    (Dl_fault.Detectability.test_length_for d ~target:0.99 = Some 7);
  let undetectable = Dl_fault.Detectability.of_probabilities [| 0.5; 0.0 |] in
  Alcotest.(check bool) "ceiling respected" true
    (Dl_fault.Detectability.test_length_for undetectable ~target:0.9 = None)

let test_detectability_hardest () =
  let d = Dl_fault.Detectability.of_probabilities [| 0.9; 0.01; 0.5 |] in
  match Dl_fault.Detectability.hardest d 2 with
  | [ (1, _); (2, _) ] -> ()
  | other ->
      Alcotest.failf "unexpected hardest order (%d entries)" (List.length other)

(* --- New generators -------------------------------------------------------------------------------- *)

let test_cla_equals_ripple () =
  let cla = Generator.carry_lookahead_adder 6 in
  let rip = Generator.ripple_adder 6 in
  for _ = 1 to 300 do
    let bits = Array.init 13 (fun _ -> Dl_util.Rng.bool rng) in
    let vec c =
      Array.map
        (fun i ->
          let nm = Circuit.name c i in
          if nm = "cin" then bits.(12)
          else begin
            let idx = int_of_string (String.sub nm 1 (String.length nm - 1)) in
            if nm.[0] = 'a' then bits.(idx) else bits.(6 + idx)
          end)
        c.Circuit.inputs
    in
    let out c =
      Array.to_list (Dl_logic.Sim2.output_bits c (vec c))
      |> List.mapi (fun i v -> (Circuit.name c c.Circuit.outputs.(i), v))
      |> List.sort compare
    in
    if out cla <> out rip then Alcotest.fail "CLA disagrees with ripple adder"
  done

let test_multiplier_exhaustive () =
  let mul = Generator.array_multiplier 3 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let v =
        Array.map
          (fun i ->
            let nm = Circuit.name mul i in
            let idx = int_of_string (String.sub nm 1 1) in
            if nm.[0] = 'a' then a lsr idx land 1 = 1 else b lsr idx land 1 = 1)
          mul.Circuit.inputs
      in
      let o = Dl_logic.Sim2.output_bits mul v in
      let got =
        Array.to_list o
        |> List.mapi (fun i bit ->
               let nm = Circuit.name mul mul.Circuit.outputs.(i) in
               let k = int_of_string (String.sub nm 1 (String.length nm - 1)) in
               if bit then 1 lsl k else 0)
        |> List.fold_left ( + ) 0
      in
      if got <> a * b then Alcotest.failf "%d*%d: got %d" a b got
    done
  done

let test_multiplier_testable () =
  let c = Generator.array_multiplier 4 in
  let r, faults = Dl_atpg.Atpg.full_flow ~seed:3 ~max_random:1024 c in
  ignore faults;
  Alcotest.(check bool) "near-complete coverage" true (r.coverage > 0.99)


(* --- Dot throwing (Monte-Carlo critical area) ------------------------------------------------ *)

let test_dot_throw_matches_analytic () =
  (* Two long parallel m1 wires: empirical short weight vs closed form. *)
  let c = Transform.decompose_for_cells (Benchmarks.c17 ()) in
  let l = Dl_layout.Layout.synthesize (Dl_cell.Mapping.flatten c) in
  let x0 = 4.0 in
  let r = Dl_extract.Dot_throw.throw_shorts ~seed:3 ~samples:60_000
      ~layer:Dl_layout.Geom.Metal1 ~x0 l in
  Alcotest.(check bool) "some shorts found" true (r.shorts <> []);
  (* compare total to the analytic extraction restricted to metal1 shorts *)
  let density = 1e-9 in
  let empirical = Dl_extract.Dot_throw.total_short_weight r ~density in
  let stats =
    Dl_extract.Defect_stats.make
      [ (Dl_extract.Defect_stats.Short_on Dl_layout.Geom.Metal1, { density; x0 }) ]
  in
  let e = Dl_extract.Ifa.extract ~stats l in
  let analytic = Dl_extract.Ifa.total_weight e +. e.Dl_extract.Ifa.gross_weight in
  Alcotest.(check bool)
    (Printf.sprintf "within 2.5x (emp %.3e vs ana %.3e)" empirical analytic)
    true
    (empirical /. analytic > 0.4 && empirical /. analytic < 2.5)

let test_dot_throw_determinism () =
  let c = Transform.decompose_for_cells (Benchmarks.c17 ()) in
  let l = Dl_layout.Layout.synthesize (Dl_cell.Mapping.flatten c) in
  let run () =
    Dl_extract.Dot_throw.throw_shorts ~seed:9 ~samples:5_000
      ~layer:Dl_layout.Geom.Metal1 ~x0:4.0 l
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "repeatable" true (a.shorts = b.shorts && a.opens = b.opens)

(* --- Verilog ------------------------------------------------------------------------------------- *)

let test_verilog_roundtrip () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let c2 = Verilog.parse_string (Verilog.to_string c) in
      Alcotest.(check int) (name ^ " inputs") (Circuit.input_count c)
        (Circuit.input_count c2);
      Alcotest.(check int) (name ^ " outputs") (Circuit.output_count c)
        (Circuit.output_count c2);
      for _ = 1 to 20 do
        let v = Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng) in
        Alcotest.(check (array bool)) (name ^ " behaviour")
          (Dl_logic.Sim2.output_bits c v)
          (Dl_logic.Sim2.output_bits c2 v)
      done)
    Benchmarks.all

let test_verilog_parse_handwritten () =
  let src = {|
    // a comment
    module toy (a, b, y);
      input a, b; /* block
                     comment */
      output y;
      wire w;
      nand u1 (w, a, b);
      not (y, w);   // anonymous instance
    endmodule
  |} in
  let c = Verilog.parse_string src in
  Alcotest.(check int) "nodes" 4 (Circuit.node_count c);
  (* y = not (nand a b) = and a b *)
  Alcotest.(check (array bool)) "behaviour" [| true |]
    (Dl_logic.Sim2.output_bits c [| true; true |]);
  Alcotest.(check (array bool)) "behaviour2" [| false |]
    (Dl_logic.Sim2.output_bits c [| true; false |])

let test_verilog_errors () =
  let expect src =
    Alcotest.(check bool) "parse error" true
      (try
         ignore (Verilog.parse_string src);
         false
       with Verilog.Parse_error _ -> true)
  in
  expect "module m (a); input a; flipflop f (a); endmodule";
  expect "module m (a; input a; endmodule";
  expect "module m (a); input a output y; endmodule"

let test_verilog_bench_cross_format () =
  (* .bench -> circuit -> verilog -> circuit: same behaviour *)
  let c = Benchmarks.c17 () in
  let v = Verilog.parse_string (Verilog.to_string c) in
  for _ = 1 to 32 do
    let x = Array.init 5 (fun _ -> Dl_util.Rng.bool rng) in
    Alcotest.(check (array bool)) "equal" (Dl_logic.Sim2.output_bits c x)
      (Dl_logic.Sim2.output_bits v x)
  done

(* --- Compaction -------------------------------------------------------------------------------------- *)

let test_compaction_preserves_coverage () =
  let c = Option.get (Benchmarks.by_name "c432s_small") in
  let c = Transform.decompose_for_cells c in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let vectors = random_vectors c 400 in
  let before = Dl_fault.Fault_sim.run c ~faults ~vectors in
  let compacted, stats = Dl_atpg.Compaction.compact c ~faults ~vectors in
  let after = Dl_fault.Fault_sim.run c ~faults ~vectors:compacted in
  Alcotest.(check int) "coverage preserved"
    (Dl_fault.Fault_sim.detected_count before)
    (Dl_fault.Fault_sim.detected_count after);
  Alcotest.(check bool) "meaningfully smaller" true
    (stats.compacted * 3 < stats.original);
  Alcotest.(check int) "stats consistent" stats.compacted (Array.length compacted)

let test_compaction_useful_mask_identity () =
  (* identity order: the mask marks exactly the first-detection vectors *)
  let c = Benchmarks.c17 () in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let vectors = random_vectors c 64 in
  let order = Array.init 64 Fun.id in
  let mask = Dl_atpg.Compaction.useful_mask c ~faults ~vectors ~order in
  let r = Dl_fault.Fault_sim.run c ~faults ~vectors in
  Array.iter
    (function
      | Some k -> Alcotest.(check bool) "first detector marked" true mask.(k)
      | None -> ())
    r.first_detection


(* --- Gate-level bridging faults ----------------------------------------------------------- *)

let test_bridge_gate_resolution_rules () =
  let check behaviour a b expect =
    Alcotest.(check (pair bool bool)) "resolution" expect
      (Dl_fault.Bridge_gate.resolved_values behaviour ~a ~b)
  in
  check Dl_fault.Bridge_gate.Wired_and true false (false, false);
  check Dl_fault.Bridge_gate.Wired_or true false (true, true);
  check Dl_fault.Bridge_gate.A_dominates true false (true, true);
  check Dl_fault.Bridge_gate.B_dominates true false (false, false);
  check Dl_fault.Bridge_gate.Wired_and true true (true, true)

let test_bridge_gate_detection_c17 () =
  let c = Benchmarks.c17 () in
  let f =
    { Dl_fault.Bridge_gate.net_a = Circuit.find c "n10";
      net_b = Circuit.find c "n19";
      behaviour = Dl_fault.Bridge_gate.Wired_and }
  in
  let vectors =
    Array.init 32 (fun k -> Array.init 5 (fun pi -> k lsr pi land 1 = 1))
  in
  let r = Dl_fault.Bridge_gate.run c ~faults:[| f |] ~vectors in
  Alcotest.(check bool) "detected" true (r.first_detection.(0) <> None);
  (* run vs single-vector oracle *)
  (match r.first_detection.(0) with
  | Some k ->
      Alcotest.(check bool) "oracle agrees" true
        (Dl_fault.Bridge_gate.detects c f vectors.(k));
      for j = 0 to k - 1 do
        Alcotest.(check bool) "no earlier detection" false
          (Dl_fault.Bridge_gate.detects c f vectors.(j))
      done
  | None -> ())

let test_bridge_gate_same_gate_inputs_undetectable () =
  (* wired-AND between the two inputs of a NAND is redundant (cf. the
     switch-level result) *)
  let b = Circuit.Builder.create ~title:"nand" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let f =
    { Dl_fault.Bridge_gate.net_a = Circuit.find c "a";
      net_b = Circuit.find c "b";
      behaviour = Dl_fault.Bridge_gate.Wired_and }
  in
  let vectors = Array.init 4 (fun k -> [| k land 1 = 1; k land 2 = 2 |]) in
  let r = Dl_fault.Bridge_gate.run c ~faults:[| f |] ~vectors in
  Alcotest.(check bool) "undetectable" true (r.first_detection.(0) = None)

let test_bridge_gate_cross_validates_switch_level () =
  (* For bridges between inverter outputs the strength model is exactly
     wired-AND (single NMOS pull-down beats single PMOS pull-up), so the
     two simulators must agree vector by vector. *)
  let b = Circuit.Builder.create ~title:"invpair" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "na" Gate.Not [ "a" ];
  Circuit.Builder.add_gate b "nb" Gate.Not [ "b" ];
  Circuit.Builder.add_gate b "oa" Gate.Buf [ "na" ];
  Circuit.Builder.add_gate b "ob" Gate.Buf [ "nb" ];
  Circuit.Builder.add_output b "oa";
  Circuit.Builder.add_output b "ob";
  let c = Circuit.Builder.finalize b in
  let m = Dl_cell.Mapping.flatten c in
  let net = Dl_switch.Network.build m in
  let na = Circuit.find c "na" and nb = Circuit.find c "nb" in
  let vectors = Array.init 4 (fun k -> [| k land 1 = 1; k land 2 = 2 |]) in
  let gate_fault =
    { Dl_fault.Bridge_gate.net_a = na; net_b = nb;
      behaviour = Dl_fault.Bridge_gate.Wired_and }
  in
  let g = Dl_fault.Bridge_gate.run c ~faults:[| gate_fault |] ~vectors in
  let sw_fault =
    { Dl_switch.Realistic.kind =
        Dl_switch.Realistic.Bridge
          { node_a = m.Dl_cell.Mapping.signal_node.(na);
            node_b = m.Dl_cell.Mapping.signal_node.(nb) };
      weight = 1.0; label = "na/nb" }
  in
  let sw = Dl_switch.Swift.run net ~faults:[| sw_fault |] ~vectors in
  Alcotest.(check bool) "first detections agree" true
    (g.first_detection.(0) = sw.detection.(0).voltage)

let test_bridge_gate_candidate_pairs () =
  let c = Option.get (Benchmarks.by_name "c432s") in
  let pairs = Dl_fault.Bridge_gate.candidate_pairs ~seed:2 ~count:50 c in
  Alcotest.(check int) "requested count" 50 (Array.length pairs);
  let seen = Hashtbl.create 50 in
  Array.iter
    (fun (a, b) ->
      Alcotest.(check bool) "ordered distinct" true (a < b);
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen (a, b));
      Hashtbl.replace seen (a, b) ())
    pairs


(* --- Report ------------------------------------------------------------------------------- *)

let test_report_contents () =
  let c = Benchmarks.c17 () in
  let e = Dl_core.Experiment.run (Dl_core.Experiment.config ~seed:3 ~max_random_vectors:128 c) in
  let md = Dl_core.Report.of_experiment e in
  List.iter
    (fun needle ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) ("report mentions " ^ needle) true (contains md needle))
    [ "# Defect-level projection report"; "Coverage growth"; "Fitted model";
      "residual defect level"; "IDDQ"; "collapsed stuck-at" ]

let () =
  Alcotest.run "extensions"
    [
      ( "clustered",
        [
          Alcotest.test_case "poisson limit" `Quick test_clustered_poisson_limit;
          Alcotest.test_case "endpoints" `Quick test_clustered_endpoints;
          Alcotest.test_case "clustering lowers DL" `Quick test_clustered_lower_dl;
          Alcotest.test_case "mean faults" `Quick test_clustered_mean_faults;
          Alcotest.test_case "required coverage" `Quick test_clustered_required_coverage;
          Alcotest.test_case "fit alpha" `Quick test_clustered_fit;
        ] );
      ( "detectability",
        [
          Alcotest.test_case "analytic curve" `Quick test_detectability_analytic_curve;
          Alcotest.test_case "estimate matches measured" `Quick
            test_detectability_estimate_matches_measured;
          Alcotest.test_case "test length" `Quick test_detectability_test_length;
          Alcotest.test_case "hardest" `Quick test_detectability_hardest;
        ] );
      ( "generators",
        [
          Alcotest.test_case "CLA = ripple" `Quick test_cla_equals_ripple;
          Alcotest.test_case "multiplier exhaustive" `Quick test_multiplier_exhaustive;
          Alcotest.test_case "multiplier testable" `Slow test_multiplier_testable;
        ] );
      ( "dot-throw",
        [
          Alcotest.test_case "matches analytic" `Slow test_dot_throw_matches_analytic;
          Alcotest.test_case "deterministic" `Quick test_dot_throw_determinism;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "roundtrip benchmarks" `Quick test_verilog_roundtrip;
          Alcotest.test_case "handwritten source" `Quick test_verilog_parse_handwritten;
          Alcotest.test_case "errors" `Quick test_verilog_errors;
          Alcotest.test_case "bench cross-format" `Quick test_verilog_bench_cross_format;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "preserves coverage" `Quick test_compaction_preserves_coverage;
          Alcotest.test_case "useful mask" `Quick test_compaction_useful_mask_identity;
        ] );
      ( "report", [ Alcotest.test_case "contents" `Quick test_report_contents ] );
      ( "bridge-gate",
        [
          Alcotest.test_case "resolution rules" `Quick test_bridge_gate_resolution_rules;
          Alcotest.test_case "detection on c17" `Quick test_bridge_gate_detection_c17;
          Alcotest.test_case "same-gate inputs redundant" `Quick
            test_bridge_gate_same_gate_inputs_undetectable;
          Alcotest.test_case "cross-validates switch level" `Quick
            test_bridge_gate_cross_validates_switch_level;
          Alcotest.test_case "candidate pairs" `Quick test_bridge_gate_candidate_pairs;
        ] );
    ]
