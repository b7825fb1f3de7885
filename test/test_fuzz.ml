(* Cross-engine fuzzing over randomly generated circuits: every property
   here pits two independent implementations against each other (parallel
   vs serial simulation, PPSFP vs the ternary oracle, PODEM vs exhaustive
   search, gate-level vs switch-level evaluation, parser vs printer). *)

open Dl_netlist

let small_profile =
  [
    (Gate.Nand, 8);
    (Gate.Nor, 4);
    (Gate.And, 3);
    (Gate.Or, 3);
    (Gate.Not, 4);
    (Gate.Xor, 3);
  ]

let random_circuit seed =
  Generator.random ~seed ~inputs:6 ~outputs:3 ~profile:small_profile ()

let vectors_of rng c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

let exhaustive c =
  let npi = Circuit.input_count c in
  Array.init (1 lsl npi) (fun k -> Array.init npi (fun pi -> k lsr pi land 1 = 1))

(* --- simulators agree ------------------------------------------------------ *)

(* The event-driven side is [Propagate]: each vector is reached from the
   previous one (all-zero inputs before the first) by walking only the
   cones of the inputs that changed. *)
let prop_simulators_agree =
  QCheck.Test.make ~name:"sim2 = sim3 = event sim on random circuits" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Dl_util.Rng.create (seed + 1) in
      let prev_v = ref (Array.make (Circuit.input_count c) false) in
      let prev = ref (Dl_logic.Sim2.run_single c !prev_v) in
      let ok = ref true in
      for _ = 1 to 10 do
        let v = Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng) in
        let r2 = Dl_logic.Sim2.run_single c v in
        let r3 = Dl_logic.Sim3.run c (Array.map Dl_logic.Ternary.of_bool v) in
        let seeds =
          List.filter_map Fun.id
            (List.mapi
               (fun i id ->
                 if v.(i) <> !prev_v.(i) then
                   Some (id, Dl_logic.Ternary.of_bool v.(i))
                 else None)
               (Array.to_list c.Circuit.inputs))
        in
        let events = Dl_logic.Propagate.run c !prev seeds in
        Array.iteri
          (fun id b ->
            if Dl_logic.Ternary.to_bool r3.(id) <> Some b then ok := false;
            let ev =
              match Hashtbl.find_opt events id with
              | Some t -> Dl_logic.Ternary.to_bool t
              | None -> Some !prev.(id)
            in
            if ev <> Some b then ok := false)
          r2;
        prev_v := v;
        prev := r2
      done;
      !ok)

(* --- fault simulation vs oracle -------------------------------------------- *)

let prop_ppsfp_oracle =
  QCheck.Test.make ~name:"PPSFP first detections match the ternary oracle" ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Dl_util.Rng.create (seed * 3) in
      let faults = Dl_fault.Stuck_at.universe c in
      (* sample 20 faults to keep the oracle cheap *)
      let sample = Dl_util.Rng.sample rng faults (min 20 (Array.length faults)) in
      let vectors = vectors_of rng c 40 in
      let r = Dl_fault.Fault_sim.run ~drop_detected:false c ~faults:sample ~vectors in
      Array.for_all
        (fun i ->
          let oracle = ref None in
          Array.iteri
            (fun k v ->
              if !oracle = None && Dl_fault.Fault_sim.detects_fault c sample.(i) v
              then oracle := Some k)
            vectors;
          r.first_detection.(i) = !oracle)
        (Array.init (Array.length sample) Fun.id))

let prop_collapse_classes_equivalent =
  QCheck.Test.make ~name:"equivalence classes detect identically" ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Dl_util.Rng.create (seed * 5) in
      let classes = Dl_fault.Stuck_at.equivalence_classes c (Dl_fault.Stuck_at.universe c) in
      let vectors = vectors_of rng c 10 in
      Array.for_all
        (fun cls ->
          Array.length cls < 2
          || Array.for_all
               (fun v ->
                 let d0 = Dl_fault.Fault_sim.detects_fault c cls.(0) v in
                 Array.for_all
                   (fun f -> Dl_fault.Fault_sim.detects_fault c f v = d0)
                   cls)
               vectors)
        classes)

(* --- PODEM vs exhaustive ----------------------------------------------------- *)

let prop_podem_sound_and_complete =
  QCheck.Test.make ~name:"PODEM verdicts match exhaustive search" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Dl_util.Rng.create (seed * 7) in
      let faults = Dl_fault.Stuck_at.universe c in
      let sample = Dl_util.Rng.sample rng faults (min 12 (Array.length faults)) in
      let all = exhaustive c in
      let scoap = Dl_atpg.Scoap.compute c in
      Array.for_all
        (fun f ->
          let truly_testable =
            Array.exists (fun v -> Dl_fault.Fault_sim.detects_fault c f v) all
          in
          match Dl_atpg.Podem.generate ~scoap c f with
          | Dl_atpg.Podem.Test v ->
              truly_testable && Dl_fault.Fault_sim.detects_fault c f v
          | Dl_atpg.Podem.Untestable -> not truly_testable
          | Dl_atpg.Podem.Aborted -> true (* inconclusive is acceptable *))
        sample)

(* --- netlist formats ----------------------------------------------------------- *)

let behaviourally_equal c1 c2 seed =
  let rng = Dl_util.Rng.create seed in
  let ok = ref true in
  for _ = 1 to 16 do
    let v = Array.init (Circuit.input_count c1) (fun _ -> Dl_util.Rng.bool rng) in
    if Dl_logic.Sim2.output_bits c1 v <> Dl_logic.Sim2.output_bits c2 v then ok := false
  done;
  !ok

let prop_format_roundtrips =
  QCheck.Test.make ~name:"bench and verilog roundtrips preserve behaviour" ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let via_bench = Bench_format.parse_string (Bench_format.to_string c) in
      let via_verilog = Verilog.parse_string (Verilog.to_string c) in
      behaviourally_equal c via_bench (seed + 1)
      && behaviourally_equal c via_verilog (seed + 2))

let prop_decompose_equivalent =
  QCheck.Test.make ~name:"cell decomposition preserves behaviour" ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c =
        Generator.random ~seed ~inputs:5 ~outputs:2
          ~profile:[ (Gate.Nand, 4); (Gate.Xor, 6); (Gate.Or, 3) ]
          ()
      in
      let c' = Transform.decompose_for_cells c in
      Transform.is_cell_mappable c' && behaviourally_equal c c' (seed + 3))

(* --- switch level vs gate level -------------------------------------------------- *)

let prop_switch_level_fault_free =
  QCheck.Test.make ~name:"switch-level cells equal gate logic on random circuits"
    ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = Transform.decompose_for_cells (random_circuit seed) in
      let m = Dl_cell.Mapping.flatten c in
      let net = Dl_switch.Network.build m in
      let rng = Dl_util.Rng.create (seed * 11) in
      let ok = ref true in
      Array.iteri
        (fun ii (inst : Dl_cell.Mapping.instance) ->
          let nd = c.Circuit.nodes.(inst.gate_id) in
          let region = Dl_switch.Solver.make net ~instances:[ ii ] ~modifications:[] in
          for _ = 1 to 3 do
            let ins =
              Array.init (Array.length nd.fanin) (fun _ -> Dl_util.Rng.bool rng)
            in
            let ext g =
              let rec scan p =
                if p >= Array.length nd.fanin then Dl_logic.Ternary.VX
                else if m.Dl_cell.Mapping.signal_node.(nd.fanin.(p)) = g then
                  Dl_logic.Ternary.of_bool ins.(p)
                else scan (p + 1)
              in
              scan 0
            in
            let o =
              Dl_switch.Solver.solve region ~external_value:ext
                ~charge:(fun _ -> Dl_logic.Ternary.VX)
            in
            (match List.assoc_opt inst.output_node o.values with
            | Some v ->
                if Dl_logic.Ternary.to_bool v <> Some (Gate.eval nd.kind ins) then
                  ok := false
            | None -> ok := false);
            if o.fight then ok := false
          done)
        m.Dl_cell.Mapping.instances;
      !ok)

(* --- layout integrity -------------------------------------------------------------- *)

let prop_layout_no_shorts =
  QCheck.Test.make ~name:"synthesized layouts have no different-net overlaps" ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = Transform.decompose_for_cells (random_circuit seed) in
      let l = Dl_layout.Layout.synthesize (Dl_cell.Mapping.flatten c) in
      let rs = l.Dl_layout.Layout.rects in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          for j = i + 1 to Array.length rs - 1 do
            let b = rs.(j) in
            if a.Dl_layout.Geom.net <> b.Dl_layout.Geom.net && Dl_layout.Geom.overlaps a b
            then ok := false
          done)
        rs;
      !ok)

let prop_extraction_sites_valid =
  QCheck.Test.make ~name:"extracted fault sites reference live structure" ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = Transform.decompose_for_cells (random_circuit seed) in
      let m = Dl_cell.Mapping.flatten c in
      let l = Dl_layout.Layout.synthesize m in
      let e = Dl_extract.Ifa.extract l in
      let n_nodes = m.Dl_cell.Mapping.node_count in
      let n_ts = Dl_cell.Mapping.transistor_count m in
      Array.for_all
        (fun (f : Dl_switch.Realistic.t) ->
          f.weight > 0.0
          &&
          match f.kind with
          | Dl_switch.Realistic.Bridge { node_a; node_b } ->
              node_a >= 0 && node_a < n_nodes && node_b >= 0 && node_b < n_nodes
              && node_a <> node_b
          | Dl_switch.Realistic.Transistor_stuck_open ti
          | Dl_switch.Realistic.Transistor_stuck_on ti ->
              ti >= 0 && ti < n_ts
          | Dl_switch.Realistic.Input_open { gate; pin; _ } ->
              gate >= 0
              && gate < Circuit.node_count c
              && pin >= 0
              && pin < Array.length c.Circuit.nodes.(gate).fanin
          | Dl_switch.Realistic.Stem_open { node; _ } ->
              node >= 0 && node < Circuit.node_count c)
        e.Dl_extract.Ifa.faults)

(* --- compaction safety ------------------------------------------------------------------ *)

let prop_compaction_preserves =
  QCheck.Test.make ~name:"compaction never loses coverage" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Dl_util.Rng.create (seed * 17) in
      let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
      let vectors = vectors_of rng c 80 in
      let before = Dl_fault.Fault_sim.run c ~faults ~vectors in
      let compacted, _ = Dl_atpg.Compaction.compact c ~faults ~vectors in
      let after = Dl_fault.Fault_sim.run c ~faults ~vectors:compacted in
      Dl_fault.Fault_sim.detected_count before = Dl_fault.Fault_sim.detected_count after)


(* --- extended properties ------------------------------------------------------- *)

let prop_clustered_between_bounds =
  QCheck.Test.make ~name:"clustered DL bounded by endpoints" ~count:300
    QCheck.(
      make
        Gen.(
          let* y = float_range 0.05 0.99 in
          let* alpha = float_range 0.05 100.0 in
          let* t = float_range 0.0 1.0 in
          return (y, alpha, t)))
    (fun (y, alpha, t) ->
      let dl = Dl_core.Clustered.defect_level ~yield:y ~alpha ~coverage:t in
      dl >= -1e-12 && dl <= (1.0 -. y) +. 1e-9)

let () =
  Alcotest.run "fuzz"
    [
      ( "cross-engine",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_simulators_agree;
            prop_ppsfp_oracle;
            prop_collapse_classes_equivalent;
            prop_podem_sound_and_complete;
            prop_format_roundtrips;
            prop_decompose_equivalent;
            prop_switch_level_fault_free;
            prop_layout_no_shorts;
            prop_extraction_sites_valid;
            prop_compaction_preserves;
            prop_clustered_between_bounds;
          ] );
    ]
