open Dl_netlist
open Dl_switch
module Mapping = Dl_cell.Mapping
module T3 = Dl_logic.Ternary

let rng = Dl_util.Rng.create 404

let build name =
  let c = Transform.decompose_for_cells (Option.get (Benchmarks.by_name name)) in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let exhaustive_vectors c =
  let npi = Circuit.input_count c in
  Array.init (1 lsl npi) (fun k -> Array.init npi (fun pi -> k lsr pi land 1 = 1))

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

(* --- Network indexing -------------------------------------------------------- *)

let test_network_adjacency () =
  let _, m, net = build "c17" in
  (* every transistor appears in the channel lists of both terminals *)
  Array.iteri
    (fun ti (tr : Mapping.transistor) ->
      Alcotest.(check bool) "source lists it" true
        (List.mem ti (Network.channel_edges net tr.source));
      Alcotest.(check bool) "drain lists it" true
        (List.mem ti (Network.channel_edges net tr.drain));
      Alcotest.(check bool) "gate lists it" true (List.mem ti (Network.gated_by net tr.gate)))
    m.Mapping.transistors

let test_network_owners () =
  let c, m, net = build "c17" in
  Array.iter
    (fun (inst : Mapping.instance) ->
      Alcotest.(check bool) "output owned" true
        (Network.owner_instance net inst.output_node <> None))
    m.Mapping.instances;
  Array.iter
    (fun pi ->
      Alcotest.(check bool) "PI unowned" true
        (Network.owner_instance net m.Mapping.signal_node.(pi) = None);
      Alcotest.(check bool) "PI flagged" true
        (Network.is_primary_input net m.Mapping.signal_node.(pi)))
    c.Circuit.inputs;
  Alcotest.(check bool) "gnd is rail" true (Network.is_rail net m.Mapping.gnd)

(* --- Solver: fault-free cells agree with gate logic -------------------------- *)

let test_solver_fault_free_cells () =
  let c, m, net = build "c432s_small" in
  (* For each instance, solve its region with no modifications and compare
     the output against Gate.eval on random inputs. *)
  Array.iteri
    (fun ii (inst : Mapping.instance) ->
      let nd = c.Circuit.nodes.(inst.gate_id) in
      let region = Solver.make net ~instances:[ ii ] ~modifications:[] in
      for _ = 1 to 8 do
        let ins = Array.init (Array.length nd.fanin) (fun _ -> Dl_util.Rng.bool rng) in
        let ext g =
          let rec scan p =
            if p >= Array.length nd.fanin then T3.VX
            else if m.Mapping.signal_node.(nd.fanin.(p)) = g then T3.of_bool ins.(p)
            else scan (p + 1)
          in
          scan 0
        in
        let o = Solver.solve region ~external_value:ext ~charge:(fun _ -> T3.VX) in
        Alcotest.(check bool) "no fight in fault-free cell" false o.fight;
        match List.assoc_opt inst.output_node o.values with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s output" (Circuit.name c inst.gate_id))
              true
              (T3.to_bool v = Some (Gate.eval nd.kind ins))
        | None -> Alcotest.fail "output not reported"
      done)
    m.Mapping.instances

(* --- Fault behaviours ---------------------------------------------------------- *)

(* A single INV circuit gives fully transparent behaviour checks. *)
let inv_fixture () =
  let b = Circuit.Builder.create ~title:"inv1" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b "o" Gate.Not [ "a" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let test_stuck_open_two_pattern () =
  let _, m, net = inv_fixture () in
  (* transistor 0 is the NMOS; removing it makes input=1 float the output,
     retaining the previous value: detected only by a 0->1 input sequence. *)
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    {
      Realistic.kind = Realistic.Transistor_stuck_open nmos_index;
      weight = 1.0;
      label = "nmos open";
    }
  in
  (* Sequence 1: input constant 1 -> output floats with unknown charge:
     never a definite error. *)
  let r1 = Swift.run net ~faults:[| fault |] ~vectors:[| [| true |]; [| true |] |] in
  Alcotest.(check bool) "constant-1 undetected" true
    (r1.detection.(0).voltage = None);
  (* Sequence 2: 0 then 1: the 0 charges the output to 1; at input 1 the
     output should fall but floats at 1 -> detected on vector 2. *)
  let r2 = Swift.run net ~faults:[| fault |] ~vectors:[| [| false |]; [| true |] |] in
  Alcotest.(check bool) "two-pattern detected" true (r2.detection.(0).voltage = Some 1);
  Alcotest.(check bool) "no static current" true (r2.detection.(0).iddq = None)

let test_stuck_on_fight () =
  let _, m, net = inv_fixture () in
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    {
      Realistic.kind = Realistic.Transistor_stuck_on nmos_index;
      weight = 1.0;
      label = "nmos on";
    }
  in
  (* input 0: PMOS pulls up (2.5) against stuck-on NMOS (1.0): output reads 0
     -> wrong value AND static current. *)
  let r = Swift.run net ~faults:[| fault |] ~vectors:[| [| false |] |] in
  Alcotest.(check bool) "voltage detected" true (r.detection.(0).voltage = Some 0);
  Alcotest.(check bool) "iddq detected" true (r.detection.(0).iddq = Some 0)

let test_bridge_wired_behaviour () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let fault =
    {
      Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
      weight = 1.0;
      label = "n10/n19";
    }
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults:[| fault |] ~vectors in
  Alcotest.(check bool) "bridge voltage-detected" true (r.detection.(0).voltage <> None);
  Alcotest.(check bool) "bridge iddq-detected" true (r.detection.(0).iddq <> None);
  (* IDDQ fires no later than voltage (activation suffices). *)
  (match (r.detection.(0).voltage, r.detection.(0).iddq) with
  | Some v, Some i -> Alcotest.(check bool) "iddq <= voltage" true (i <= v)
  | _ -> ())

let test_bridge_to_rail_acts_stuck () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  (* n10 shorted to GND behaves as n10 SA0 for detection purposes *)
  let fault =
    {
      Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = m.Mapping.gnd };
      weight = 1.0;
      label = "n10/gnd";
    }
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults:[| fault |] ~vectors in
  let sa =
    { Dl_fault.Stuck_at.site = Dl_fault.Stuck_at.Stem (Circuit.find c "n10");
      polarity = Dl_fault.Stuck_at.Sa0 }
  in
  let sim =
    Dl_fault.Fault_sim.run ~drop_detected:false c ~faults:[| sa |] ~vectors
  in
  Alcotest.(check bool) "same first detection as SA0" true
    (r.detection.(0).voltage = sim.first_detection.(0))

let test_input_open_policies () =
  let c, _, net = build "c17" in
  let n22 = Circuit.find c "n22" in
  let mk policy =
    {
      Realistic.kind = Realistic.Input_open { gate = n22; pin = 0; policy };
      weight = 1.0;
      label = "n22.in0";
    }
  in
  let vectors = exhaustive_vectors c in
  let r =
    Swift.run net
      ~faults:[| mk Realistic.Floats_low; mk Realistic.Floats_high; mk Realistic.Floats_unknown |]
      ~vectors
  in
  Alcotest.(check bool) "low detected" true (r.detection.(0).voltage <> None);
  Alcotest.(check bool) "high detected" true (r.detection.(1).voltage <> None);
  Alcotest.(check bool) "unknown never voltage-detected" true
    (r.detection.(2).voltage = None);
  Alcotest.(check bool) "unknown iddq-detected" true (r.detection.(2).iddq = Some 0)

let test_stem_open_matches_branch_all () =
  (* A stem open on a fanout-free net equals the input-open at its only
     reader. *)
  let c, _, net = build "c17" in
  let n10 = Circuit.find c "n10" in
  let n22 = Circuit.find c "n22" in
  let vectors = exhaustive_vectors c in
  let stem =
    { Realistic.kind = Realistic.Stem_open { node = n10; policy = Realistic.Floats_low };
      weight = 1.0; label = "stem" }
  in
  let branch =
    { Realistic.kind = Realistic.Input_open { gate = n22; pin = 0; policy = Realistic.Floats_low };
      weight = 1.0; label = "branch" }
  in
  let r = Swift.run net ~faults:[| stem; branch |] ~vectors in
  Alcotest.(check bool) "same detection" true
    (r.detection.(0).voltage = r.detection.(1).voltage)

let test_weighted_coverage_composition () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [|
      { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
        weight = 3.0; label = "b" };
      { Realistic.kind = Realistic.Stem_open { node = Circuit.find c "n16"; policy = Realistic.Floats_unknown };
        weight = 1.0; label = "o" };
    |]
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults ~vectors in
  let weights = [| 3.0; 1.0 |] in
  let theta = Swift.weighted_coverage ~weights r.detection in
  let gamma = Swift.unweighted_coverage r.detection in
  let n = Array.length vectors in
  (* bridge detected, float-X open not: theta = 3/4, gamma = 1/2 *)
  Alcotest.(check (float 1e-12)) "theta" 0.75 (Dl_fault.Coverage.at theta n);
  Alcotest.(check (float 1e-12)) "gamma" 0.5 (Dl_fault.Coverage.at gamma n);
  let iddq = Swift.iddq_weighted_coverage ~weights r.detection in
  Alcotest.(check (float 1e-12)) "iddq completes" 1.0 (Dl_fault.Coverage.at iddq n)

let test_good_values_match_sim2 () =
  let c, _, net = build "c432s_small" in
  let vectors = random_vectors c 10 in
  let goods = Swift.good_values net vectors in
  Array.iteri
    (fun k v ->
      let expected = Dl_logic.Sim2.run_single c v in
      Alcotest.(check (array bool)) (Printf.sprintf "vector %d" k) expected goods.(k))
    vectors

let test_drop_modes_agree_on_firsts () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [|
      { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n23" };
        weight = 1.0; label = "b1" };
      { Realistic.kind = Realistic.Bridge { node_a = sn "n11"; node_b = sn "n22" };
        weight = 1.0; label = "b2" };
    |]
  in
  let vectors = random_vectors c 64 in
  let a = Swift.run ~drop_when:`Never net ~faults ~vectors in
  let b = Swift.run ~drop_when:`Both net ~faults ~vectors in
  Alcotest.(check bool) "voltage firsts equal" true
    (Array.for_all2
       (fun (x : Swift.detection) (y : Swift.detection) -> x.voltage = y.voltage)
       a.detection b.detection)


let test_charge_retention_sequence () =
  (* A stuck-open NAND pull-down transistor: output floats when the stuck
     pattern is applied; the retained value must be the *previous* settled
     value, vector after vector. *)
  let b = Circuit.Builder.create ~title:"nand1" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  let net = Network.build m in
  (* find an NMOS of the series stack *)
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    { Realistic.kind = Realistic.Transistor_stuck_open nmos_index;
      weight = 1.0; label = "nand nmos open" }
  in
  (* (1,1) would pull down; with the device open the output retains its last
     value.  Sequence: (0,1) -> o=1; (1,1) -> retains 1 (good would be 0):
     detected exactly on the second vector. *)
  let r =
    Swift.run net ~faults:[| fault |]
      ~vectors:[| [| false; true |]; [| true; true |] |]
  in
  Alcotest.(check bool) "detected on capture vector" true
    (r.detection.(0).voltage = Some 1)

let test_feedback_bridge_terminates () =
  (* Bridge a gate output back onto one of its transitive inputs: the
     region/propagation feedback loop must settle (bounded iterations) and
     the run must finish with a sane verdict. *)
  let c, m, net = build "c432s_small" in
  (* find a pair (x, y) with y in the cone of x *)
  let found = ref None in
  (try
     Array.iter
       (fun (nd : Circuit.node) ->
         Array.iter
           (fun succ ->
             Array.iter
               (fun succ2 ->
                 if !found = None && c.Circuit.nodes.(succ2).kind <> Gate.Input then begin
                   found := Some (nd.id, succ2);
                   raise Exit
                 end)
               c.Circuit.fanouts.(succ))
           c.Circuit.fanouts.(nd.id))
       c.Circuit.nodes
   with Exit -> ());
  match !found with
  | None -> Alcotest.fail "no feedback pair found"
  | Some (a, b) ->
      let fault =
        { Realistic.kind =
            Realistic.Bridge
              { node_a = m.Mapping.signal_node.(a); node_b = m.Mapping.signal_node.(b) };
          weight = 1.0; label = "feedback" }
      in
      let vectors = random_vectors c 64 in
      let r = Swift.run net ~faults:[| fault |] ~vectors in
      Alcotest.(check int) "run completes over all vectors" 64 r.vectors_applied

let test_drop_voltage_mode_faster () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [| { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
         weight = 1.0; label = "b" } |]
  in
  let vectors = exhaustive_vectors c in
  let fast = Swift.run ~drop_when:`Voltage net ~faults ~vectors in
  let full = Swift.run ~drop_when:`Never net ~faults ~vectors in
  Alcotest.(check bool) "same first detection" true
    (fast.detection.(0).voltage = full.detection.(0).voltage);
  Alcotest.(check bool) "strictly less work" true
    (fast.region_solves < full.region_solves)

let test_signature_consistent_with_first_detection () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let fault =
    { Realistic.kind = Realistic.Bridge { node_a = sn "n11"; node_b = sn "n22" };
      weight = 1.0; label = "b" }
  in
  let vectors = exhaustive_vectors c in
  let fails = Swift.signature net ~fault ~vectors in
  let r = Swift.run ~drop_when:`Never net ~faults:[| fault |] ~vectors in
  let first_fail =
    let rec scan i =
      if i >= Array.length fails then None
      else if fails.(i) then Some i
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "signature first = detection first" true
    (first_fail = r.detection.(0).voltage)


(* --- Compiled engine vs reference ------------------------------------------- *)

(* A one-cell circuit per library cell: every input a pad-driven PI. *)
let cell_fixture (kind, arity) =
  let b = Circuit.Builder.create ~title:"cell" in
  let ins = List.init arity (fun i -> Printf.sprintf "i%d" i) in
  List.iter (Circuit.Builder.add_input b) ins;
  Circuit.Builder.add_gate b "o" kind ins;
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let cell_modifications c (m : Mapping.network) =
  let inst = m.Mapping.instances.(0) in
  let n_ts = List.length inst.cell.Dl_cell.Cell.transistors in
  let ts = List.init n_ts (fun k -> inst.first_transistor + k) in
  let out = inst.output_node in
  let pis = Array.to_list (Array.map (fun pi -> m.Mapping.signal_node.(pi)) c.Circuit.inputs) in
  let pairs =
    List.map (fun p -> (out, p)) pis
    @ [ (out, m.Mapping.gnd); (out, m.Mapping.vdd) ]
    @ List.map (fun nd -> (nd, out)) (Array.to_list inst.internal_nodes)
    @ List.map (fun nd -> (nd, m.Mapping.gnd)) (Array.to_list inst.internal_nodes)
    @ (match pis with a :: b :: _ -> [ (a, b) ] | _ -> [])
  in
  List.map (fun ti -> Solver.Remove_transistor ti) ts
  @ List.map (fun ti -> Solver.Short_transistor ti) ts
  @ List.map (fun (a, b) -> Solver.Bridge_nodes { node_a = a; node_b = b }) pairs

let all_assignments n =
  let vals = [| T3.V0; T3.V1; T3.VX |] in
  let total = int_of_float (3.0 ** float_of_int n) in
  List.init total (fun code ->
      Array.init n (fun i -> vals.(code / int_of_float (3.0 ** float_of_int i) mod 3)))

let test_compiled_solve_every_cell () =
  let scratch = Solver.scratch () in
  let solves = ref 0 in
  List.iter
    (fun ((kind, arity) as cell) ->
      let c, m, net = cell_fixture cell in
      let lowering = Solver.lowering net in
      List.iter
        (fun md ->
          let region = Solver.make net ~instances:[ 0 ] ~modifications:[ md ] in
          let cr = Solver.lower lowering ~instances:[ 0 ] ~modifications:[ md ] in
          let ext_nodes = Solver.external_nodes cr in
          let solved = Solver.solved_nodes cr in
          if Array.to_list solved <> Solver.observable_nodes region then
            Alcotest.failf "%s/%d: lowered solved nodes differ from make's"
              (Gate.to_string kind) arity;
          let out = Array.make (Array.length solved) T3.VX in
          List.iter
            (fun ext ->
              List.iter
                (fun q ->
                  let external_value g =
                    let rec find i =
                      if i >= Array.length ext_nodes then T3.VX
                      else if ext_nodes.(i) = g then ext.(i)
                      else find (i + 1)
                    in
                    find 0
                  in
                  let want = Solver.solve region ~external_value ~charge:(fun _ -> q) in
                  let charge = Array.make (Array.length solved) q in
                  let fight =
                    Solver.solve_compiled (Solver.shape cr) scratch ~ext ~charge ~out
                  in
                  incr solves;
                  let got = List.combine (Array.to_list solved) (Array.to_list out) in
                  if got <> want.values || fight <> want.fight then
                    Alcotest.failf "%s/%d: compiled solve differs (ext %s, charge %c)"
                      (Gate.to_string kind) arity
                      (String.init (Array.length ext) (fun i -> T3.to_char ext.(i)))
                      (T3.to_char q))
                [ T3.V0; T3.V1; T3.VX ])
            (all_assignments (Array.length ext_nodes)))
        (cell_modifications c m))
    Dl_cell.Cell.all_kinds;
  Alcotest.(check bool) "some solves compared" true (!solves > 1000)

let realistic_faults name =
  let c, m, net = build name in
  let ext = Dl_extract.Ifa.extract (Dl_layout.Layout.synthesize m) in
  (c, net, ext.Dl_extract.Ifa.faults)

let fault kind = { Realistic.kind; weight = 1.0; label = "" }

module Parallel = Dl_util.Parallel

(* Every open fault of every signal: the stem, and each gate input pin,
   under each float policy. *)
let all_opens (c : Circuit.t) =
  let policies = [ Realistic.Floats_low; Realistic.Floats_high; Realistic.Floats_unknown ] in
  Array.to_list c.nodes
  |> List.concat_map (fun (nd : Circuit.node) ->
         List.concat_map
           (fun policy ->
             fault (Realistic.Stem_open { node = nd.id; policy })
             :: List.init (Array.length nd.fanin) (fun pin ->
                    fault (Realistic.Input_open { gate = nd.id; pin; policy })))
           policies)
  |> Array.of_list

let stats_fields (st : Swift.memo_stats) =
  [ st.shapes; st.full_hits; st.ext_only_hits; st.misses; st.rounds;
    st.feedback_capped; st.rounds_capped; st.cone_walks ]

(* The serial engine, pools of 1, 2 and 3 domains and the reference agree
   on detections and region solves in every drop mode; the engine's memo
   counters and callback events are the same for every pool size, and the
   events are the reference's. *)
let check_same_as_reference net ~faults ~vectors =
  List.iter
    (fun drop_when ->
      let events_of run =
        let events = ref [] in
        let (r : Swift.result) =
          run (fun ~fault_index ~vector_index ->
              events := (vector_index, fault_index) :: !events)
        in
        (r, List.rev !events)
      in
      let slow, slow_events =
        events_of (fun on_voltage_detect ->
            Swift.Reference.run ~drop_when ~on_voltage_detect net ~faults ~vectors)
      in
      let engine ?pool ?domains () =
        let stats = Swift.memo_stats () in
        let r = Swift.run ~drop_when ~memo_stats:stats ?pool ?domains net ~faults ~vectors in
        let r', events =
          events_of (fun on_voltage_detect ->
              Swift.run ~drop_when ~on_voltage_detect ?pool ?domains net ~faults ~vectors)
        in
        Alcotest.(check bool) "callback run detections" true (r.detection = r'.detection);
        (r, stats_fields stats, events)
      in
      let serial, serial_stats, serial_events = engine ~domains:1 () in
      Array.iteri
        (fun i (d : Swift.detection) ->
          if d <> slow.detection.(i) then
            Alcotest.failf "fault %s: detection differs from the reference"
              (Realistic.describe faults.(i)))
        serial.detection;
      Alcotest.(check int) "region solves = reference" slow.region_solves serial.region_solves;
      Alcotest.(check (list (pair int int))) "events = reference" slow_events serial_events;
      List.iter
        (fun domains ->
          Parallel.with_pool ~domains (fun pool ->
              let r, stats, events = engine ~pool () in
              let name what = Printf.sprintf "%s, pool of %d" what domains in
              Alcotest.(check bool) (name "detections") true (r.detection = serial.detection);
              Alcotest.(check int) (name "region solves") serial.region_solves r.region_solves;
              Alcotest.(check (list int)) (name "memo stats") serial_stats stats;
              Alcotest.(check (list (pair int int))) (name "events") serial_events events))
        [ 1; 2; 3 ])
    [ `Both; `Voltage; `Never ]

let test_swift_matches_reference_c17 () =
  let c, net, faults = realistic_faults "c17" in
  check_same_as_reference net
    ~faults:(Array.append faults (all_opens c))
    ~vectors:(exhaustive_vectors c)

let test_swift_matches_reference_c432s_small () =
  let c, net, faults = realistic_faults "c432s_small" in
  check_same_as_reference net ~faults ~vectors:(random_vectors c 24)

(* The reusable cone walker against the Hashtbl walk it replaces. *)
let prop_cone_matches_run =
  QCheck.Test.make ~name:"Cone = Propagate.run + po_detects" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Dl_util.Rng.create seed in
      let c =
        Generator.random ~seed ~inputs:(3 + (seed mod 5)) ~outputs:(1 + (seed mod 3))
          ~profile:
            [ (Gate.Nand, 8); (Gate.Nor, 4); (Gate.And, 3); (Gate.Or, 3);
              (Gate.Xor, 2); (Gate.Xnor, 1); (Gate.Not, 3); (Gate.Buf, 1) ]
          ()
      in
      let n = Circuit.node_count c in
      let cone = Dl_logic.Propagate.Cone.create c in
      List.for_all
        (fun _ ->
          let good = Dl_logic.Sim2.run_single c
              (Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng)) in
          let seeds =
            List.init (Dl_util.Rng.int rng 4) (fun _ ->
                ( Dl_util.Rng.int rng n,
                  match Dl_util.Rng.int rng 3 with 0 -> T3.V0 | 1 -> T3.V1 | _ -> T3.VX ))
          in
          let map = Dl_logic.Propagate.run c good seeds in
          Dl_logic.Propagate.Cone.start cone good;
          List.iter (fun (id, v) -> Dl_logic.Propagate.Cone.seed cone id v) seeds;
          Dl_logic.Propagate.Cone.propagate cone;
          List.for_all
            (fun id ->
              let got =
                if Dl_logic.Propagate.Cone.mem cone id then
                  Some (Dl_logic.Propagate.Cone.get cone id)
                else None
              in
              got = Hashtbl.find_opt map id)
            (List.init n Fun.id)
          && Dl_logic.Propagate.Cone.po_detects cone
             = Dl_logic.Propagate.po_detects c good map)
        (List.init 8 Fun.id))

(* --- Shared shapes and memo entries ---------------------------------------------- *)

(* Two NAND2 cells on disjoint inputs and a third on the first one's
   inputs. *)
let nand_fixture () =
  let b = Circuit.Builder.create ~title:"nands" in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b "x" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_gate b "y" Gate.Nand [ "c"; "d" ];
  Circuit.Builder.add_gate b "z" Gate.Nand [ "a"; "b" ];
  List.iter (Circuit.Builder.add_output b) [ "x"; "y"; "z" ];
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let test_stuck_open_shapes_shared () =
  let c, m, net = nand_fixture () in
  let inst name = Option.get (Mapping.instance_of_gate m (Circuit.find c name)) in
  let x = inst "x" and y = inst "y" in
  let n_ts = List.length x.cell.Dl_cell.Cell.transistors in
  let faults =
    Array.init (2 * n_ts) (fun i ->
        let first = if i < n_ts then x.first_transistor else y.first_transistor in
        fault (Realistic.Transistor_stuck_open (first + (i mod n_ts))))
  in
  let ids = Swift.shape_ids net faults in
  for k = 0 to n_ts - 1 do
    Alcotest.(check int)
      (Printf.sprintf "transistor %d of either instance" k)
      ids.(k) ids.(n_ts + k)
  done;
  Alcotest.(check bool) "distinct positions, distinct shapes" true
    (List.length (List.sort_uniq compare (Array.to_list ids)) > 1)

let test_pad_strength_splits_shapes () =
  let c, m, net = nand_fixture () in
  let node name = m.Mapping.signal_node.(Circuit.find c name) in
  Alcotest.(check bool) "pads a and c differ in strength" true
    (node "a" mod 97 <> node "c" mod 97);
  let bridge p o = fault (Realistic.Bridge { node_a = node p; node_b = node o }) in
  let faults = [| bridge "a" "x"; bridge "a" "z"; bridge "c" "y" |] in
  let ids = Swift.shape_ids net faults in
  Alcotest.(check int) "same pad, same cell: one shape" ids.(0) ids.(1);
  Alcotest.(check bool) "different pad strength: two shapes" true (ids.(0) <> ids.(2));
  check_same_as_reference net ~faults ~vectors:(exhaustive_vectors c)

let test_charge_read_not_ext_only () =
  let _, m, net = inv_fixture () in
  let nmos =
    let rec scan i =
      if m.Mapping.transistors.(i).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  (* At input 1 the open NMOS leaves the output floating: the solve reads
     the charge.  At input 0 the PMOS drives it: no charge is read. *)
  let cr =
    Solver.lower (Solver.lowering net) ~instances:[ 0 ]
      ~modifications:[ Solver.Remove_transistor nmos ]
  in
  let scratch = Solver.scratch () in
  let solve a q =
    let out = Array.make (Array.length (Solver.solved_nodes cr)) T3.VX in
    let charge = Array.make (Array.length out) q in
    ignore (Solver.solve_compiled (Solver.shape cr) scratch ~ext:[| a |] ~charge ~out);
    Solver.read_charge scratch
  in
  Alcotest.(check bool) "floating output reads charge" true (solve T3.V1 T3.V0);
  Alcotest.(check bool) "driven output reads none" false (solve T3.V0 T3.V0);
  (* Input 1 first from unknown charge (output X), then from charge 1
     (output 1, detected): an ext-only entry written by the first solve
     would answer the later ones with X. *)
  let inputs = [| true; false; true; true; false; true |] in
  let vectors = Array.map (fun a -> [| a |]) inputs in
  let f = fault (Realistic.Transistor_stuck_open nmos) in
  let fails run =
    let got = Array.make (Array.length vectors) false in
    let (_ : Swift.result) =
      run (fun ~fault_index:_ ~vector_index -> got.(vector_index) <- true)
    in
    got
  in
  let stats = Swift.memo_stats () in
  let fast =
    fails (fun on_voltage_detect ->
        Swift.run ~drop_when:`Never ~on_voltage_detect ~memo_stats:stats net
          ~faults:[| f |] ~vectors)
  in
  let slow =
    fails (fun on_voltage_detect ->
        Swift.Reference.run ~drop_when:`Never ~on_voltage_detect net ~faults:[| f |]
          ~vectors)
  in
  Alcotest.(check (array bool)) "signature" [| false; false; true; true; false; true |] fast;
  Alcotest.(check (array bool)) "= reference" slow fast;
  (* Misses: (1, X), (0, any), (1, 1); then (1, 1) twice and (0, any) once
     from the memo. *)
  Alcotest.(check (list int)) "misses, full-key hits, ext-only hits" [ 3; 2; 1 ]
    [ stats.misses; stats.full_hits; stats.ext_only_hits ]

(* --- Pooled engine ------------------------------------------------------------ *)

(* Bridges from a node onto the gates two and three levels downstream of
   it: a loop through an odd number of inversions can oscillate, so some
   region evaluations run into the feedback cap.  The cap counters, like
   every memo counter, are the same for any pool size. *)
let test_cap_counters_pool_independent () =
  let c, m, net = build "c432s_small" in
  let bridge a b =
    { Realistic.kind =
        Realistic.Bridge
          { node_a = m.Mapping.signal_node.(a); node_b = m.Mapping.signal_node.(b) };
      weight = 1.0; label = "feedback" }
  in
  let downstream id = Array.to_list c.Circuit.fanouts.(id) in
  let faults =
    Array.to_list c.Circuit.nodes
    |> List.concat_map (fun (nd : Circuit.node) ->
           let two = List.concat_map downstream (downstream nd.id) in
           List.map (bridge nd.id) (two @ List.concat_map downstream two))
    |> List.sort_uniq compare |> Array.of_list
  in
  let vectors = random_vectors c 8 in
  let stats ?pool ?domains () =
    let st = Swift.memo_stats () in
    let r = Swift.run ~drop_when:`Never ~memo_stats:st ?pool ?domains net ~faults ~vectors in
    (r.detection, st)
  in
  let serial, st = stats ~domains:1 () in
  Alcotest.(check bool) "some evaluation reaches the feedback cap" true
    (st.feedback_capped > 0);
  List.iter
    (fun domains ->
      Parallel.with_pool ~domains (fun pool ->
          let detection, st' = stats ~pool () in
          let name what = Printf.sprintf "%s, pool of %d" what domains in
          Alcotest.(check bool) (name "detections") true (detection = serial);
          Alcotest.(check (list int)) (name "memo and cap counters")
            (stats_fields st) (stats_fields st')))
    [ 2; 3 ]

(* --- Acyclic regions ----------------------------------------------------------- *)

(* x = NAND(a, b) feeds y = NAND(x, c); z = NAND(c, d) shares no path with
   x.  Bridging x to y (one cell feeds the other) or x to the PI a (which
   feeds x) can feed back into the region's own inputs, so every pass of
   those faults walks the cone: the iterating path.  Bridging x to z
   cannot, and a hard short leaves at most one definitely wrong node, so
   the observability table decides every vector of it without a walk. *)
let test_feedback_regions_iterate () =
  let b = Circuit.Builder.create ~title:"chain" in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b "x" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_gate b "y" Gate.Nand [ "x"; "c" ];
  Circuit.Builder.add_gate b "z" Gate.Nand [ "c"; "d" ];
  List.iter (Circuit.Builder.add_output b) [ "y"; "z" ];
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  let net = Network.build m in
  let node name = m.Mapping.signal_node.(Circuit.find c name) in
  let bridge p q = fault (Realistic.Bridge { node_a = node p; node_b = node q }) in
  let vectors = exhaustive_vectors c in
  List.iter
    (fun (p, q, iterates) ->
      let faults = [| bridge p q |] in
      let st = Swift.memo_stats () in
      let r = Swift.run ~drop_when:`Never ~memo_stats:st ~domains:1 net ~faults ~vectors in
      let slow = Swift.Reference.run ~drop_when:`Never net ~faults ~vectors in
      let name what = Printf.sprintf "bridge %s-%s: %s" p q what in
      Alcotest.(check bool) (name "detection = reference") true (r.detection = slow.detection);
      Alcotest.(check int) (name "region solves = reference") slow.region_solves r.region_solves;
      Alcotest.(check int) (name "cone walks")
        (if iterates then r.region_solves else 0)
        st.cone_walks;
      check_same_as_reference net ~faults ~vectors)
    [ ("x", "y", true); ("x", "a", true); ("x", "z", false) ]

(* A pool wider than the task list: its extra workers claim nothing, and
   detections, region solves and every memo counter are the serial run's.
   ([check_same_as_reference] covers pools of 1, 2 and 3 domains.) *)
let test_oversized_pool () =
  let c, net, faults = realistic_faults "c432s_small" in
  let faults = Array.sub faults 0 3 and vectors = random_vectors c 8 in
  let outcome ?pool () =
    let st = Swift.memo_stats () in
    let r = Swift.run ~memo_stats:st ?pool ~domains:1 net ~faults ~vectors in
    (r.detection, r.region_solves, stats_fields st)
  in
  let det, solves, st = outcome () in
  Parallel.with_pool ~domains:4 (fun pool ->
      let det', solves', st' = outcome ~pool () in
      Alcotest.(check bool) "detections" true (det = det');
      Alcotest.(check int) "region solves" solves solves';
      Alcotest.(check (list int)) "memo counters" st st')

let family_case seed =
  let fams = Array.of_list Generator.Family.all in
  let fam = fams.(seed mod Array.length fams) in
  let c =
    Transform.decompose_for_cells
      (Generator.Family.build fam ~seed ~gates:(12 + (seed mod 17)))
  in
  let m = Mapping.flatten c in
  let net = Network.build m in
  let rng = Dl_util.Rng.create seed in
  let vectors =
    Array.init 6 (fun _ -> Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))
  in
  (c, m, net, vectors)

let prop_pooled_families =
  QCheck.Test.make ~name:"pooled = serial = reference, generated families" ~count:8
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let c, m, net, vectors = family_case seed in
      let ifa = (Dl_extract.Ifa.extract (Dl_layout.Layout.synthesize m)).faults in
      let opens = all_opens c in
      let stride = max 1 (Array.length opens / 24) in
      let opens = Array.init (Array.length opens / stride) (fun i -> opens.(i * stride)) in
      check_same_as_reference net ~faults:(Array.append ifa opens) ~vectors;
      true)

(* Kleene evaluation is monotone: an X seed leaves every node X or at its
   fault-free value, so no output is ever definitely wrong.  Checked on the
   reference engine, which walks every (fault, vector) pair. *)
let prop_x_open_never_voltage_detected =
  QCheck.Test.make ~name:"an X-seeded open is never voltage-detected" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let c, _, net, vectors = family_case seed in
      let faults =
        Array.of_list
          (List.filter
             (fun (f : Realistic.t) ->
               match f.kind with
               | Realistic.Stem_open { policy; _ } | Realistic.Input_open { policy; _ } ->
                   policy = Realistic.Floats_unknown
               | _ -> false)
             (Array.to_list (all_opens c)))
      in
      let hits = ref 0 in
      let r =
        Swift.Reference.run ~drop_when:`Never
          ~on_voltage_detect:(fun ~fault_index:_ ~vector_index:_ -> incr hits)
          net ~faults ~vectors
      in
      !hits = 0
      && Array.for_all
           (fun (d : Swift.detection) -> d.voltage = None && d.iddq = Some 0)
           r.detection)

let test_swift_stage_independent_of_domains () =
  let module Experiment = Dl_core.Experiment in
  let module Artifact = Dl_store.Artifact in
  let c = Option.get (Benchmarks.by_name "c432s_small") in
  let stage domains =
    let cfg = Experiment.config ~domains ~max_random_vectors:16 c in
    let e = Experiment.run cfg in
    ( List.assoc "swift" (Experiment.stage_keys cfg),
      Dl_store.Codec.to_bytes Artifact.swift e.swift_result )
  in
  let key1, bytes1 = stage 1 and key2, bytes2 = stage 2 in
  Alcotest.(check string) "stage key" key1 key2;
  Alcotest.(check bool) "artifact bytes" true (Bytes.equal bytes1 bytes2)

let () =
  Alcotest.run "dl_switch"
    [
      ( "network",
        [
          Alcotest.test_case "adjacency" `Quick test_network_adjacency;
          Alcotest.test_case "owners" `Quick test_network_owners;
        ] );
      ( "solver",
        [
          Alcotest.test_case "fault-free cells = gates" `Quick test_solver_fault_free_cells;
          Alcotest.test_case "compiled = reference, every cell" `Quick
            test_compiled_solve_every_cell;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stuck-open needs two patterns" `Quick test_stuck_open_two_pattern;
          Alcotest.test_case "stuck-on fights" `Quick test_stuck_on_fight;
          Alcotest.test_case "bridge wired behaviour" `Quick test_bridge_wired_behaviour;
          Alcotest.test_case "rail bridge = stuck-at" `Quick test_bridge_to_rail_acts_stuck;
          Alcotest.test_case "input-open policies" `Quick test_input_open_policies;
          Alcotest.test_case "stem = only-branch open" `Quick test_stem_open_matches_branch_all;
        ] );
      ( "swift",
        [
          Alcotest.test_case "coverage composition" `Quick test_weighted_coverage_composition;
          Alcotest.test_case "good values = sim2" `Quick test_good_values_match_sim2;
          Alcotest.test_case "drop modes agree" `Quick test_drop_modes_agree_on_firsts;
          Alcotest.test_case "charge retention sequence" `Quick test_charge_retention_sequence;
          Alcotest.test_case "feedback bridge terminates" `Quick test_feedback_bridge_terminates;
          Alcotest.test_case "voltage-drop mode faster" `Quick test_drop_voltage_mode_faster;
          Alcotest.test_case "signature consistent" `Quick
            test_signature_consistent_with_first_detection;
          Alcotest.test_case "compiled = reference, c17" `Quick
            test_swift_matches_reference_c17;
          Alcotest.test_case "compiled = reference, c432s_small" `Slow
            test_swift_matches_reference_c432s_small;
          Alcotest.test_case "stuck-open shapes shared across instances" `Quick
            test_stuck_open_shapes_shared;
          Alcotest.test_case "pad strength splits shapes" `Quick
            test_pad_strength_splits_shapes;
          Alcotest.test_case "charge-reading solve not ext-only" `Quick
            test_charge_read_not_ext_only;
        ] );
      ( "pooled",
        [
          Alcotest.test_case "swift stage independent of domains" `Quick
            test_swift_stage_independent_of_domains;
          Alcotest.test_case "cap counters independent of pool size" `Quick
            test_cap_counters_pool_independent;
          Alcotest.test_case "feedback regions take the iterating path" `Quick
            test_feedback_regions_iterate;
          Alcotest.test_case "oversized pool = serial" `Quick test_oversized_pool;
          QCheck_alcotest.to_alcotest prop_pooled_families;
          QCheck_alcotest.to_alcotest prop_x_open_never_voltage_detected;
        ] );
      ("propagate", [ QCheck_alcotest.to_alcotest prop_cone_matches_run ]);
    ]
