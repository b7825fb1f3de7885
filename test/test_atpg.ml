open Dl_netlist
open Dl_atpg
module Stuck_at = Dl_fault.Stuck_at
module Fault_sim = Dl_fault.Fault_sim

(* --- SCOAP -------------------------------------------------------------------- *)

let test_scoap_inputs_cost_one () =
  let c = Benchmarks.c17 () in
  let s = Scoap.compute c in
  Array.iter
    (fun pi ->
      Alcotest.(check int) "cc0 = 1" 1 (Scoap.cc0 s pi);
      Alcotest.(check int) "cc1 = 1" 1 (Scoap.cc1 s pi))
    c.inputs

let test_scoap_nand_costs () =
  (* NAND2 with PI inputs: output 0 needs both 1 (cost 3), output 1 needs
     either 0 (cost 2). *)
  let b = Circuit.Builder.create ~title:"nand" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let s = Scoap.compute c in
  let o = Circuit.find c "o" in
  Alcotest.(check int) "cc0" 3 (Scoap.cc0 s o);
  Alcotest.(check int) "cc1" 2 (Scoap.cc1 s o)

let test_scoap_xor_costs () =
  let b = Circuit.Builder.create ~title:"xor" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Xor [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let s = Scoap.compute c in
  let o = Circuit.find c "o" in
  Alcotest.(check int) "cc0 = min(1+1, 1+1)+1" 3 (Scoap.cc0 s o);
  Alcotest.(check int) "cc1" 3 (Scoap.cc1 s o)

let test_scoap_observability () =
  let c = Benchmarks.c17 () in
  let s = Scoap.compute c in
  Array.iter
    (fun o -> Alcotest.(check int) "PO observability 0" 0 (Scoap.observability s o))
    c.outputs;
  (* deeper nodes are harder to observe than outputs *)
  Array.iter
    (fun (nd : Circuit.node) ->
      if not (Circuit.is_output c nd.id) then
        Alcotest.(check bool) "internal > 0" true (Scoap.observability s nd.id > 0))
    c.nodes

let test_scoap_depth_monotone () =
  (* controllability grows along an inverter chain *)
  let b = Circuit.Builder.create ~title:"chain" in
  Circuit.Builder.add_input b "a";
  let prev = ref "a" in
  for i = 1 to 5 do
    let nm = Printf.sprintf "n%d" i in
    Circuit.Builder.add_gate b nm Gate.Not [ !prev ];
    prev := nm
  done;
  Circuit.Builder.add_output b !prev;
  let c = Circuit.Builder.finalize b in
  let s = Scoap.compute c in
  for i = 1 to 4 do
    let a = Circuit.find c (Printf.sprintf "n%d" i) in
    let d = Circuit.find c (Printf.sprintf "n%d" (i + 1)) in
    Alcotest.(check bool) "controllability increases" true
      (Scoap.cc0 s d > Scoap.cc0 s a || Scoap.cc1 s d > Scoap.cc1 s a)
  done

let test_hardest_faults () =
  let c = Benchmarks.c432s () in
  let s = Scoap.compute c in
  let top = Scoap.hardest_faults s 5 in
  Alcotest.(check int) "five reported" 5 (List.length top);
  let costs = List.map (fun (_, _, cost) -> cost) top in
  Alcotest.(check bool) "descending" true (costs = List.sort (fun a b -> compare b a) costs)

(* --- PODEM --------------------------------------------------------------------- *)

let all_faults c = Stuck_at.collapse c (Stuck_at.universe c)

let test_podem_c17_complete () =
  let c = Benchmarks.c17 () in
  Array.iter
    (fun f ->
      match Podem.generate c f with
      | Podem.Test v ->
          Alcotest.(check bool)
            (Stuck_at.to_string c f)
            true
            (Fault_sim.detects_fault c f v)
      | Podem.Untestable | Podem.Aborted ->
          Alcotest.failf "c17 fault %s should be testable" (Stuck_at.to_string c f))
    (all_faults c)

let test_podem_benchmarks_verified () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let scoap = Scoap.compute c in
      Array.iter
        (fun f ->
          match Podem.generate ~scoap c f with
          | Podem.Test v ->
              Alcotest.(check bool) "verified" true (Fault_sim.detects_fault c f v)
          | Podem.Untestable | Podem.Aborted -> ())
        (all_faults c))
    [ "add8"; "mux3"; "dec4"; "par16" ]

let test_podem_redundant_fault () =
  (* o = OR(a, AND(a, b)): the AND gate is redundant logic; its SA0 output
     fault cannot be observed (absorption). *)
  let b = Circuit.Builder.create ~title:"red" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "m" Gate.And [ "a"; "b" ];
  Circuit.Builder.add_gate b "o" Gate.Or [ "a"; "m" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Circuit.find c "m" in
  let f = { Stuck_at.site = Stuck_at.Stem m; polarity = Stuck_at.Sa0 } in
  (match Podem.generate c f with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "absorbed fault reported testable"
  | Podem.Aborted -> Alcotest.fail "trivial search aborted");
  (* sanity: its SA1 counterpart is testable (a=0, b=1) *)
  match Podem.generate c { f with polarity = Stuck_at.Sa1 } with
  | Podem.Test v -> Alcotest.(check bool) "sa1 verified" true (Fault_sim.detects_fault c { f with polarity = Stuck_at.Sa1 } v)
  | _ -> Alcotest.fail "sa1 should be testable"

let test_podem_constant_pi_fault () =
  (* fault on an unobservable PI of constant logic: a XOR a is not
     constructible (duplicate inputs are legal in the builder), so use
     masking: o = AND(a, NOT a) = 0; the PI faults are untestable. *)
  let b = Circuit.Builder.create ~title:"const" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b "an" Gate.Not [ "a" ];
  Circuit.Builder.add_gate b "o" Gate.And [ "a"; "an" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let a = Circuit.find c "a" in
  List.iter
    (fun pol ->
      match Podem.generate c { Stuck_at.site = Stuck_at.Stem a; polarity = pol } with
      | Podem.Untestable -> ()
      | _ -> Alcotest.fail "constant-0 cone fault should be untestable")
    [ Stuck_at.Sa0; Stuck_at.Sa1 ]

(* --- compiled PODEM vs Podem.Reference ------------------------------------------ *)

let bits v = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Podem.Test v -> "test " ^ bits v
        | Podem.Untestable -> "untestable"
        | Podem.Aborted -> "aborted"))
    ( = )

(* One compiled context for every fault, as in a flow. *)
let check_against_reference label c faults =
  let scoap = Scoap.compute c in
  let ctx = Podem.compile ~scoap c in
  Array.iter
    (fun f ->
      Alcotest.check outcome
        (label ^ " " ^ Stuck_at.to_string c f)
        (Podem.Reference.generate ~scoap c f)
        (Podem.run ctx f))
    faults

let test_compiled_matches_reference () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      check_against_reference name c (all_faults c))
    [ "c17"; "c432s_small" ]

let test_compiled_matches_reference_c499s () =
  let c = Transform.decompose_for_cells (Benchmarks.c499s ()) in
  let remaining =
    (Random_gen.run ~seed:7 ~max_vectors:64 c ~faults:(all_faults c)).remaining
  in
  Alcotest.(check bool) "random phase leaves faults" true (Array.length remaining > 0);
  check_against_reference "c499s" c remaining

(* A tiny backtrack limit makes searches abort, so the randomized restarts
   (bernoulli then choose over the X pins) must draw identically too. *)
let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled PODEM = reference, low backtrack limit" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let c =
        Generator.random ~seed ~inputs:(4 + (seed mod 5)) ~outputs:(1 + (seed mod 3))
          ~profile:
            [ (Gate.Nand, 6); (Gate.Nor, 4); (Gate.And, 3); (Gate.Or, 3);
              (Gate.Not, 3); (Gate.Xor, 2); (Gate.Xnor, 1); (Gate.Buf, 1) ]
          ()
      in
      let scoap = Scoap.compute c in
      let ctx = Podem.compile ~scoap c in
      Array.for_all
        (fun f ->
          List.for_all
            (fun backtrack_limit ->
              Podem.run ~backtrack_limit ~restarts:3 ctx f
              = Podem.Reference.generate ~backtrack_limit ~restarts:3 ~scoap c f)
            [ 0; 2; 10_000 ])
        (Stuck_at.universe c))

(* c17: the n11 -> n16 branch stuck at 1.  With n3 = n6 = 1, n11 = 0 and the
   branch fault turns n16 from 1 to 0; n2 = 1 lets it through n16, and
   n10 = 1 (n1 = 0) carries it to n22.  n7 is a don't-care, filled with 0. *)
let test_podem_branch_fault_vector () =
  let c = Benchmarks.c17 () in
  let f =
    { Stuck_at.site = Stuck_at.Branch { gate = Circuit.find c "n16"; pin = 1 };
      polarity = Stuck_at.Sa1 }
  in
  Alcotest.check outcome "n16.in1 SA1"
    (Podem.Test [| false; true; true; true; false |])
    (Podem.generate c f)

(* c17: PI n3 stuck at 0.  n1 = n3 = 1 excites it at n10 (0 vs 1), and
   n2 = 0 makes n16 = 1 so n22 observes it. *)
let test_podem_pi_stem_fault_vector () =
  let c = Benchmarks.c17 () in
  let f = { Stuck_at.site = Stuck_at.Stem (Circuit.find c "n3"); polarity = Stuck_at.Sa0 } in
  Alcotest.check outcome "n3 SA0"
    (Podem.Test [| true; false; true; true; true |])
    (Podem.generate c f)

(* --- Random phase & full flow ----------------------------------------------------- *)

let test_random_gen_detects () =
  let c = Benchmarks.c17 () in
  let faults = all_faults c in
  let r = Random_gen.run ~seed:3 ~max_vectors:256 c ~faults in
  Alcotest.(check int) "all detected" (Array.length faults) r.detected;
  Alcotest.(check int) "none remaining" 0 (Array.length r.remaining)

let test_random_gen_respects_budget () =
  let c = Benchmarks.c432s () in
  let faults = all_faults c in
  let r = Random_gen.run ~seed:3 ~max_vectors:128 ~stale_limit:1_000_000 c ~faults in
  Alcotest.(check int) "budget" 128 (Array.length r.vectors)

let test_full_flow_complete_coverage () =
  List.iter
    (fun name ->
      let c = Option.get (Benchmarks.by_name name) in
      let r, faults = Atpg.full_flow ~seed:11 ~max_random:512 c in
      (* coverage counts only untestable/aborted as undetected *)
      let expected =
        float_of_int (Array.length faults - r.stats.untestable - r.stats.aborted)
        /. float_of_int (Array.length faults)
      in
      Alcotest.(check (float 1e-9)) (name ^ " coverage") expected r.coverage;
      (* the vector set actually achieves that coverage in simulation *)
      let sim = Fault_sim.run c ~faults ~vectors:r.vectors in
      Alcotest.(check int)
        (name ^ " detected matches")
        (Array.length faults - r.stats.untestable - r.stats.aborted)
        (Fault_sim.detected_count sim))
    [ "c17"; "add8"; "mux3"; "c432s_small" ]

let test_flow_vector_order () =
  (* deterministic vectors come after the random prefix *)
  let c = Option.get (Benchmarks.by_name "c432s_small") in
  let r, _ = Atpg.full_flow ~seed:5 ~max_random:64 c in
  Alcotest.(check int) "total"
    (r.stats.random_vectors + r.stats.deterministic_vectors)
    (Array.length r.vectors)

(* The flow of [Atpg.run], restated over [Podem.Reference]: the compiled
   engine must leave every output of the flow unchanged. *)
let reference_flow ~seed ~max_random c ~faults =
  let random = Random_gen.run ~seed ~max_vectors:max_random c ~faults in
  let scoap = Scoap.compute c in
  let rec loop pending vectors untestable aborted detected =
    match pending with
    | [] -> (List.rev vectors, List.rev untestable, List.rev aborted, detected)
    | target :: rest -> (
        match Podem.Reference.generate ~scoap c target with
        | Podem.Untestable -> loop rest vectors (target :: untestable) aborted detected
        | Podem.Aborted -> loop rest vectors untestable (target :: aborted) detected
        | Podem.Test v ->
            let r =
              Fault_sim.run c ~faults:(Array.of_list (target :: rest)) ~vectors:[| v |]
            in
            let kept = List.filteri (fun i _ -> r.first_detection.(i + 1) = None) rest in
            loop kept (v :: vectors) untestable aborted
              (detected + Fault_sim.detected_count r))
  in
  let det, untestable, aborted, det_detected =
    loop (Array.to_list random.remaining) [] [] [] 0
  in
  ( Array.append random.vectors (Array.of_list det),
    { Atpg.total_faults = Array.length faults;
      random_detected = random.detected;
      deterministic_detected = det_detected;
      untestable = List.length untestable;
      aborted = List.length aborted;
      random_vectors = Array.length random.vectors;
      deterministic_vectors = List.length det },
    Array.of_list untestable,
    Array.of_list aborted )

let test_flow_matches_reference_flow () =
  let c = Option.get (Benchmarks.by_name "c432s_small") in
  let r, faults = Atpg.full_flow ~seed:5 ~max_random:64 c in
  let vectors, stats, untestable, aborted =
    reference_flow ~seed:5 ~max_random:64 c ~faults
  in
  Alcotest.(check bool) "PODEM ran" true (stats.deterministic_vectors > 0);
  Alcotest.(check bool) "vectors" true (r.vectors = vectors);
  Alcotest.(check bool) "stats" true (r.stats = stats);
  Alcotest.(check bool) "untestable faults" true (r.untestable_faults = untestable);
  Alcotest.(check bool) "aborted faults" true (r.aborted_faults = aborted)

(* Every fault counted as aborted is listed, on every registered benchmark;
   a small backtrack limit makes the hard ones abort. *)
let test_aborted_count_matches_list () =
  List.iter
    (fun (name, make) ->
      let c = make () in
      let r = Atpg.run ~max_random:64 ~backtrack_limit:20 c ~faults:(all_faults c) in
      Alcotest.(check int) (name ^ " aborted") r.stats.aborted
        (Array.length r.aborted_faults);
      Alcotest.(check int) (name ^ " untestable") r.stats.untestable
        (Array.length r.untestable_faults))
    Benchmarks.all

let () =
  Alcotest.run "dl_atpg"
    [
      ( "scoap",
        [
          Alcotest.test_case "inputs cost 1" `Quick test_scoap_inputs_cost_one;
          Alcotest.test_case "nand costs" `Quick test_scoap_nand_costs;
          Alcotest.test_case "xor costs" `Quick test_scoap_xor_costs;
          Alcotest.test_case "observability" `Quick test_scoap_observability;
          Alcotest.test_case "depth monotone" `Quick test_scoap_depth_monotone;
          Alcotest.test_case "hardest faults" `Quick test_hardest_faults;
        ] );
      ( "podem",
        [
          Alcotest.test_case "c17 complete" `Quick test_podem_c17_complete;
          Alcotest.test_case "benchmarks verified" `Slow test_podem_benchmarks_verified;
          Alcotest.test_case "redundant fault proved" `Quick test_podem_redundant_fault;
          Alcotest.test_case "constant cone untestable" `Quick test_podem_constant_pi_fault;
          Alcotest.test_case "branch fault vector" `Quick test_podem_branch_fault_vector;
          Alcotest.test_case "PI stem fault vector" `Quick test_podem_pi_stem_fault_vector;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "c17, c432s_small = reference" `Slow
            test_compiled_matches_reference;
          Alcotest.test_case "c499s remaining = reference" `Slow
            test_compiled_matches_reference_c499s;
          QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
        ] );
      ( "flow",
        [
          Alcotest.test_case "random phase detects" `Quick test_random_gen_detects;
          Alcotest.test_case "random budget" `Quick test_random_gen_respects_budget;
          Alcotest.test_case "full flow coverage" `Slow test_full_flow_complete_coverage;
          Alcotest.test_case "vector ordering" `Quick test_flow_vector_order;
          Alcotest.test_case "flow = reference flow" `Slow test_flow_matches_reference_flow;
          Alcotest.test_case "aborted listed" `Slow test_aborted_count_matches_list;
        ] );
    ]
