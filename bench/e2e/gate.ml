(* gate-level: ATPG and PPSFP grading, nothing at switch level or layout.

   One operation is (a) [Atpg.full_flow] on decomposed c499s with a
   64-vector random phase, so PODEM generates about 90 vectors, then (b)
   grading a generated 3000-gate vlsi-flat design with 512 seed-drawn
   random vectors: collapse the stuck-at universe, simulate in drop mode,
   then profile 4-detection with [run_ndet].  The engine is the one
   [Experiment.config] picks by default, so the benchmark follows the
   production choice.  The two halves take about the same time, and one
   operation under a second.

   Only the graded vectors vary with the seed.  ATPG time swings by an
   order of magnitude with the ATPG seed (PODEM's cost depends on which
   faults the random phase leaves), and generated designs differ in how many
   faults random vectors leave undetected; either would drown any code
   change.  Simulation runs serially: two domains on a shared two-core host
   doubled the run-to-run spread. *)

open Harness
module Fault_sim = Dl_fault.Fault_sim
module Stuck_at = Dl_fault.Stuck_at

type input = {
  atpg_circuit : Dl_netlist.Circuit.t;
  graded : Dl_netlist.Circuit.t;
  vectors : bool array array;
  engine : Fault_sim.engine;
}

let n_detect = 4
let fixed_seed = 7

let setup ctx =
  let atpg_circuit =
    if ctx.smoke then Dl_netlist.Benchmarks.c17 ()
    else Dl_netlist.Benchmarks.c499s ()
  in
  let graded =
    Dl_netlist.Generator.Family.build_by_name "vlsi-flat" ~seed:fixed_seed
      ~gates:(if ctx.smoke then 200 else 3000)
  in
  let rng = rng ctx "vectors" in
  let width = Dl_netlist.Circuit.input_count graded in
  let vectors =
    Array.init 512 (fun _ -> Array.init width (fun _ -> Dl_util.Rng.bool rng))
  in
  { atpg_circuit; graded; vectors;
    engine = (Dl_core.Experiment.config graded).sim_engine }

type output = {
  atpg : Dl_atpg.Atpg.result;
  sim : Fault_sim.result;
  ndet : Fault_sim.ndet;
}

(* With a recorder (the traced run), each public call gets a span. *)
let operation ?recorder inp =
  let sp name f =
    match recorder with None -> f () | Some r -> Span.with_span r name f
  in
  let c =
    sp "netlist.decompose" (fun () ->
        Dl_netlist.Transform.decompose_for_cells inp.atpg_circuit)
  in
  let atpg, _ =
    sp "atpg.full_flow" (fun () ->
        Dl_atpg.Atpg.full_flow ~seed:fixed_seed ~max_random:64 c)
  in
  let g = inp.graded in
  let faults =
    sp "fault.universe" (fun () -> Stuck_at.collapse g (Stuck_at.universe g))
  in
  let sim =
    sp "fault.sim" (fun () ->
        Fault_sim.run_with ~engine:inp.engine ~drop_detected:true g ~faults
          ~vectors:inp.vectors)
  in
  let ndet =
    sp "fault.ndet" (fun () ->
        Fault_sim.run_ndet ~engine:inp.engine ~drop_after:n_detect g ~faults
          ~vectors:inp.vectors)
  in
  { atpg; sim; ndet }

let check out =
  let a = out.atpg in
  expect "ATPG coverage in [0, 1]" (a.coverage >= 0.0 && a.coverage <= 1.0);
  expect "ATPG vectors = random + deterministic"
    (Array.length a.vectors
    = a.stats.random_vectors + a.stats.deterministic_vectors);
  let firsts = out.sim.first_detection in
  expect "run_ndet first detections = drop-mode first detections"
    (Fault_sim.ndet_first_detection out.ndet = firsts);
  expect "ndet counts within [0, n] and > 0 exactly when detected"
    (Array.for_all2
       (fun n f -> n >= 0 && n <= n_detect && (n > 0) = (f <> None))
       out.ndet.counts firsts)

let goldens ctx out =
  golden ctx "atpg.vectors" (digest_vectors out.atpg.vectors);
  golden ctx "atpg.untestable" (string_of_int out.atpg.stats.untestable);
  golden ctx "fault.first_detection" (digest_firsts out.sim.first_detection);
  golden ctx "fault.ndet_counts" (digest_ints out.ndet.counts);
  golden ctx "fault.ndet_detections" (digest_ints out.ndet.detections)

let run ctx =
  let inp, setup_s = repeated_setup ctx (fun _ -> setup ctx) in
  let last = ref None in
  let latencies_ms, wall_s =
    timed ~min_ops:1 ~max_ops:(if ctx.smoke then 1 else max_int)
      ~seconds:ctx.seconds (fun _ ->
        let out = operation inp in
        check out;
        last := Some out)
  in
  Option.iter (goldens ctx) !last;
  e2e ~setup_s ~latencies_ms ~wall_s ()

(* Operations per phase of the traced run: fixed, so its counts repeat. *)
let traced_ops ctx = if ctx.smoke then 1 else 16

let run_traced ctx =
  let inp, setup_s = repeated_setup ctx (fun _ -> setup ctx) in
  let ops = traced_ops ctx in
  let untraced_out = ref None in
  let untraced, _ =
    timed ~min_ops:ops ~max_ops:ops ~seconds:infinity (fun _ ->
        untraced_out := Some (operation inp))
  in
  let untraced_out = Option.get !untraced_out in
  let rec_ = Span.create () in
  let gc0 = gc_now () in
  let last = ref None in
  let traced_ms, traced_wall_s =
    timed ~min_ops:ops ~max_ops:ops ~seconds:infinity (fun _ ->
        let out = operation ~recorder:rec_ inp in
        check out;
        expect "traced detections = untraced detections"
          (out.sim.first_detection = untraced_out.sim.first_detection
          && out.ndet.detections = untraced_out.ndet.detections);
        last := Some out)
  in
  let gc = gc_metrics ~since:gc0 ~ops in
  let out = Option.get !last in
  let s = span_seconds [ rec_ ] ~ops in
  let st = out.sim.stats in
  let gate_evals = float_of_int out.sim.gate_evaluations in
  traced ~setup_s ~untraced ~traced:traced_ms ~traced_wall_s ~spans:[ rec_ ]
    ([
       ("atpg.full_flow_s", s "atpg.full_flow");
       ( "atpg.deterministic_vectors",
         float_of_int out.atpg.stats.deterministic_vectors );
       ("atpg.untestable", float_of_int out.atpg.stats.untestable);
       ("fault.universe_s", s "fault.universe");
       ("fault.sim_s", s "fault.sim");
       ("fault.gate_evals", gate_evals);
       ("fault.ns_per_gate_eval", s "fault.sim" *. 1e9 /. Float.max 1.0 gate_evals);
       ("fault.faults_simulated", float_of_int st.faults_simulated);
       ("fault.faults_inferred", float_of_int st.faults_inferred);
       ("fault.stem_simulations", float_of_int st.stem_simulations);
       ("fault.detected_ratio", Fault_sim.coverage out.sim);
       ("fault.ndet_s", s "fault.ndet");
       ("fault.ndet_gate_evals", float_of_int out.ndet.gate_evaluations);
       ("netlist.decompose_s", s "netlist.decompose");
     ]
    @ gc)
