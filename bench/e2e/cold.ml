(* cold-pipeline: an uncached [Experiment.run] of c432s_small, the paper's
   priority-controller circuit cut to three of c432s's nine slices.

   One operation takes under a second, so a run times dozens of them.  A
   full c432s pipeline takes 18-29 s: one sample per run, and its time
   follows the shared host's speed during those seconds (see README.md).
   The ATPG seed is fixed, because the switch-level work (region solves)
   varies by ±20% with it; the run seed draws the target yield, which
   changes the projection and no simulation.

   The traced run repeats the pipeline as the sequence of public calls
   [Experiment.run] makes, with a span around each, and runs [Swift.run]
   once per realistic-fault class so the switch-level time splits by
   class.  Faults are simulated independently, so the union of the
   per-class detections must equal the untraced run's bit for bit. *)

open Harness
module Experiment = Dl_core.Experiment
module Coverage = Dl_fault.Coverage
module Swift = Dl_switch.Swift
module Realistic = Dl_switch.Realistic

let atpg_seed = 7

(* Set-up builds the config and warms the process with one c17 pipeline,
   so first-use costs do not land in the timed phase. *)
let config ctx =
  ignore (Experiment.run (Experiment.config (Dl_netlist.Benchmarks.c17 ())));
  let c =
    if ctx.smoke then Dl_netlist.Benchmarks.c17 ()
    else Dl_netlist.Benchmarks.c432s_small ()
  in
  let target_yield = Dl_util.Rng.float_in (rng ctx "yield") 0.55 0.95 in
  Experiment.config ~seed:atpg_seed ~max_random_vectors:16 ~target_yield c

(* Invariants that hold for every seed. *)
let check_experiment (e : Experiment.t) =
  let n = Array.length e.vectors in
  let monotone = ref true in
  for k = 1 to n do
    if Coverage.at e.theta_curve k < Coverage.at e.theta_curve (k - 1) then
      monotone := false
  done;
  expect "Θ(k) is monotone" !monotone;
  let { Dl_core.Projection.r; theta_max } = e.fit.params in
  expect (Printf.sprintf "0 < θmax <= 1 (θmax = %h)" theta_max)
    (theta_max > 0.0 && theta_max <= 1.0);
  expect (Printf.sprintf "R finite and > 0 (R = %h)" r)
    (Float.is_finite r && r > 0.0);
  let dl = Experiment.defect_level_at e n in
  expect (Printf.sprintf "DL in [0, 1] (DL = %h)" dl) (dl >= 0.0 && dl <= 1.0)

let t_staircase (e : Experiment.t) =
  digest
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (k, c) -> Printf.sprintf "%d:%h" k c)
             (Coverage.detections_in_order e.t_curve))))

let swift_detections (d : Swift.detection array) =
  let f = function Some k -> k | None -> -1 in
  digest_ints
    (Array.concat
       (Array.to_list
          (Array.map (fun (x : Swift.detection) -> [| f x.voltage; f x.iddq |]) d)))

let goldens ctx (e : Experiment.t) =
  let n = Array.length e.vectors in
  golden ctx "atpg.vectors" (digest_vectors e.vectors);
  golden ctx "fault.t_curve" (t_staircase e);
  golden ctx "switch.detection" (swift_detections e.swift_result.detection);
  golden ctx "fit.r" (hex e.fit.params.r);
  golden ctx "fit.theta_max" (hex e.fit.params.theta_max);
  golden ctx "dl.final" (hex (Experiment.defect_level_at e n))

let run ctx =
  let cfg, setup_s = repeated_setup ctx (fun _ -> config ctx) in
  let last = ref None in
  let latencies_ms, wall_s =
    timed ~min_ops:1 ~max_ops:(if ctx.smoke then 1 else max_int)
      ~seconds:ctx.seconds (fun _ ->
        let e = Experiment.run cfg in
        check_experiment e;
        last := Some e)
  in
  Option.iter (goldens ctx) !last;
  e2e ~setup_s ~latencies_ms ~wall_s ()

(* ------------------------------------------------------------ traced *)

let classes =
  [ ("switch.bridge", function Realistic.Bridge _ -> true | _ -> false);
    ("switch.stuck_open",
     function Realistic.Transistor_stuck_open _ -> true | _ -> false);
    ("switch.stuck_on",
     function Realistic.Transistor_stuck_on _ -> true | _ -> false);
    ("switch.net_open",
     function
     | Realistic.Input_open _ | Realistic.Stem_open _ -> true | _ -> false) ]

(* The curves [Experiment.run] derives from the stuck-at first detections
   and the swift detections, with the weights scaled to the target yield. *)
type curves = {
  t : Coverage.t;
  theta : Coverage.t;
  gamma : Coverage.t;
  theta_iddq : Coverage.t;
  scale : float;
}

let curves ~target_yield ~first_detection ~(faults : Realistic.t array)
    (detection : Swift.detection array) =
  let scaled, scale =
    Dl_core.Weighted.scale_to_yield
      ~weights:(Array.map (fun (f : Realistic.t) -> f.weight) faults)
      ~target_yield
  in
  let volt = Array.map (fun (d : Swift.detection) -> d.voltage) detection in
  let earliest (d : Swift.detection) =
    match (d.voltage, d.iddq) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as x), None | None, (Some _ as x) -> x
    | None, None -> None
  in
  {
    t = Coverage.make first_detection;
    theta = Coverage.make ~weights:scaled volt;
    gamma = Coverage.make volt;
    theta_iddq = Coverage.make ~weights:scaled (Array.map earliest detection);
    scale;
  }

(* The eq. 9 fit at [Experiment]'s default sampling of [n] vectors. *)
let fit ~n cv =
  Coverage.log_spaced ~max:n ~points:100
  |> Array.map (fun k -> (Coverage.at cv.t k, Coverage.at cv.theta k))
  |> Dl_core.Projection.fit_theta

(* [Experiment.run]'s uncached path, one span per public call. *)
let traced_pipeline recorder (cfg : Experiment.config) =
  let sp name f = Span.with_span recorder name f in
  let c =
    sp "netlist.decompose" (fun () ->
        Dl_netlist.Transform.decompose_for_cells cfg.circuit)
  in
  let atpg, _ =
    sp "atpg.full_flow" (fun () ->
        Dl_atpg.Atpg.full_flow ~seed:cfg.seed
          ~max_random:cfg.max_random_vectors c)
  in
  let vectors = atpg.vectors in
  let stuck =
    sp "fault.universe" (fun () ->
        Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c)
        |> Array.to_list
        |> List.filter (fun f ->
               not (Array.exists (Dl_fault.Stuck_at.equal f)
                      atpg.untestable_faults))
        |> Array.of_list)
  in
  let sim =
    sp "fault.sim" (fun () ->
        Dl_fault.Fault_sim.run_parallel_with ~engine:cfg.sim_engine
          ~domains:cfg.domains c ~faults:stuck ~vectors)
  in
  let mapping = sp "cell.flatten" (fun () -> Dl_cell.Mapping.flatten c) in
  let layout =
    sp "layout.synthesize" (fun () ->
        Dl_layout.Layout.synthesize ?rows:cfg.rows mapping)
  in
  let ext =
    sp "extract.ifa" (fun () ->
        Dl_extract.Ifa.extract ~stats:cfg.stats
          ~min_weight_ratio:cfg.min_weight_ratio layout)
  in
  let faults = ext.faults in
  let net = sp "switch.network" (fun () -> Dl_switch.Network.build mapping) in
  let detection = Array.make (Array.length faults) { Swift.voltage = None; iddq = None } in
  let solves = ref 0 in
  sp "switch.swift" (fun () ->
      List.iter
        (fun (name, member) ->
          let idx =
            List.filter (fun i -> member faults.(i).Realistic.kind)
              (List.init (Array.length faults) Fun.id)
            |> Array.of_list
          in
          let r =
            sp name (fun () ->
                Swift.run net ~faults:(Array.map (Array.get faults) idx)
                  ~vectors)
          in
          solves := !solves + r.region_solves;
          Array.iteri (fun j i -> detection.(i) <- r.detection.(j)) idx)
        classes);
  let cv =
    sp "core.coverage" (fun () ->
        curves ~target_yield:cfg.target_yield
          ~first_detection:sim.first_detection ~faults detection)
  in
  let fit = sp "core.fit" (fun () -> fit ~n:(Array.length vectors) cv) in
  (atpg, sim, ext, detection, !solves, fit)

(* Operations per phase of the traced run: fixed, so its counts repeat. *)
let traced_ops ctx = if ctx.smoke then 1 else 12

let run_traced ctx =
  let cfg, setup_s = repeated_setup ctx (fun _ -> config ctx) in
  let ops = traced_ops ctx in
  let e = ref None in
  let untraced, _ =
    timed ~min_ops:ops ~max_ops:ops ~seconds:infinity (fun _ ->
        e := Some (Experiment.run cfg))
  in
  let e = Option.get !e in
  let rec_ = Span.create () in
  let gc0 = gc_now () in
  let last = ref None in
  let traced_ms, traced_wall_s =
    timed ~min_ops:ops ~max_ops:ops ~seconds:infinity (fun _ ->
        let ((_, _, _, detection, solves, fit) as r) = traced_pipeline rec_ cfg in
        expect "per-class swift detections = untraced detections"
          (detection = e.swift_result.detection);
        expect "per-class region solves = untraced region solves"
          (solves = e.swift_result.region_solves);
        expect "traced fit = untraced fit" (fit.params = e.fit.params);
        last := Some r)
  in
  let gc = gc_metrics ~since:gc0 ~ops in
  let atpg, sim, ext, _, solves, _ = Option.get !last in
  let s = span_seconds [ rec_ ] ~ops in
  let st = sim.stats in
  let swift_s = s "switch.swift" in
  let gate_evals = float_of_int sim.gate_evaluations in
  traced ~setup_s ~untraced ~traced:traced_ms ~traced_wall_s ~spans:[ rec_ ]
    ([
       ("switch.network_s", s "switch.network");
       ("switch.swift_s", swift_s);
       ("switch.bridge_s", s "switch.bridge");
       ("switch.stuck_open_s", s "switch.stuck_open");
       ("switch.stuck_on_s", s "switch.stuck_on");
       ("switch.net_open_s", s "switch.net_open");
       ("switch.region_solves", float_of_int solves);
       ("switch.us_per_solve", swift_s *. 1e6 /. float_of_int (max 1 solves));
       ("atpg.full_flow_s", s "atpg.full_flow");
       ("atpg.deterministic_vectors", float_of_int atpg.stats.deterministic_vectors);
       ("atpg.untestable", float_of_int atpg.stats.untestable);
       ("fault.universe_s", s "fault.universe");
       ("fault.sim_s", s "fault.sim");
       ("fault.gate_evals", gate_evals);
       ("fault.ns_per_gate_eval", s "fault.sim" *. 1e9 /. Float.max 1.0 gate_evals);
       ("fault.faults_simulated", float_of_int st.faults_simulated);
       ("fault.faults_inferred", float_of_int st.faults_inferred);
       ("fault.stem_simulations", float_of_int st.stem_simulations);
       ("fault.detected_ratio", Dl_fault.Fault_sim.coverage sim);
       ("netlist.decompose_s", s "netlist.decompose");
       ("cell.flatten_s", s "cell.flatten");
       ("layout.synthesize_s", s "layout.synthesize");
       ("extract.ifa_s", s "extract.ifa");
       ("extract.faults", float_of_int (Array.length ext.faults));
       ("core.coverage_s", s "core.coverage");
       ("core.fit_s", s "core.fit");
     ]
    @ gc)
