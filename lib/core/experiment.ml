open Dl_netlist
module Coverage = Dl_fault.Coverage
module Ifa = Dl_extract.Ifa
module Realistic = Dl_switch.Realistic
module Swift = Dl_switch.Swift
module Stage = Dl_store.Stage
module Artifact = Dl_store.Artifact

type mc = {
  mc_dies : int;
  mc_dies_per_wafer : int;
  mc_wafers_per_lot : int;
  mc_alpha_wafer : float;
  mc_alpha_lot : float;
  mc_points : int;
}

let mc ?(dies_per_wafer = 256) ?(wafers_per_lot = 4) ?(alpha_wafer = infinity)
    ?(alpha_lot = infinity) ?(points = 25) ~dies () =
  if dies <= 0 then invalid_arg "Experiment.mc: dies must be positive";
  if dies_per_wafer <= 0 then
    invalid_arg "Experiment.mc: dies_per_wafer must be positive";
  if wafers_per_lot <= 0 then
    invalid_arg "Experiment.mc: wafers_per_lot must be positive";
  if Float.is_nan alpha_wafer || alpha_wafer <= 0.0 then
    invalid_arg "Experiment.mc: alpha_wafer must be positive";
  if Float.is_nan alpha_lot || alpha_lot <= 0.0 then
    invalid_arg "Experiment.mc: alpha_lot must be positive";
  if points < 1 then invalid_arg "Experiment.mc: points must be >= 1";
  {
    mc_dies = dies;
    mc_dies_per_wafer = dies_per_wafer;
    mc_wafers_per_lot = wafers_per_lot;
    mc_alpha_wafer = alpha_wafer;
    mc_alpha_lot = alpha_lot;
    mc_points = points;
  }

type config = {
  circuit : Circuit.t;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
  stats : Dl_extract.Defect_stats.t;
  min_weight_ratio : float;
  rows : int option;
  domains : int;
  pool : Dl_util.Parallel.t option;
  collapse_faults : bool;
  sim_engine : Dl_fault.Fault_sim.engine;
  cache_dir : string option;
  remote : Stage.remote option;
  mc : mc option;
  bootstrap : int option;
  ndet : int option;
}

let config ?(seed = 7) ?(max_random_vectors = 4096) ?(target_yield = 0.75)
    ?(stats = Dl_extract.Defect_stats.default) ?(min_weight_ratio = 0.0) ?rows
    ?(domains = Dl_util.Parallel.default_domains ()) ?pool
    ?(collapse_faults = true) ?(sim_engine = Dl_fault.Fault_sim.Wide)
    ?cache_dir ?remote ?mc ?bootstrap ?ndet circuit =
  if not (target_yield > 0.0 && target_yield < 1.0) then
    invalid_arg "Experiment.config: target yield must be in (0, 1)";
  if domains < 1 then invalid_arg "Experiment.config: domains must be >= 1";
  (match bootstrap with
  | Some k when k <= 0 ->
      invalid_arg "Experiment.config: bootstrap replicates must be positive"
  | _ -> ());
  (match ndet with
  | Some n when n < 1 ->
      invalid_arg "Experiment.config: ndet quota must be >= 1"
  | _ -> ());
  { circuit; seed; max_random_vectors; target_yield; stats; min_weight_ratio;
    rows; domains; pool; collapse_faults; sim_engine; cache_dir; remote;
    mc; bootstrap; ndet }

(* The n-detection extension (PR: Dl_ndet).  [profile] is the multi-detect
   simulation of the SAME vector sequence the 1-detection flow applies, so
   its n = 1 slice is bit-identical to [t_curve]; [gen_*] is the separately
   generated n-detection test set ({!Dl_ndet.Atpg_n}). *)
type ndet_result = {
  ndet_n : int;
  profile : Dl_fault.Fault_sim.ndet;
  dl_n : Dl_n.t;
  gen_vectors : bool array array;
  gen_counts : int array;
  gen_stats : Dl_ndet.Atpg_n.stats;
}

type t = {
  cfg : config;
  mapped_circuit : Circuit.t;
  vectors : bool array array;
  atpg_stats : Dl_atpg.Atpg.stats;
  stuck_faults : Dl_fault.Stuck_at.t array;
  sim_stats : Dl_fault.Fault_sim.Stats.t;
  extraction : Ifa.extraction;
  scale_factor : float;
  yield : float;
  scaled_weights : float array;
  t_curve : Coverage.t;
  theta_curve : Coverage.t;
  gamma_curve : Coverage.t;
  theta_iddq_curve : Coverage.t;
  swift_result : Swift.result;
  fit : Projection.fit;
  wafer_mc : Wafer_mc.t option;
  bootstrap_fit : Bootstrap.t option;
  ndet : ndet_result option;
  summary : string;
  stage_reports : Stage.report list;
}

let fit_sample_points = 100

(* Per-stage config fingerprints, shared between [run] (which passes them
   to [Stage.run]) and [stage_keys] (which derives the same keys without
   running anything) so the two can never drift apart. *)
let atpg_config cfg =
  [
    ("seed", string_of_int cfg.seed);
    ("max_random_vectors", string_of_int cfg.max_random_vectors);
  ]

let universe_config cfg =
  [ ("collapse_faults", string_of_bool cfg.collapse_faults) ]

(* The engine is part of the fault-sim stage key even though detection
   results are engine-independent: the cached artifact carries per-engine
   [Stats] counters, so two engines must never alias one cache entry
   (PR 7 fixed exactly that aliasing). *)
let faultsim_config cfg =
  [ ("engine", Dl_fault.Fault_sim.engine_to_string cfg.sim_engine) ]

let ifa_config cfg =
  [
    ("defect_stats", Artifact.defect_stats_fingerprint cfg.stats);
    ("min_weight_ratio", Printf.sprintf "%h" cfg.min_weight_ratio);
    ("rows", match cfg.rows with None -> "auto" | Some r -> string_of_int r);
  ]

let projection_config cfg =
  [
    ("target_yield", Printf.sprintf "%h" cfg.target_yield);
    ("fit_points", string_of_int fit_sample_points);
  ]

(* The MC knobs fingerprint ONLY the wafer-mc stage (and the bootstrap
   count only bootstrap-fit): turning either on, or changing dies/alphas/
   replicates, must never invalidate a simulation artifact.  [cfg.seed]
   drives the Seeds streams of both stages but is deliberately absent
   here — it is already digested via the atpg input key. *)
let wafer_mc_config cfg m =
  [
    ("dies", string_of_int m.mc_dies);
    ("dies_per_wafer", string_of_int m.mc_dies_per_wafer);
    ("wafers_per_lot", string_of_int m.mc_wafers_per_lot);
    ("alpha_wafer", Printf.sprintf "%h" m.mc_alpha_wafer);
    ("alpha_lot", Printf.sprintf "%h" m.mc_alpha_lot);
    ("points", string_of_int m.mc_points);
    ("target_yield", Printf.sprintf "%h" cfg.target_yield);
  ]

let bootstrap_config cfg replicates =
  [
    ("replicates", string_of_int replicates);
    ("fit_points", string_of_int fit_sample_points);
    ("target_yield", Printf.sprintf "%h" cfg.target_yield);
  ]

(* Like fault-sim, the multi-detect profile keys on the engine: counts and
   detection indices are engine-independent, but the cached artifact
   carries per-engine [Stats] counters. *)
let ndet_sim_config cfg n =
  [
    ("n", string_of_int n);
    ("engine", Dl_fault.Fault_sim.engine_to_string cfg.sim_engine);
  ]

let ndet_atpg_config cfg n =
  [
    ("n", string_of_int n);
    ("seed", string_of_int cfg.seed);
    ("max_random_vectors", string_of_int cfg.max_random_vectors);
  ]

(* The stage keys are pure functions of the config: every stage's key
   digests only its name, codec kind/version, config fingerprint and the
   keys of its inputs, and the root of that DAG is the content key of the
   input circuit.  This is what lets a server coalesce identical requests
   before running anything — two configs with equal [request_key] denote
   bit-identical experiment results. *)
let stage_keys cfg =
  let circuit_key = Dl_store.Codec.content_key Artifact.circuit cfg.circuit in
  let mapping =
    Stage.key ~stage:"mapping" ~codec:Artifact.circuit ~config:[]
      ~inputs:[ circuit_key ]
  in
  let atpg =
    Stage.key ~stage:"atpg" ~codec:Artifact.atpg ~config:(atpg_config cfg)
      ~inputs:[ mapping ]
  in
  let universe =
    Stage.key ~stage:"fault-universe" ~codec:Artifact.stuck_faults
      ~config:(universe_config cfg) ~inputs:[ mapping; atpg ]
  in
  let faultsim =
    Stage.key ~stage:"fault-sim" ~codec:Artifact.detections
      ~config:(faultsim_config cfg)
      ~inputs:[ mapping; universe; atpg ]
  in
  let ifa =
    Stage.key ~stage:"layout-ifa" ~codec:Artifact.ifa ~config:(ifa_config cfg)
      ~inputs:[ mapping ]
  in
  let swift =
    Stage.key ~stage:"swift" ~codec:Artifact.swift ~config:[]
      ~inputs:[ mapping; ifa; atpg ]
  in
  let projection =
    Stage.key ~stage:"projection" ~codec:Artifact.summary
      ~config:(projection_config cfg)
      ~inputs:[ universe; faultsim; ifa; swift ]
  in
  let base =
    [
      ("mapping", mapping);
      ("atpg", atpg);
      ("fault-universe", universe);
      ("fault-sim", faultsim);
      ("layout-ifa", ifa);
      ("swift", swift);
      ("projection", projection);
    ]
  in
  let with_mc =
    match cfg.mc with
    | None -> base
    | Some m ->
        base
        @ [
            ( "wafer-mc",
              Stage.key ~stage:"wafer-mc" ~codec:Artifact.wafer_mc
                ~config:(wafer_mc_config cfg m)
                ~inputs:[ atpg; ifa; swift ] );
          ]
  in
  let with_bootstrap =
    match cfg.bootstrap with
    | None -> with_mc
    | Some k ->
        with_mc
        @ [
            ( "bootstrap-fit",
              Stage.key ~stage:"bootstrap-fit" ~codec:Artifact.bootstrap_fit
                ~config:(bootstrap_config cfg k)
                ~inputs:[ universe; faultsim; ifa; swift ] );
          ]
  in
  match cfg.ndet with
  | None -> with_bootstrap
  | Some n ->
      with_bootstrap
      @ [
          ( "ndet-sim",
            Stage.key ~stage:"ndet-sim" ~codec:Artifact.ndet_profile
              ~config:(ndet_sim_config cfg n)
              ~inputs:[ mapping; universe; atpg ] );
          ( "ndet-atpg",
            Stage.key ~stage:"ndet-atpg" ~codec:Artifact.ndet_atpg
              ~config:(ndet_atpg_config cfg n)
              ~inputs:[ mapping; universe ] );
        ]

let request_key cfg = List.assoc "projection" (stage_keys cfg)

(* --- stage bodies --------------------------------------------------------

   One function per [Stage.run] call, shared by [run] (the full pipeline)
   and [run_stage] (one stage plus its dependency closure — the unit of
   cluster fan-out) so the stage bodies and key derivations exist exactly
   once and cannot drift. *)

let graph_of_config cfg =
  let store = Option.map Dl_store.Store.open_ cfg.cache_dir in
  Stage.create ?store ?remote:cfg.remote ()

(* 1. Technology-map the netlist. *)
let stage_mapping graph cfg =
  let circuit_key = Dl_store.Codec.content_key Artifact.circuit cfg.circuit in
  Stage.run graph ~stage:"mapping" ~codec:Artifact.circuit
    ~inputs:[ circuit_key ]
    (fun () -> Transform.decompose_for_cells cfg.circuit)

(* 2. Test generation: random prefix then deterministic top-up. *)
let stage_atpg graph cfg ~c ~mapping_key =
  Stage.run graph ~stage:"atpg" ~codec:Artifact.atpg
    ~config:(atpg_config cfg) ~inputs:[ mapping_key ]
    (fun () ->
      let r, _ =
        Dl_atpg.Atpg.full_flow ~seed:cfg.seed
          ~max_random:cfg.max_random_vectors c
      in
      {
        Artifact.vectors = r.vectors;
        stats = r.stats;
        coverage = r.coverage;
        untestable_faults = r.untestable_faults;
        aborted_faults = r.aborted_faults;
      })

(* The paper neglects redundant stuck-at faults ("so that T(k) -> 1 when
   k -> infinity"); drop the PODEM-proven-redundant ones from the T
   denominator.  Aborted faults stay: they are potentially testable.

   ATPG always works on the collapsed universe ([full_flow] collapses),
   which is also what we simulate by default: one representative per
   equivalence class, every class weighing the same in T(k).  With
   [collapse_faults = false] the paper-faithful uncollapsed universe is
   simulated instead — every line fault counts individually, so a class
   with many equivalent members weighs proportionally more in the
   coverage denominator (the classical uncollapsed coverage definition).
   Final coverage is typically close but NOT identical between the two.
   A PODEM-proved-redundant representative proves its whole equivalence
   class redundant, so in uncollapsed mode the untestable filter expands
   each untestable representative to its full class. *)
let stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key =
  Stage.run graph ~stage:"fault-universe" ~codec:Artifact.stuck_faults
    ~config:(universe_config cfg) ~inputs:[ mapping_key; atpg_key ]
    (fun () ->
      let untestable = atpg_art.Artifact.untestable_faults in
      if cfg.collapse_faults then begin
        let all_stuck_faults =
          Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c)
        in
        Array.of_seq
          (Seq.filter
             (fun f ->
               not
                 (Array.exists
                    (fun u -> Dl_fault.Stuck_at.equal u f)
                    untestable))
             (Array.to_seq all_stuck_faults))
      end
      else begin
        let universe = Dl_fault.Stuck_at.universe c in
        let classes = Dl_fault.Stuck_at.equivalence_classes c universe in
        let untestable_members =
          classes |> Array.to_seq
          |> Seq.filter (fun cls ->
                 Array.exists
                   (fun u -> Dl_fault.Stuck_at.equal u cls.(0))
                   untestable)
          |> Seq.concat_map Array.to_seq
          |> List.of_seq
        in
        Array.of_seq
          (Seq.filter
             (fun f ->
               not
                 (List.exists (Dl_fault.Stuck_at.equal f) untestable_members))
             (Array.to_seq universe))
      end)

(* 3. Gate-level stuck-at fault simulation over the same sequence
   (parallel engine; bit-for-bit identical to the serial one, so the
   domain count is deliberately absent from the stage key). *)
let stage_faultsim graph cfg ~c ~stuck_faults ~vectors ~mapping_key
    ~universe_key ~atpg_key =
  Stage.run graph ~stage:"fault-sim" ~codec:Artifact.detections
    ~config:(faultsim_config cfg)
    ~inputs:[ mapping_key; universe_key; atpg_key ]
    (fun () ->
      let sim =
        Dl_fault.Fault_sim.run_parallel_with ~engine:cfg.sim_engine
          ~domains:cfg.domains ?pool:cfg.pool c ~faults:stuck_faults
          ~vectors
      in
      {
        Artifact.first_detection = sim.first_detection;
        vectors_applied = sim.vectors_applied;
        gate_evaluations = sim.gate_evaluations;
        sim_stats = sim.stats;
      })

(* 4. Layout synthesis and inductive fault analysis.  Mapping and layout
   are recomputed even on a warm run (they are deterministic, cheap and
   needed as live data structures); the geometry *scan* — the expensive
   part — is what the layout-ifa artifact caches. *)
let stage_ifa graph cfg ~layout ~mapping_key =
  Stage.run graph ~stage:"layout-ifa" ~codec:Artifact.ifa
    ~config:(ifa_config cfg) ~inputs:[ mapping_key ]
    (fun () ->
      let e =
        Ifa.extract ~stats:cfg.stats ~min_weight_ratio:cfg.min_weight_ratio
          layout
      in
      {
        Artifact.faults = e.faults;
        gross_weight = e.gross_weight;
        summaries = e.summaries;
      })

(* 6. Switch-level realistic fault simulation (sharded by region shape
   over the fault-simulation domains; its result does not depend on
   them either). *)
let stage_swift graph cfg ~mapping ~faults ~vectors ~mapping_key ~ifa_key
    ~atpg_key =
  Stage.run graph ~stage:"swift" ~codec:Artifact.swift
    ~inputs:[ mapping_key; ifa_key; atpg_key ]
    (fun () ->
      let network = Dl_switch.Network.build mapping in
      let r =
        Swift.run ~domains:cfg.domains ?pool:cfg.pool network ~faults ~vectors
      in
      {
        Artifact.detection = r.detection;
        vectors_applied = r.vectors_applied;
        region_solves = r.region_solves;
      })

(* 7/8. The statistical stages (PR: Monte-Carlo yield engine).  Both draw
   exclusively from path-keyed Seeds streams rooted at [cfg.seed], so the
   cached artifact is a pure function of its stage key. *)

let seeds_of cfg name = Dl_util.Seeds.scope (Dl_util.Seeds.create cfg.seed) name

let artifact_of_wafer_mc (t : Wafer_mc.t) : Artifact.wafer_mc =
  {
    Artifact.mc_dies = t.dies;
    mc_dies_per_wafer = t.dies_per_wafer;
    mc_wafers_per_lot = t.wafers_per_lot;
    mc_wafers = t.wafers;
    mc_lots = t.lots;
    mc_alpha_wafer = t.alpha_wafer;
    mc_alpha_lot = t.alpha_lot;
    mc_defective = t.defective;
    mc_bands =
      Array.map
        (fun (b : Wafer_mc.band) ->
          {
            Artifact.k = b.k;
            coverage = b.coverage;
            dl_point = b.dl_point;
            dl_q05 = b.dl_q05;
            dl_q50 = b.dl_q50;
            dl_q95 = b.dl_q95;
            passed = b.passed;
            defective_passed = b.defective_passed;
            wafer_dls = b.wafer_dls;
          })
        t.bands;
  }

let wafer_mc_of_artifact (a : Artifact.wafer_mc) : Wafer_mc.t =
  {
    Wafer_mc.dies = a.Artifact.mc_dies;
    dies_per_wafer = a.mc_dies_per_wafer;
    wafers_per_lot = a.mc_wafers_per_lot;
    wafers = a.mc_wafers;
    lots = a.mc_lots;
    alpha_wafer = a.mc_alpha_wafer;
    alpha_lot = a.mc_alpha_lot;
    defective = a.mc_defective;
    bands =
      Array.map
        (fun (b : Artifact.wafer_mc_band) ->
          {
            Wafer_mc.k = b.Artifact.k;
            coverage = b.coverage;
            dl_point = b.dl_point;
            dl_q05 = b.dl_q05;
            dl_q50 = b.dl_q50;
            dl_q95 = b.dl_q95;
            passed = b.passed;
            defective_passed = b.defective_passed;
            wafer_dls = b.wafer_dls;
          })
        a.mc_bands;
  }

let artifact_of_bootstrap (b : Bootstrap.t) : Artifact.bootstrap_fit =
  {
    Artifact.fit_points = b.fit_points;
    point_r = b.point.Projection.params.r;
    point_theta_max = b.point.Projection.params.theta_max;
    point_rmse = b.point.Projection.rmse;
    point_rmse_log10 = (b.point.Projection.rmse_scale = Projection.Log10);
    alpha_point = b.alpha_point;
    r_samples = b.r_samples;
    theta_max_samples = b.theta_max_samples;
    alpha_samples = b.alpha_samples;
  }

let bootstrap_of_artifact (a : Artifact.bootstrap_fit) : Bootstrap.t =
  Bootstrap.of_samples ~fit_points:a.Artifact.fit_points
    ~point:
      {
        Projection.params =
          { Projection.r = a.point_r; theta_max = a.point_theta_max };
        rmse = a.point_rmse;
        rmse_scale =
          (if a.point_rmse_log10 then Projection.Log10 else Projection.Linear);
      }
    ~alpha_point:a.alpha_point ~r_samples:a.r_samples
    ~theta_max_samples:a.theta_max_samples ~alpha_samples:a.alpha_samples

let stage_wafer_mc graph cfg m ~n_vectors ~scaled_weights ~voltage_firsts
    ~theta_curve ~atpg_key ~ifa_key ~swift_key =
  Stage.run graph ~stage:"wafer-mc" ~codec:Artifact.wafer_mc
    ~config:(wafer_mc_config cfg m)
    ~inputs:[ atpg_key; ifa_key; swift_key ]
    (fun () ->
      let ks = Coverage.log_spaced ~max:n_vectors ~points:m.mc_points in
      let points = Array.map (fun k -> (k, Coverage.at theta_curve k)) ks in
      artifact_of_wafer_mc
        (Wafer_mc.simulate ~dies_per_wafer:m.mc_dies_per_wafer
           ~wafers_per_lot:m.mc_wafers_per_lot ~alpha_wafer:m.mc_alpha_wafer
           ~alpha_lot:m.mc_alpha_lot
           ~seeds:(seeds_of cfg "wafer-mc")
           ~dies:m.mc_dies ~weights:scaled_weights ~firsts:voltage_firsts
           ~points ()))

let stage_bootstrap graph cfg replicates ~n_vectors ~t_firsts ~theta_firsts
    ~theta_weights ~universe_key ~faultsim_key ~ifa_key ~swift_key =
  Stage.run graph ~stage:"bootstrap-fit" ~codec:Artifact.bootstrap_fit
    ~config:(bootstrap_config cfg replicates)
    ~inputs:[ universe_key; faultsim_key; ifa_key; swift_key ]
    (fun () ->
      artifact_of_bootstrap
        (Bootstrap.run ~fit_points:fit_sample_points
           ~seeds:(seeds_of cfg "bootstrap-fit")
           ~replicates ~yield:cfg.target_yield ~t_firsts ~theta_firsts
           ~theta_weights ~n_vectors ()))

(* 9/10. n-detection (PR: Dl_ndet).  The ndet-sim stage profiles the SAME
   atpg vector sequence under a detection quota, so its n = 1 slice is
   bit-identical to fault-sim's first detections; ndet-atpg generates the
   registered n-detection test set. *)

let stage_ndet_sim graph cfg n ~c ~stuck_faults ~vectors ~mapping_key
    ~universe_key ~atpg_key =
  Stage.run graph ~stage:"ndet-sim" ~codec:Artifact.ndet_profile
    ~config:(ndet_sim_config cfg n)
    ~inputs:[ mapping_key; universe_key; atpg_key ]
    (fun () ->
      let nd =
        Dl_fault.Fault_sim.run_ndet ~engine:cfg.sim_engine
          ~domains:cfg.domains ?pool:cfg.pool ~drop_after:n c
          ~faults:stuck_faults ~vectors
      in
      {
        Artifact.nd_drop_after = nd.drop_after;
        nd_counts = nd.counts;
        nd_detections = nd.detections;
        nd_vectors_applied = nd.vectors_applied;
        nd_gate_evaluations = nd.gate_evaluations;
        nd_sim_stats = nd.stats;
      })

let profile_of_artifact ~stuck_faults (a : Artifact.ndet_profile) :
    Dl_fault.Fault_sim.ndet =
  {
    Dl_fault.Fault_sim.faults = stuck_faults;
    drop_after = a.Artifact.nd_drop_after;
    counts = a.nd_counts;
    detections = a.nd_detections;
    vectors_applied = a.nd_vectors_applied;
    gate_evaluations = a.nd_gate_evaluations;
    stats = a.nd_sim_stats;
  }

let stage_ndet_atpg graph cfg n ~c ~stuck_faults ~mapping_key ~universe_key =
  Stage.run graph ~stage:"ndet-atpg" ~codec:Artifact.ndet_atpg
    ~config:(ndet_atpg_config cfg n)
    ~inputs:[ mapping_key; universe_key ]
    (fun () ->
      let r =
        Dl_ndet.Atpg_n.run ~seed:cfg.seed ~max_random:cfg.max_random_vectors
          ~engine:cfg.sim_engine ~n c ~faults:stuck_faults
      in
      {
        Artifact.na_vectors = r.Dl_ndet.Atpg_n.vectors;
        na_counts = r.counts;
        na_stats = r.stats;
        na_untestable_faults = r.untestable_faults;
        na_aborted_faults = r.aborted_faults;
      })

(* The stage decomposition of the paper's flow.  Each stage's key digests
   its input artifact keys, its config fingerprint and its codec version,
   so a warm run re-executes only stages whose keys changed:

     netlist (content key of the input circuit)
       -> mapping        (cell decomposition)
       -> atpg           [seed, max_random_vectors]
       -> fault-universe [collapse_faults]
       -> fault-sim      (gate-level PPSFP; domains excluded: results are
                          bit-identical at any domain count)
       -> layout-ifa     [defect stats, min_weight_ratio, rows]
       -> swift          (switch-level realistic simulation)
       -> projection     [target_yield, fit points] (susceptibility fit +
                          summary; the only stage a yield change reruns)
       -> wafer-mc       [dies, wafer/lot shape, alphas, points, yield]
                          (optional; Monte-Carlo DL bands)
       -> bootstrap-fit  [replicates, fit points, yield]
                          (optional; CIs on (R, θmax) and alpha)
       -> ndet-sim       [n, engine] (optional; multi-detect profile of
                          the atpg sequence)
       -> ndet-atpg      [n, seed, max_random_vectors]
                          (optional; the n-detection test set)
*)
let run cfg =
  let graph = graph_of_config cfg in
  let c, mapping_key = stage_mapping graph cfg in
  let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
  let vectors = atpg_art.Artifact.vectors in
  let stuck_faults, universe_key =
    stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key
  in
  let sim_art, faultsim_key =
    stage_faultsim graph cfg ~c ~stuck_faults ~vectors ~mapping_key
      ~universe_key ~atpg_key
  in
  let t_curve = Coverage.make sim_art.Artifact.first_detection in
  let mapping = Dl_cell.Mapping.flatten c in
  let layout = Dl_layout.Layout.synthesize ?rows:cfg.rows mapping in
  let ifa_art, ifa_key = stage_ifa graph cfg ~layout ~mapping_key in
  let extraction =
    {
      Ifa.layout;
      faults = ifa_art.Artifact.faults;
      gross_weight = ifa_art.Artifact.gross_weight;
      summaries = ifa_art.Artifact.summaries;
    }
  in
  (* 5. Scale the extracted weights so eq. 5 matches the target yield. *)
  let raw_weights =
    Array.map (fun (f : Realistic.t) -> f.weight) extraction.faults
  in
  let scaled_weights, scale_factor =
    Weighted.scale_to_yield ~weights:raw_weights ~target_yield:cfg.target_yield
  in
  let swift_art, swift_key =
    stage_swift graph cfg ~mapping ~faults:extraction.faults ~vectors
      ~mapping_key ~ifa_key ~atpg_key
  in
  let swift_result =
    {
      Swift.faults = extraction.faults;
      detection = swift_art.Artifact.detection;
      vectors_applied = swift_art.Artifact.vectors_applied;
      region_solves = swift_art.Artifact.region_solves;
    }
  in
  let voltage_firsts =
    Array.map (fun (d : Swift.detection) -> d.voltage) swift_result.detection
  in
  let theta_curve = Coverage.make ~weights:scaled_weights voltage_firsts in
  let gamma_curve = Coverage.make voltage_firsts in
  let theta_iddq_curve =
    let firsts =
      Array.map
        (fun (d : Swift.detection) ->
          match (d.voltage, d.iddq) with
          | Some a, Some b -> Some (min a b)
          | (Some _ as x), None | None, (Some _ as x) -> x
          | None, None -> None)
        swift_result.detection
    in
    Coverage.make ~weights:scaled_weights firsts
  in
  (* 7. Susceptibility fit and summary (the only stage a target-yield or
     fit-resolution change invalidates). *)
  let n = Array.length vectors in
  let summary_art, _projection_key =
    Stage.run graph ~stage:"projection" ~codec:Artifact.summary
      ~config:(projection_config cfg)
      ~inputs:[ universe_key; faultsim_key; ifa_key; swift_key ]
      (fun () ->
        let ks = Coverage.log_spaced ~max:n ~points:fit_sample_points in
        let samples =
          Array.map
            (fun k -> (Coverage.at t_curve k, Coverage.at theta_curve k))
            ks
        in
        let fit = Projection.fit_theta samples in
        let text =
          Format.asprintf
            "experiment %s: %d vectors (%d random + %d deterministic), %d \
             stuck faults (T final %.4f), %d realistic faults (Θ final %.4f, \
             Γ final %.4f, Θ+IDDQ %.4f), Y scaled by %.3e to %.2f"
            c.title n atpg_art.Artifact.stats.random_vectors
            atpg_art.Artifact.stats.deterministic_vectors
            (Array.length stuck_faults)
            (Coverage.at t_curve n)
            (Array.length extraction.faults)
            (Coverage.at theta_curve n)
            (Coverage.at gamma_curve n)
            (Coverage.at theta_iddq_curve n)
            scale_factor cfg.target_yield
        in
        {
          Artifact.text;
          fit_r = fit.params.r;
          fit_theta_max = fit.params.theta_max;
          fit_rmse = fit.rmse;
          fit_rmse_log10 = (fit.rmse_scale = Projection.Log10);
          scale_factor;
        })
  in
  let fit =
    {
      Projection.params =
        {
          Projection.r = summary_art.Artifact.fit_r;
          theta_max = summary_art.Artifact.fit_theta_max;
        };
      rmse = summary_art.Artifact.fit_rmse;
      rmse_scale =
        (if summary_art.Artifact.fit_rmse_log10 then Projection.Log10
         else Projection.Linear);
    }
  in
  let wafer_mc =
    Option.map
      (fun m ->
        let art, _ =
          stage_wafer_mc graph cfg m ~n_vectors:n ~scaled_weights
            ~voltage_firsts ~theta_curve ~atpg_key ~ifa_key ~swift_key
        in
        wafer_mc_of_artifact art)
      cfg.mc
  in
  let bootstrap_fit =
    Option.map
      (fun k ->
        let art, _ =
          stage_bootstrap graph cfg k ~n_vectors:n
            ~t_firsts:sim_art.Artifact.first_detection
            ~theta_firsts:voltage_firsts ~theta_weights:scaled_weights
            ~universe_key ~faultsim_key ~ifa_key ~swift_key
        in
        bootstrap_of_artifact art)
      cfg.bootstrap
  in
  let ndet =
    Option.map
      (fun ndet_n ->
        let prof_art, _ =
          stage_ndet_sim graph cfg ndet_n ~c ~stuck_faults ~vectors
            ~mapping_key ~universe_key ~atpg_key
        in
        let profile = profile_of_artifact ~stuck_faults prof_art in
        let gen_art, _ =
          stage_ndet_atpg graph cfg ndet_n ~c ~stuck_faults ~mapping_key
            ~universe_key
        in
        let dl_n =
          Dl_n.analyze ~fit_points:fit_sample_points ~profile ~theta_curve
            ~yield:cfg.target_yield ~n_vectors:n ()
        in
        {
          ndet_n;
          profile;
          dl_n;
          gen_vectors = gen_art.Artifact.na_vectors;
          gen_counts = gen_art.Artifact.na_counts;
          gen_stats = gen_art.Artifact.na_stats;
        })
      cfg.ndet
  in
  {
    cfg;
    mapped_circuit = c;
    vectors;
    atpg_stats = atpg_art.Artifact.stats;
    stuck_faults;
    sim_stats = sim_art.Artifact.sim_stats;
    extraction;
    scale_factor;
    yield = cfg.target_yield;
    scaled_weights;
    t_curve;
    theta_curve;
    gamma_curve;
    theta_iddq_curve;
    swift_result;
    fit;
    wafer_mc;
    bootstrap_fit;
    ndet;
    summary = summary_art.Artifact.text;
    stage_reports = Stage.reports graph;
  }

(* One stage plus its dependency closure — what a cluster worker executes
   for a [serve-stage] request.  Everything upstream of the requested
   stage runs through the same graph, so with a warm (or peer-fed) store
   the closure collapses to cache hits and only the requested stage
   computes.  ["projection"] needs every artifact plus live curves, so it
   simply delegates to [run]. *)
let run_stage cfg ~stage =
  match stage with
  | "projection" -> (run cfg).stage_reports
  | _ ->
      let graph = graph_of_config cfg in
      (match stage with
      | "mapping" -> ignore (stage_mapping graph cfg)
      | "atpg" ->
          let c, mapping_key = stage_mapping graph cfg in
          ignore (stage_atpg graph cfg ~c ~mapping_key)
      | "fault-universe" ->
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          ignore
            (stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key)
      | "fault-sim" ->
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let stuck_faults, universe_key =
            stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key
          in
          ignore
            (stage_faultsim graph cfg ~c ~stuck_faults
               ~vectors:atpg_art.Artifact.vectors ~mapping_key ~universe_key
               ~atpg_key)
      | "layout-ifa" ->
          let c, mapping_key = stage_mapping graph cfg in
          let mapping = Dl_cell.Mapping.flatten c in
          let layout = Dl_layout.Layout.synthesize ?rows:cfg.rows mapping in
          ignore (stage_ifa graph cfg ~layout ~mapping_key)
      | "swift" ->
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let mapping = Dl_cell.Mapping.flatten c in
          let layout = Dl_layout.Layout.synthesize ?rows:cfg.rows mapping in
          let ifa_art, ifa_key = stage_ifa graph cfg ~layout ~mapping_key in
          ignore
            (stage_swift graph cfg ~mapping ~faults:ifa_art.Artifact.faults
               ~vectors:atpg_art.Artifact.vectors ~mapping_key ~ifa_key
               ~atpg_key)
      | "wafer-mc" ->
          let m =
            match cfg.mc with
            | Some m -> m
            | None ->
                invalid_arg
                  "Experiment.run_stage: wafer-mc requested but cfg.mc is None"
          in
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let mapping = Dl_cell.Mapping.flatten c in
          let layout = Dl_layout.Layout.synthesize ?rows:cfg.rows mapping in
          let ifa_art, ifa_key = stage_ifa graph cfg ~layout ~mapping_key in
          let swift_art, swift_key =
            stage_swift graph cfg ~mapping ~faults:ifa_art.Artifact.faults
              ~vectors:atpg_art.Artifact.vectors ~mapping_key ~ifa_key
              ~atpg_key
          in
          let raw_weights =
            Array.map (fun (f : Realistic.t) -> f.weight) ifa_art.Artifact.faults
          in
          let scaled_weights, _ =
            Weighted.scale_to_yield ~weights:raw_weights
              ~target_yield:cfg.target_yield
          in
          let voltage_firsts =
            Array.map
              (fun (d : Swift.detection) -> d.voltage)
              swift_art.Artifact.detection
          in
          let theta_curve = Coverage.make ~weights:scaled_weights voltage_firsts in
          ignore
            (stage_wafer_mc graph cfg m
               ~n_vectors:(Array.length atpg_art.Artifact.vectors)
               ~scaled_weights ~voltage_firsts ~theta_curve ~atpg_key ~ifa_key
               ~swift_key)
      | "bootstrap-fit" ->
          let replicates =
            match cfg.bootstrap with
            | Some k -> k
            | None ->
                invalid_arg
                  "Experiment.run_stage: bootstrap-fit requested but \
                   cfg.bootstrap is None"
          in
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let stuck_faults, universe_key =
            stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key
          in
          let sim_art, faultsim_key =
            stage_faultsim graph cfg ~c ~stuck_faults
              ~vectors:atpg_art.Artifact.vectors ~mapping_key ~universe_key
              ~atpg_key
          in
          let mapping = Dl_cell.Mapping.flatten c in
          let layout = Dl_layout.Layout.synthesize ?rows:cfg.rows mapping in
          let ifa_art, ifa_key = stage_ifa graph cfg ~layout ~mapping_key in
          let swift_art, swift_key =
            stage_swift graph cfg ~mapping ~faults:ifa_art.Artifact.faults
              ~vectors:atpg_art.Artifact.vectors ~mapping_key ~ifa_key
              ~atpg_key
          in
          let raw_weights =
            Array.map (fun (f : Realistic.t) -> f.weight) ifa_art.Artifact.faults
          in
          let scaled_weights, _ =
            Weighted.scale_to_yield ~weights:raw_weights
              ~target_yield:cfg.target_yield
          in
          let voltage_firsts =
            Array.map
              (fun (d : Swift.detection) -> d.voltage)
              swift_art.Artifact.detection
          in
          ignore
            (stage_bootstrap graph cfg replicates
               ~n_vectors:(Array.length atpg_art.Artifact.vectors)
               ~t_firsts:sim_art.Artifact.first_detection
               ~theta_firsts:voltage_firsts ~theta_weights:scaled_weights
               ~universe_key ~faultsim_key ~ifa_key ~swift_key)
      | "ndet-sim" ->
          let n =
            match cfg.ndet with
            | Some n -> n
            | None ->
                invalid_arg
                  "Experiment.run_stage: ndet-sim requested but cfg.ndet is \
                   None"
          in
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let stuck_faults, universe_key =
            stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key
          in
          ignore
            (stage_ndet_sim graph cfg n ~c ~stuck_faults
               ~vectors:atpg_art.Artifact.vectors ~mapping_key ~universe_key
               ~atpg_key)
      | "ndet-atpg" ->
          let n =
            match cfg.ndet with
            | Some n -> n
            | None ->
                invalid_arg
                  "Experiment.run_stage: ndet-atpg requested but cfg.ndet is \
                   None"
          in
          let c, mapping_key = stage_mapping graph cfg in
          let atpg_art, atpg_key = stage_atpg graph cfg ~c ~mapping_key in
          let stuck_faults, universe_key =
            stage_universe graph cfg ~c ~atpg_art ~mapping_key ~atpg_key
          in
          ignore
            (stage_ndet_atpg graph cfg n ~c ~stuck_faults ~mapping_key
               ~universe_key)
      | other ->
          invalid_arg
            (Printf.sprintf "Experiment.run_stage: unknown stage %S" other));
      Stage.reports graph

let defect_level_at t k =
  Weighted.defect_level ~yield:t.yield ~theta:(Coverage.at t.theta_curve k)

let sample_ks t ~points =
  Coverage.log_spaced ~max:(Array.length t.vectors) ~points

let coverage_rows t ~ks =
  Array.map
    (fun k ->
      ( k,
        Coverage.at t.t_curve k,
        Coverage.at t.theta_curve k,
        Coverage.at t.gamma_curve k ))
    ks

let dl_vs_t_points t ~ks =
  Array.map (fun k -> (Coverage.at t.t_curve k, defect_level_at t k)) ks

let dl_vs_gamma_points t ~ks =
  Array.map (fun k -> (Coverage.at t.gamma_curve k, defect_level_at t k)) ks

let fit_params t ?(points = fit_sample_points) () =
  let ks = sample_ks t ~points in
  let samples =
    Array.map (fun k -> (Coverage.at t.t_curve k, Coverage.at t.theta_curve k)) ks
  in
  Projection.fit_theta samples

let pp_summary ppf t = Format.pp_print_string ppf t.summary
