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

(* Every check on a config.  [config] runs it, and so does the key fold
   under [stage_keys], [run] and [run_stage], so a [{ cfg with ... }]
   update is rejected before any stage runs or any key is derived. *)
let validate cfg =
  let bad fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Experiment.config: " ^ m)) fmt
  in
  let at_least_1 field = function
    | Some v when v < 1 -> bad "%s must be >= 1, got %d" field v
    | _ -> ()
  in
  if not (cfg.target_yield > 0.0 && cfg.target_yield < 1.0) then
    bad "target_yield must be in (0, 1), got %g" cfg.target_yield;
  if cfg.max_random_vectors < 0 then
    bad "max_random_vectors must be >= 0, got %d" cfg.max_random_vectors;
  if not (cfg.min_weight_ratio >= 0.0 && cfg.min_weight_ratio <= 1.0) then
    bad "min_weight_ratio must be in [0, 1], got %g" cfg.min_weight_ratio;
  at_least_1 "domains" (Some cfg.domains);
  at_least_1 "rows" cfg.rows;
  at_least_1 "bootstrap" cfg.bootstrap;
  at_least_1 "ndet" cfg.ndet

let config ?(seed = 7) ?(max_random_vectors = 4096) ?(target_yield = 0.75)
    ?(stats = Dl_extract.Defect_stats.default) ?(min_weight_ratio = 0.0) ?rows
    ?(domains = Dl_util.Parallel.default_domains ()) ?pool
    ?(collapse_faults = true) ?(sim_engine = Dl_fault.Fault_sim.Wide)
    ?cache_dir ?remote ?mc ?bootstrap ?ndet circuit =
  let cfg =
    { circuit; seed; max_random_vectors; target_yield; stats; min_weight_ratio;
      rows; domains; pool; collapse_faults; sim_engine; cache_dir; remote;
      mc; bootstrap; ndet }
  in
  validate cfg;
  cfg

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

(* The [(T(k), Θ(k))] pairs of the eq. 9 fit, at log-spaced [k]. *)
let fit_samples ~t ~theta ~n ~points =
  Array.map
    (fun k -> (Coverage.at t k, Coverage.at theta k))
    (Coverage.log_spaced ~max:n ~points)

(* --- the stage table -----------------------------------------------------

   The paper's flow, described once.  Each stage is one row of [table]:
   name, codec, input stages in key order ("netlist" is the input
   circuit's content key), config fingerprint and body.  [stage_keys]
   folds over the rows, [run] forces every enabled row, [run_stage] the
   rows one stage depends on, and [stage_waves] groups stages into
   dependency waves for the cluster coordinator.  Adding a stage is one
   row plus one body.  The domain count, the pool, the store and the peer
   tier are in no fingerprint: results are bit-identical whatever they
   are. *)

(* One run's state.  [keys] holds "netlist" and every enabled stage's key;
   [memo] caches, for this run only, each stage's artifact and every live
   value derived from them.  A context is never shared between runs, and
   no pool task touches it. *)
type ctx = {
  cfg : config;
  graph : Stage.t;
  keys : (string * string) list;
  memo : (int, packed) Hashtbl.t;
}

and packed = Packed : 'a Type.Id.t * 'a -> packed

(* [per_run f] is [f], computed at most once per context. *)
let per_run (type a) (f : ctx -> a) : ctx -> a =
  let id : a Type.Id.t = Type.Id.make () in
  fun r ->
    match Hashtbl.find_opt r.memo (Type.Id.uid id) with
    | Some (Packed (id', v)) -> (
        match Type.Id.provably_equal id id' with
        | Some Type.Equal -> v
        | None -> assert false)
    | None ->
        let v = f r in
        Hashtbl.replace r.memo (Type.Id.uid id) (Packed (id, v));
        v

type 'a stage = {
  name : string;
  codec : 'a Dl_store.Codec.t;
  inputs : string list;
  fingerprint : config -> (string * string) list option;
      (** [None]: the row is off for this config. *)
  get : ctx -> 'a;
}

type row = Row : 'a stage -> row

(* A row.  [body r] runs before the stage is consulted, hit or miss, and
   returns the compute a miss runs. *)
let stage ~name ~codec ~inputs ?(fingerprint = fun _ -> Some []) body =
  let get =
    per_run (fun r ->
        let config = Option.get (fingerprint r.cfg) in
        let inputs = List.map (fun i -> List.assoc i r.keys) inputs in
        fst (Stage.run r.graph ~stage:name ~codec ~config ~inputs (body r)))
  in
  { name; codec; inputs; fingerprint; get }

(* 1. Technology-map the netlist. *)
let mapping =
  stage ~name:"mapping" ~codec:Artifact.circuit ~inputs:[ "netlist" ]
    (fun r () -> Transform.decompose_for_cells r.cfg.circuit)

(* 2. Test generation: random prefix then deterministic top-up. *)
let atpg_knobs cfg =
  [
    ("seed", string_of_int cfg.seed);
    ("max_random_vectors", string_of_int cfg.max_random_vectors);
  ]

let atpg =
  stage ~name:"atpg" ~codec:Artifact.atpg ~inputs:[ "mapping" ]
    ~fingerprint:(fun cfg -> Some (atpg_knobs cfg))
    (fun r () ->
      fst
        (Dl_atpg.Atpg.full_flow ~seed:r.cfg.seed
           ~max_random:r.cfg.max_random_vectors (mapping.get r)))

let vectors r = (atpg.get r).vectors

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
let universe =
  stage ~name:"fault-universe" ~codec:Artifact.stuck_faults
    ~inputs:[ "mapping"; "atpg" ]
    ~fingerprint:(fun cfg ->
      Some [ ("collapse_faults", string_of_bool cfg.collapse_faults) ])
    (fun r () ->
      let module S = Dl_fault.Stuck_at in
      let c = mapping.get r in
      let untestable = (atpg.get r).untestable_faults in
      let all = S.universe c in
      let mem faults f = Array.exists (S.equal f) faults in
      let faults, redundant =
        if r.cfg.collapse_faults then (S.collapse c all, untestable)
        else
          ( all,
            S.equivalence_classes c all
            |> Array.to_list
            |> List.filter (fun cls -> mem untestable cls.(0))
            |> Array.concat )
      in
      Array.of_seq
        (Seq.filter (fun f -> not (mem redundant f)) (Array.to_seq faults)))

(* The engine is part of the fault-sim and ndet-sim stage keys even though
   detection results are engine-independent: the cached artifact carries
   per-engine [Stats] counters, so two engines must never alias one cache
   entry (PR 7 fixed exactly that aliasing). *)
let engine cfg = ("engine", Dl_fault.Fault_sim.engine_to_string cfg.sim_engine)

(* 3. Gate-level stuck-at fault simulation over the same sequence
   (parallel engine; bit-for-bit identical to the serial one). *)
let fault_sim =
  stage ~name:"fault-sim" ~codec:Artifact.detections
    ~inputs:[ "mapping"; "fault-universe"; "atpg" ]
    ~fingerprint:(fun cfg -> Some [ engine cfg ])
    (fun r () ->
      let sim =
        Dl_fault.Fault_sim.run_parallel_with ~engine:r.cfg.sim_engine
          ~domains:r.cfg.domains ?pool:r.cfg.pool (mapping.get r)
          ~faults:(universe.get r) ~vectors:(vectors r)
      in
      {
        Artifact.first_detection = sim.first_detection;
        vectors_applied = sim.vectors_applied;
        gate_evaluations = sim.gate_evaluations;
        sim_stats = sim.stats;
      })

(* 4. Layout synthesis and inductive fault analysis.  The layout-ifa
   artifact stores the extraction's faults and class accounting, not the
   layout: the layout is a lazy value, built from the decoded mapping
   circuit and [cfg.rows] alone.  A miss forces it to run the geometry
   scan; a hit leaves it unbuilt, so a warm run synthesizes no layout
   unless a caller of [Experiment.t] forces [extraction.layout].  The lazy
   values capture the circuit and [rows], never the run context: [t]
   keeps the layout, and a context holds every artifact and derived value
   of its run, so a lazy value closing over it would keep them all alive
   for as long as [t] lives (DESIGN.md §6c). *)
let flat =
  per_run (fun r ->
      let c = mapping.get r in
      lazy (Dl_cell.Mapping.flatten c))

let layout =
  per_run (fun r ->
      let flat = flat r and rows = r.cfg.rows in
      lazy (Dl_layout.Layout.synthesize ?rows (Lazy.force flat)))

let layout_ifa =
  stage ~name:"layout-ifa" ~codec:Artifact.ifa ~inputs:[ "mapping" ]
    ~fingerprint:(fun cfg ->
      Some
        [
          ("defect_stats", Artifact.defect_stats_fingerprint cfg.stats);
          ("min_weight_ratio", Printf.sprintf "%h" cfg.min_weight_ratio);
          ( "rows",
            match cfg.rows with None -> "auto" | Some r -> string_of_int r );
        ])
    (fun r () ->
      let e =
        Ifa.extract ~stats:r.cfg.stats ~min_weight_ratio:r.cfg.min_weight_ratio
          (Lazy.force (layout r))
      in
      {
        Artifact.faults = e.faults;
        gross_weight = e.gross_weight;
        summaries = e.summaries;
      })

let realistic_faults r = (layout_ifa.get r).Artifact.faults

(* 5. Scale the extracted weights so eq. 5 matches the target yield. *)
let scaled =
  per_run (fun r ->
      Weighted.scale_to_yield
        ~weights:
          (Array.map (fun (f : Realistic.t) -> f.weight) (realistic_faults r))
        ~target_yield:r.cfg.target_yield)

(* 6. Switch-level realistic fault simulation (sharded by region shape
   over the fault-simulation domains; its result does not depend on
   them either). *)
let swift =
  stage ~name:"swift" ~codec:Artifact.swift
    ~inputs:[ "mapping"; "layout-ifa"; "atpg" ]
    (fun r () ->
      let network = Dl_switch.Network.build (Lazy.force (flat r)) in
      Swift.run ~domains:r.cfg.domains ?pool:r.cfg.pool network
        ~faults:(realistic_faults r) ~vectors:(vectors r))

let detection r = (swift.get r).detection

let voltage_firsts =
  per_run (fun r ->
      Array.map (fun (d : Swift.detection) -> d.voltage) (detection r))

let t_curve =
  per_run (fun r -> Coverage.make (fault_sim.get r).Artifact.first_detection)

let theta_curve =
  per_run (fun r ->
      Swift.weighted_coverage ~weights:(fst (scaled r)) (detection r))

let gamma_curve = per_run (fun r -> Swift.unweighted_coverage (detection r))

let theta_iddq_curve =
  per_run (fun r ->
      Swift.iddq_weighted_coverage ~weights:(fst (scaled r)) (detection r))

(* 7. Susceptibility fit and summary (the only stage a target-yield or
   fit-resolution change invalidates). *)
let projection =
  stage ~name:"projection" ~codec:Artifact.summary
    ~inputs:[ "fault-universe"; "fault-sim"; "layout-ifa"; "swift" ]
    ~fingerprint:(fun cfg ->
      Some
        [
          ("target_yield", Printf.sprintf "%h" cfg.target_yield);
          ("fit_points", string_of_int fit_sample_points);
        ])
    (fun r ->
      (* The curves are built before the stage is consulted, hit or miss,
         as the flow always did; built last, they raise peak RSS. *)
      let t = t_curve r and theta = theta_curve r in
      let gamma = gamma_curve r and iddq = theta_iddq_curve r in
      fun () ->
        let n = Array.length (vectors r) in
        let at curve = Coverage.at curve n in
        let fit =
          Projection.fit_theta
            (fit_samples ~t ~theta ~n ~points:fit_sample_points)
        in
        let stats = (atpg.get r).stats in
        let scale_factor = snd (scaled r) in
        let text =
          Format.asprintf
            "experiment %s: %d vectors (%d random + %d deterministic), %d \
             stuck faults (T final %.4f), %d realistic faults (Θ final \
             %.4f, Γ final %.4f, Θ+IDDQ %.4f), Y scaled by %.3e to %.2f"
            (mapping.get r).title n stats.random_vectors
            stats.deterministic_vectors
            (Array.length (universe.get r))
            (at t)
            (Array.length (realistic_faults r))
            (at theta) (at gamma) (at iddq) scale_factor r.cfg.target_yield
        in
        {
          Artifact.text;
          fit_r = fit.params.r;
          fit_theta_max = fit.params.theta_max;
          fit_rmse = fit.rmse;
          fit_rmse_log10 = (fit.rmse_scale = Projection.Log10);
          scale_factor;
        })

(* 8/9. The statistical stages (PR: Monte-Carlo yield engine).  Both draw
   exclusively from path-keyed Seeds streams rooted at [cfg.seed], so the
   cached artifact is a pure function of its stage key.  Their knobs
   fingerprint ONLY their own stage: turning either on, or changing
   dies/alphas/replicates, must never invalidate a simulation artifact.
   [cfg.seed] is deliberately absent — it is already digested via the
   atpg input key. *)

let seeds_of cfg name = Dl_util.Seeds.scope (Dl_util.Seeds.create cfg.seed) name

let wafer_mc =
  stage ~name:"wafer-mc" ~codec:Wafer_mc.codec
    ~inputs:[ "atpg"; "layout-ifa"; "swift" ]
    ~fingerprint:(fun cfg ->
      Option.map
        (fun m ->
          [
            ("dies", string_of_int m.mc_dies);
            ("dies_per_wafer", string_of_int m.mc_dies_per_wafer);
            ("wafers_per_lot", string_of_int m.mc_wafers_per_lot);
            ("alpha_wafer", Printf.sprintf "%h" m.mc_alpha_wafer);
            ("alpha_lot", Printf.sprintf "%h" m.mc_alpha_lot);
            ("points", string_of_int m.mc_points);
            ("target_yield", Printf.sprintf "%h" cfg.target_yield);
          ])
        cfg.mc)
    (fun r () ->
      let m = Option.get r.cfg.mc in
      let ks =
        Coverage.log_spaced ~max:(Array.length (vectors r)) ~points:m.mc_points
      in
      let points = Array.map (fun k -> (k, Coverage.at (theta_curve r) k)) ks in
      Wafer_mc.simulate ~dies_per_wafer:m.mc_dies_per_wafer
        ~wafers_per_lot:m.mc_wafers_per_lot ~alpha_wafer:m.mc_alpha_wafer
        ~alpha_lot:m.mc_alpha_lot
        ~seeds:(seeds_of r.cfg "wafer-mc")
        ~dies:m.mc_dies ~weights:(fst (scaled r)) ~firsts:(voltage_firsts r)
        ~points ())

let bootstrap_fit =
  stage ~name:"bootstrap-fit" ~codec:Bootstrap.codec
    ~inputs:[ "fault-universe"; "fault-sim"; "layout-ifa"; "swift" ]
    ~fingerprint:(fun cfg ->
      Option.map
        (fun k ->
          [
            ("replicates", string_of_int k);
            ("fit_points", string_of_int fit_sample_points);
            ("target_yield", Printf.sprintf "%h" cfg.target_yield);
          ])
        cfg.bootstrap)
    (fun r () ->
      Bootstrap.run ~fit_points:fit_sample_points
        ~seeds:(seeds_of r.cfg "bootstrap-fit")
        ~replicates:(Option.get r.cfg.bootstrap)
        ~yield:r.cfg.target_yield
        ~t_firsts:(fault_sim.get r).Artifact.first_detection
        ~theta_firsts:(voltage_firsts r) ~theta_weights:(fst (scaled r))
        ~n_vectors:(Array.length (vectors r)) ())

(* 10/11. n-detection (PR: Dl_ndet).  The ndet-sim stage profiles the SAME
   atpg vector sequence under a detection quota, so its n = 1 slice is
   bit-identical to fault-sim's first detections; ndet-atpg generates the
   registered n-detection test set. *)

let ndet_sim =
  stage ~name:"ndet-sim" ~codec:Artifact.ndet_profile
    ~inputs:[ "mapping"; "fault-universe"; "atpg" ]
    ~fingerprint:(fun cfg ->
      Option.map (fun n -> [ ("n", string_of_int n); engine cfg ]) cfg.ndet)
    (fun r () ->
      Dl_fault.Fault_sim.run_ndet ~engine:r.cfg.sim_engine
        ~domains:r.cfg.domains ?pool:r.cfg.pool
        ~drop_after:(Option.get r.cfg.ndet) (mapping.get r)
        ~faults:(universe.get r) ~vectors:(vectors r))

let ndet_atpg =
  stage ~name:"ndet-atpg" ~codec:Artifact.ndet_atpg
    ~inputs:[ "mapping"; "fault-universe" ]
    ~fingerprint:(fun cfg ->
      Option.map (fun n -> ("n", string_of_int n) :: atpg_knobs cfg) cfg.ndet)
    (fun r () ->
      Dl_ndet.Atpg_n.run ~seed:r.cfg.seed ~max_random:r.cfg.max_random_vectors
        ~engine:r.cfg.sim_engine ~n:(Option.get r.cfg.ndet) (mapping.get r)
        ~faults:(universe.get r))

let table =
  [
    Row mapping; Row atpg; Row universe; Row fault_sim; Row layout_ifa;
    Row swift; Row projection; Row wafer_mc; Row bootstrap_fit; Row ndet_sim;
    Row ndet_atpg;
  ]

(* --- derived from the table ---------------------------------------------- *)

(* The stage keys are pure functions of the config: every stage's key
   digests only its name, codec kind/version, config fingerprint and the
   keys of its inputs, and the root of that DAG is the content key of the
   input circuit.  This is what lets a server coalesce identical requests
   before running anything — two configs with equal [request_key] denote
   bit-identical experiment results.  The fold's result starts with the
   "netlist" pseudo-stage. *)
let keys cfg =
  validate cfg;
  let netlist = Dl_store.Codec.content_key Artifact.circuit cfg.circuit in
  List.fold_left
    (fun acc (Row s) ->
      match s.fingerprint cfg with
      | None -> acc
      | Some config ->
          let inputs = List.map (fun i -> List.assoc i acc) s.inputs in
          (s.name, Stage.key ~stage:s.name ~codec:s.codec ~config ~inputs)
          :: acc)
    [ ("netlist", netlist) ]
    table
  |> List.rev

let stage_keys cfg = List.tl (keys cfg)
let request_key cfg = List.assoc "projection" (stage_keys cfg)

let codec_versions =
  List.map (fun (Row s) -> (s.codec.kind, s.codec.version)) table

(* [name] and every stage upstream of it (with repeats). *)
let rec upstream name =
  let inputs (Row s) = if s.name = name then s.inputs else [] in
  name :: List.concat_map upstream (List.concat_map inputs table)

(* Force the rows named in [names], in table order, so the stage reports
   come out in [stage_keys] order. *)
let force r names =
  List.iter (fun (Row s) -> if List.mem s.name names then ignore (s.get r))
    table

let context cfg keys =
  let store = Option.map Dl_store.Store.open_ cfg.cache_dir in
  { cfg; graph = Stage.create ?store ?remote:cfg.remote (); keys;
    memo = Hashtbl.create 32 }

(* An eq. 9 fit as the summary artifact stores it. *)
let fit_of (s : Artifact.summary) =
  {
    Projection.params = { Projection.r = s.fit_r; theta_max = s.fit_theta_max };
    rmse = s.fit_rmse;
    rmse_scale = (if s.fit_rmse_log10 then Projection.Log10 else Projection.Linear);
  }

let run cfg =
  let r = context cfg (keys cfg) in
  force r (List.map fst r.keys);
  let atpg_art = atpg.get r and summary = projection.get r in
  let scaled_weights, scale_factor = scaled r in
  let ndet =
    Option.map
      (fun ndet_n ->
        let profile = ndet_sim.get r and gen = ndet_atpg.get r in
        {
          ndet_n;
          profile;
          dl_n =
            Dl_n.analyze ~fit_points:fit_sample_points ~profile
              ~theta_curve:(theta_curve r) ~yield:cfg.target_yield
              ~n_vectors:(Array.length atpg_art.vectors) ();
          gen_vectors = gen.vectors;
          gen_counts = gen.counts;
          gen_stats = gen.stats;
        })
      cfg.ndet
  in
  ({
     cfg;
     mapped_circuit = mapping.get r;
     vectors = atpg_art.vectors;
     atpg_stats = atpg_art.stats;
     stuck_faults = universe.get r;
     sim_stats = (fault_sim.get r).sim_stats;
     extraction =
       {
         Ifa.layout = layout r;
         faults = realistic_faults r;
         gross_weight = (layout_ifa.get r).gross_weight;
         summaries = (layout_ifa.get r).summaries;
       };
     scale_factor;
     yield = cfg.target_yield;
     scaled_weights;
     t_curve = t_curve r;
     theta_curve = theta_curve r;
     gamma_curve = gamma_curve r;
     theta_iddq_curve = theta_iddq_curve r;
     swift_result = swift.get r;
     fit = fit_of summary;
     wafer_mc = Option.map (fun _ -> wafer_mc.get r) cfg.mc;
     bootstrap_fit = Option.map (fun _ -> bootstrap_fit.get r) cfg.bootstrap;
     ndet;
     summary = summary.text;
     stage_reports = Stage.reports r.graph;
   }
    : t)

(* One stage plus its dependency closure — what a cluster worker executes
   for a [serve-stage] request.  With a warm (or peer-fed) store the
   closure collapses to cache hits and only the requested stage computes. *)
let run_stage cfg ~stage =
  let keys = keys cfg in
  if not (List.mem_assoc stage (List.tl keys)) then
    invalid_arg
      (Printf.sprintf "Experiment.run_stage: no stage %S in this config" stage);
  let r = context cfg keys in
  force r (upstream stage);
  Stage.reports r.graph

(* A stage's wave is one more than the deepest wave of the named stages
   upstream of it, so every wave needs only artifacts of earlier ones. *)
let stage_waves cfg names =
  let names =
    List.filter (fun n -> List.mem n names)
      (List.filter_map
         (fun (Row s) -> Option.map (fun _ -> s.name) (s.fingerprint cfg))
         table)
  in
  let rec wave n =
    List.fold_left
      (fun w m -> if m <> n && List.mem m names then max w (1 + wave m) else w)
      0 (upstream n)
  in
  let waves = List.map (fun n -> (n, wave n)) names in
  let in_wave w (n, w') = if w = w' then Some n else None in
  List.init
    (List.fold_left (fun m (_, w) -> max m (w + 1)) 0 waves)
    (fun w -> List.filter_map (in_wave w) waves)

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

let pp_summary ppf t = Format.pp_print_string ppf t.summary
