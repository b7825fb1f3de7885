(** The paper's end-to-end experiment (section 3): netlist → standard-cell
    layout → layout fault extraction (*lift*) → stuck-at ATPG (random
    prefix + deterministic top-up) → gate-level stuck-at fault simulation
    [T(k)] and switch-level realistic fault simulation [Θ(k), Γ(k)] over
    the same vector sequence → defect-level projection and model fitting.

    One [run] produces everything Figs. 3-6 plot.

    [run] executes as an incremental stage graph ({!Dl_store.Stage}):
    mapping → atpg → fault-universe → fault-sim → layout-ifa → swift →
    projection, then the optional stages; one table of them derives
    {!stage_keys}, {!run_stage} and {!stage_waves}.  With [cache_dir] set,
    every stage artifact is persisted content-addressed ({!Dl_store.Store})
    and a re-run recomputes only the stages whose inputs or config
    actually changed — re-projecting at a different yield or sampling
    resolution reuses every simulation artifact. *)

open Dl_netlist

(** Monte-Carlo wafer-simulation knobs (the optional [wafer-mc] stage). *)
type mc = {
  mc_dies : int;             (** Total dies to simulate. *)
  mc_dies_per_wafer : int;
  mc_wafers_per_lot : int;
  mc_alpha_wafer : float;    (** Wafer-level clustering; [infinity] = none. *)
  mc_alpha_lot : float;      (** Lot-level clustering; [infinity] = none. *)
  mc_points : int;           (** Coverage points of the DL(T) band grid. *)
}

val mc :
  ?dies_per_wafer:int -> ?wafers_per_lot:int -> ?alpha_wafer:float ->
  ?alpha_lot:float -> ?points:int -> dies:int -> unit -> mc
(** Defaults: 256 dies per wafer, 4 wafers per lot, both alphas infinite
    (pure Poisson — the paper's model), 25 band points.
    @raise Invalid_argument on non-positive values. *)

type config = {
  circuit : Circuit.t;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
      (** The extracted yield is rescaled to this value (paper: 0.75).
          Affects only the projection stage key — never a simulation. *)
  stats : Dl_extract.Defect_stats.t;
  min_weight_ratio : float;
      (** Realistic-fault pruning threshold (see {!Dl_extract.Ifa.extract}). *)
  rows : int option;  (** Layout row override. *)
  domains : int;
      (** Domain count for the gate-level fault simulation
          ({!Dl_fault.Fault_sim.run_parallel}) and the switch-level one
          ({!Dl_switch.Swift.run}); results are independent of this value,
          so it is excluded from every stage key. *)
  pool : Dl_util.Parallel.t option;
      (** When set, both fault simulations run on this existing domain pool
          instead of spawning [domains] fresh ones — the serving path
          ({!Dl_serve}) keeps one long-lived pool per scheduler worker.
          Results are independent of the pool, so (like [domains]) it is
          excluded from every stage key. *)
  collapse_faults : bool;
      (** [true] (default): simulate the equivalence-collapsed stuck-at
          universe — one representative per class, every class weighing
          the same in T(k); this is what ATPG targets and is cheaper to
          simulate.  [false]: the paper-faithful uncollapsed universe —
          every line fault counts individually, so larger equivalence
          classes weigh proportionally more in the coverage denominator.
          The two coverage definitions agree in the limit (both reach 1 on
          a complete test set once redundant faults are excluded) but
          differ at intermediate [k]. *)
  sim_engine : Dl_fault.Fault_sim.engine;
      (** PPSFP engine variant for the gate-level fault simulation (default
          [Wide]).  Detection results are engine-independent, but the
          variant IS part of the fault-sim stage key: the cached artifact
          carries per-engine {!Dl_fault.Fault_sim.Stats} counters, so two
          engines must never alias one cache entry. *)
  cache_dir : string option;
      (** Root of the content-addressed artifact store; [None] (default)
          disables persistence (stages still execute and report keys). *)
  remote : Dl_store.Stage.remote option;
      (** Peer store tier for cluster fetch-through ({!Dl_cluster}): a
          local stage miss first asks peer stores, and a computed artifact
          is pushed to its key's home node.  Best-effort and
          result-invisible, so (like [pool]) it is excluded from every
          stage key. *)
  mc : mc option;
      (** When set, run the [wafer-mc] stage ({!Wafer_mc}).  The knobs
          fingerprint only that stage's key — toggling or re-tuning the MC
          never invalidates a simulation artifact. *)
  bootstrap : int option;
      (** When set, run the [bootstrap-fit] stage ({!Bootstrap}) with this
          many replicates.  Fingerprints only the bootstrap-fit key. *)
  ndet : int option;
      (** When set (the detection quota n), run the [ndet-sim] and
          [ndet-atpg] stages ({!Dl_ndet}): a multi-detect profile of the
          atpg sequence (yielding the DL(n) table for every n' <= n) plus
          a registered n-detection test set.  Fingerprints only the two
          ndet stage keys. *)
}

val config : ?seed:int -> ?max_random_vectors:int -> ?target_yield:float ->
  ?stats:Dl_extract.Defect_stats.t -> ?min_weight_ratio:float ->
  ?rows:int -> ?domains:int -> ?pool:Dl_util.Parallel.t ->
  ?collapse_faults:bool -> ?sim_engine:Dl_fault.Fault_sim.engine ->
  ?cache_dir:string -> ?remote:Dl_store.Stage.remote ->
  ?mc:mc -> ?bootstrap:int -> ?ndet:int -> Circuit.t -> config
(** Defaults: seed 7, 4096 random vectors, yield 0.75, Maly statistics, no
    pruning, [Domain.recommended_domain_count ()] domains (or [pool], which
    takes precedence), collapsed fault universe, [Wide] fault-sim engine,
    no cache, no Monte-Carlo stage, no bootstrap stage, no n-detection
    stages.
    @raise Invalid_argument (one line naming the field) unless
    [0 < target_yield < 1], [max_random_vectors >= 0],
    [0 <= min_weight_ratio <= 1], [domains], [rows], [bootstrap],
    [ndet] are >= 1 and [domains <= Dl_util.Parallel.max_domains].
    {!stage_keys}, {!run} and {!run_stage} repeat the
    check, so a [{ cfg with ... }] update cannot bypass it. *)

val stage_keys : config -> (string * string) list
(** [(stage, key)] for every stage of {!run}, in execution order, derived
    from the config alone — no stage is executed.  Equal to the keys in
    {!t.stage_reports} of an actual run of the same config (property-
    tested).  The root of the digest DAG is the content key of
    [cfg.circuit]; [domains], [pool] and [cache_dir] influence nothing.
    The optional [wafer-mc] / [bootstrap-fit] / [ndet-sim] / [ndet-atpg]
    stages appear (last) only when [cfg.mc] / [cfg.bootstrap] / [cfg.ndet]
    are set; their knobs fingerprint only their own keys. *)

val request_key : config -> string
(** The ["projection"] stage key: a single digest of everything that can
    change the core pipeline result of {!run} (circuit content, seed,
    vector budget, fault-universe mode, defect statistics, layout rows,
    pruning threshold, target yield).  Two configs with equal
    [request_key] produce bit-identical experiments — the coalescing key
    of {!Dl_serve}.  The optional statistical stages are not part of it;
    their own stage keys play that role for their artifacts. *)

val codec_versions : (string * int) list
(** [(kind, version)] of every stage's codec, from the stage table: the
    current formats {!Dl_store.Store.gc} keeps. *)

(** The n-detection extension's live result (when [cfg.ndet] is set).
    [profile] is the multi-detect simulation of the SAME vector sequence
    the 1-detection flow applies — its n = 1 slice is bit-identical to
    {!t.t_curve}'s first detections — and [dl_n] the DL(n) table built
    from it; [gen_*] is the separately generated n-detection test set. *)
type ndet_result = {
  ndet_n : int;  (** = the configured quota. *)
  profile : Dl_fault.Fault_sim.ndet;
  dl_n : Dl_n.t;
  gen_vectors : bool array array;
  gen_counts : int array;  (** Per-fault counts on [gen_vectors], capped. *)
  gen_stats : Dl_ndet.Atpg_n.stats;
}

type t = {
  cfg : config;
  mapped_circuit : Circuit.t;  (** After decomposition for the cell library. *)
  vectors : bool array array;  (** The ATPG vector sequence, in order. *)
  atpg_stats : Dl_atpg.Atpg.stats;
  stuck_faults : Dl_fault.Stuck_at.t array;
      (** The simulated universe: collapsed representatives, or the full
          line-fault universe when [collapse_faults = false] (minus
          PODEM-proved-redundant classes in both cases). *)
  sim_stats : Dl_fault.Fault_sim.Stats.t;
      (** Engine counters of the gate-level fault-sim stage (cached with
          the detections artifact, so available on warm runs too). *)
  extraction : Dl_extract.Ifa.extraction;
      (** Its [layout] is built when the layout-ifa stage missed, and
          otherwise on first [Lazy.force], from [mapped_circuit] and
          [cfg.rows]: a warm run synthesizes no layout. *)
  scale_factor : float;        (** Weight scaling applied for target yield. *)
  yield : float;               (** = [cfg.target_yield]. *)
  scaled_weights : float array;  (** Per realistic fault, after scaling. *)
  t_curve : Dl_fault.Coverage.t;       (** Stuck-at coverage T(k). *)
  theta_curve : Dl_fault.Coverage.t;   (** Weighted realistic Θ(k), voltage. *)
  gamma_curve : Dl_fault.Coverage.t;   (** Unweighted realistic Γ(k). *)
  theta_iddq_curve : Dl_fault.Coverage.t;
      (** Θ(k) when IDDQ accompanies every vector. *)
  swift_result : Dl_switch.Swift.result;
  fit : Projection.fit;
      (** The eq. 9 fit of [(R, θmax)] on [(T(k), Θ(k))] at 100 log-spaced
          vector counts up to the sequence length (cached with the
          projection stage). *)
  wafer_mc : Wafer_mc.t option;
      (** Monte-Carlo DL(T) bands when [cfg.mc] is set (cached as the
          [wafer-mc] stage, seeded from [cfg.seed]). *)
  bootstrap_fit : Bootstrap.t option;
      (** Bootstrap CIs on [(R, θmax)] and the clustering alpha when
          [cfg.bootstrap] is set (cached as the [bootstrap-fit] stage). *)
  ndet : ndet_result option;
      (** The n-detection profile, DL(n) table and generated test set when
          [cfg.ndet] is set (cached as the [ndet-sim] / [ndet-atpg]
          stages). *)
  summary : string;            (** What {!pp_summary} prints. *)
  stage_reports : Dl_store.Stage.report list;
      (** Per-stage key / hit-miss / timing of this run, execution order. *)
}

val run : config -> t
(** Run every stage of {!stage_keys}, in that order. *)

val run_stage : config -> stage:string -> Dl_store.Stage.report list
(** Execute one named stage (a {!stage_keys} name) plus its dependency
    closure — the stages its key's inputs name, transitively — and
    nothing else: the unit of work a cluster coordinator fans out.  With
    a warm or peer-fed store the upstream closure collapses to cache hits.
    Returns the closure's reports in {!stage_keys} order, with the
    requested stage last; their keys are {!stage_keys}'s.  No stage is
    special: ["projection"] runs the seven core stages and no optional one.
    @raise Invalid_argument on an invalid config, an unknown stage name,
    or an optional stage whose option is off in [cfg]. *)

val stage_waves : config -> string list -> string list list
(** Group the named stages that are on in [cfg] into dependency waves,
    in {!stage_keys} order: each wave needs only artifacts of named stages
    in earlier waves.  [atpg], [layout-ifa], [fault-sim] and [swift] give
    [[["atpg"; "layout-ifa"]; ["fault-sim"; "swift"]]]. *)

val defect_level_at : t -> int -> float
(** [DL(Θ(k))] through eq. 3 with the scaled yield: the quantity the paper
    treats as the actual defect level. *)

val coverage_rows : t -> ks:int array -> (int * float * float * float) array
(** Fig. 4 data: [(k, T(k), Θ(k), Γ(k))]. *)

val dl_vs_t_points : t -> ks:int array -> (float * float) array
(** Fig. 5 scatter: [(T(k), DL(Θ(k)))]. *)

val dl_vs_gamma_points : t -> ks:int array -> (float * float) array
(** Fig. 6 scatter: [(Γ(k), DL(Θ(k)))]. *)

val sample_ks : t -> points:int -> int array
(** Log-spaced vector counts covering the applied sequence. *)

val pp_summary : Format.formatter -> t -> unit
