(** Monte-Carlo wafer/lot yield simulator over the IFA weight universe.

    The paper's projections are point estimates: Poisson yield
    [Y = exp(-sum w_j)] through eq. 3 gives one DL(T) number per coverage.
    This module instead *samples* production under the multilevel clustered
    fault model of Bogdanov et al.:

    - every {b lot} draws a mean-1 gamma severity [g_L ~ Gamma(alpha_lot) /
      alpha_lot];
    - every {b wafer} in it draws [g_W ~ Gamma(alpha_wafer) / alpha_wafer];
    - every {b die} draws a defect count [N ~ Poisson(g_L * g_W * W)] with
      [W = sum w_j], each defect landing on realistic fault [j] with
      probability [w_j / W].

    Marginally the per-die defect count is the doubly-gamma-mixed Poisson
    whose single-level case is {!Dl_util.Prob.negative_binomial_pmf} /
    {!Yield_model.negative_binomial}; [alpha = infinity] at both levels
    degenerates to the paper's independent-Poisson model, so the mean DL
    converges to {!Weighted.defect_level} (property-checked by the
    [mc-poisson-limit] oracle).

    A die is {e defective} iff [N >= 1] and {e passes} the test at vector
    count [k] iff none of its faults is detected before [k] (first-detection
    convention of {!Dl_fault.Coverage}: detected at [k] iff [first < k]).
    DL(k) = defective-and-passed / passed.  Each wafer contributes one DL
    sample per coverage point; the 5/50/95% quantiles over wafers form the
    confidence band around the pooled point estimate.

    All randomness comes from path-keyed {!Dl_util.Seeds} streams
    ([lot-<l>], [wafer-<w>], [die-<d>] under the caller's scope), so a run
    is a pure function of (master seed, inputs) — replayable bit-for-bit,
    order-independent, and safe to cache as a stage artifact. *)

(** One coverage point of the simulated DL(T) curve. *)
type band = {
  k : int;             (** Vector count of this point. *)
  coverage : float;    (** The coverage label at [k] (caller-supplied). *)
  dl_point : float;    (** Pooled DL over all dies. *)
  dl_q05 : float;      (** 5% quantile of per-wafer DL samples. *)
  dl_q50 : float;
  dl_q95 : float;
  passed : int;              (** Dies passing the test at [k] (pooled). *)
  defective_passed : int;    (** Escapes at [k] (pooled). *)
  wafer_dls : float array;
      (** Per-wafer DL samples (wafers with at least one passing die), in
          wafer order — the empirical DL distribution at this point. *)
}

type t = {
  dies : int;
  dies_per_wafer : int;
  wafers_per_lot : int;
  wafers : int;              (** [ceil (dies / dies_per_wafer)]. *)
  lots : int;                (** [ceil (wafers / wafers_per_lot)]. *)
  alpha_wafer : float;
  alpha_lot : float;
  defective : int;           (** Dies with at least one fault. *)
  bands : band array;        (** One per requested coverage point, in order. *)
}

val codec : t Dl_store.Codec.t
(** The [wafer-mc] stage artifact: every field, floats bit-for-bit. *)

val simulate :
  ?dies_per_wafer:int ->
  ?wafers_per_lot:int ->
  ?alpha_wafer:float ->
  ?alpha_lot:float ->
  seeds:Dl_util.Seeds.t ->
  dies:int ->
  weights:float array ->
  firsts:int option array ->
  points:(int * float) array ->
  unit ->
  t
(** [simulate ~seeds ~dies ~weights ~firsts ~points ()] runs the lot/wafer/
    die hierarchy over the weighted fault universe.  [weights] are the
    (yield-scaled) realistic fault weights; [firsts] is the parallel
    first-detection array (e.g. swift voltage detections); [points] is the
    [(k, coverage_label)] grid to evaluate DL on.  Defaults: 256 dies per
    wafer, 4 wafers per lot, both alphas infinite (pure Poisson).
    @raise Invalid_argument on non-positive counts or alphas, negative
    weights, length mismatch, or an empty point grid. *)

val observed_yield : t -> float
(** Fraction of defect-free dies. *)

val final_band : t -> band
(** The band at the last (highest-[k]) point. *)
