(** The paper's proposed defect-level model (eqs. 9-11): eliminating the
    vector count between the two coverage-growth laws gives

    {v Θ = θmax (1 - (1-T)^R) v}            (eq. 9)

    and substituting into the weighted model yields the headline equation

    {v DL(T) = 1 - Y^(1 - θmax (1 - (1-T)^R)) v}    (eq. 11)

    [R > 1] means the faults that dominate yield loss (bridges, under
    bridging-dominant defect statistics) are *easier* to detect than the
    average stuck-at fault; [θmax < 1] captures the incompleteness of
    voltage-only stuck-at testing and leaves the *residual defect level*
    [1 - Y^(1-θmax)] that no amount of such testing removes.  For
    [R = 1, θmax = 1] the model reduces exactly to Williams–Brown. *)

type params = { r : float; theta_max : float }

val theta_of_coverage : params -> float -> float
(** eq. 9. @raise Invalid_argument unless [r > 0], [0 < θmax <= 1] and the
    coverage is in [0,1]. *)

val defect_level : yield:float -> params:params -> coverage:float -> float
(** eq. 11. *)

val residual_defect_level : yield:float -> theta_max:float -> float
(** [1 - Y^(1-θmax)]: the floor reached at T = 1. *)

val required_coverage :
  yield:float -> params:params -> target_dl:float -> float option
(** Stuck-at coverage needed for a defect-level target (the paper's
    Example 1); [None] when the target lies below the residual defect
    level, i.e. is unreachable with this detection technique. *)

type rmse_scale =
  | Linear  (** [rmse] is in the units of the fitted quantity itself. *)
  | Log10   (** [rmse] is in decades of the fitted quantity. *)

type fit = { params : params; rmse : float; rmse_scale : rmse_scale }
(** [rmse_scale] records the units of [rmse]: the two fitters below
    minimize residuals on different scales, and their RMSE values are not
    comparable to each other without checking it. *)

val rmse_unit : rmse_scale -> string
(** Human-readable unit label ("linear units" / "log10 units") for
    printing an [rmse] next to its scale. *)

val fit_dl : yield:float -> (float * float) array -> fit
(** Fit [(R, θmax)] to observed [(T, DL)] points by least squares on a
    log-defect-level scale (fallout spans decades, so a linear-scale fit
    would see only the high-DL knee).  The returned [rmse] is therefore in
    log10-DL units ([rmse_scale = Log10]): an rmse of 0.1 means residuals
    of about a quarter of a decade of defect level. *)

val fit_theta : (float * float) array -> fit
(** Fit [(R, θmax)] to [(T, Θ)] points via eq. 9 — the better-conditioned
    form when weighted-coverage data is available directly (simulation).
    Residuals are minimized on Θ itself, so [rmse] is in linear coverage
    units ([rmse_scale = Linear]).

    Both fitters reject degenerate data with [Invalid_argument]: empty
    point sets, NaN coordinates, or coverages outside [0, 1].  Single-point
    and zero-variance inputs are accepted and produce a finite rmse. *)

val fit_theta_from : init:params -> (float * float) array -> fit
(** Like {!fit_theta} but a single simplex descent seeded at [init]
    (clamped into the fit bounds) instead of the 15-start sweep — the
    cheap refit used for bootstrap replicates, where the full-data point
    estimate is a good starting point and a ~15x cheaper fit matters.
    @raise Invalid_argument on invalid [init] or degenerate data. *)

(** The generic path {!fit_theta} and {!fit_theta_from} replaced, kept as
    their oracle: [Fit.curve_fit] over {!theta_of_coverage}, one model call
    per point.  Both answer bit-identically to it. *)
module Reference : sig
  val fit_theta : (float * float) array -> fit
  val fit_theta_from : init:params -> (float * float) array -> fit
end
