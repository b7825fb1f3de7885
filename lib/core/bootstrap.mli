(** Bootstrap confidence intervals on the fitted projection parameters.

    {!Projection.fit_theta}'s [(R, θmax)] and {!Clustered.fit_alpha}'s
    [alpha] are point estimates computed from finite fault-simulation
    samples: a few hundred stuck-at faults define T(k) and a few hundred
    weighted realistic faults define Θ(k).  Case resampling quantifies
    that sampling uncertainty: each replicate redraws both fault
    populations with replacement (a realistic fault's weight and
    first-detection index move together), rebuilds the coverage curves,
    and refits — the spread of the refitted parameters over replicates is
    the sampling distribution of the estimator, summarized as 5/50/95%
    percentile intervals.

    Replicate randomness comes from path-keyed {!Dl_util.Seeds} streams
    ([rep-<i>] under the caller's scope): replayable, order-independent,
    and safe to cache as the [bootstrap-fit] stage artifact.

    The full-data point estimate uses the expensive multi-start fit; each
    replicate then restarts a single simplex from that optimum
    ({!Projection.fit_theta_from}), the standard (and ~15x cheaper)
    bootstrap refit. *)

type ci = { lo : float; median : float; hi : float }
(** 5%, 50% and 95% percentiles of the bootstrap sampling distribution. *)

type t = {
  replicates : int;
  fit_points : int;           (** Log-spaced sample counts per refit. *)
  point : Projection.fit;     (** Full-data [(R, θmax)] point estimate. *)
  alpha_point : float;        (** Full-data clustering-parameter estimate. *)
  r : ci;
  theta_max : ci;
  alpha : ci;
  r_samples : float array;          (** Per-replicate R, replicate order. *)
  theta_max_samples : float array;
  alpha_samples : float array;
}

val run :
  ?fit_points:int ->
  seeds:Dl_util.Seeds.t ->
  replicates:int ->
  yield:float ->
  t_firsts:int option array ->
  theta_firsts:int option array ->
  theta_weights:float array ->
  n_vectors:int ->
  unit ->
  t
(** [run ~seeds ~replicates ~yield ~t_firsts ~theta_firsts ~theta_weights
    ~n_vectors ()] bootstraps over the stuck-at first-detection array (the
    T(k) sample) and the parallel realistic (first, weight) pairs (the
    Θ(k) sample), fitting on [fit_points] (default 100) log-spaced vector
    counts up to [n_vectors] — the same grid as the pipeline's own
    fit ([Experiment.t.fit]).
    @raise Invalid_argument on non-positive [replicates] or [n_vectors],
    yield outside (0, 1], empty detection arrays, or a firsts/weights
    length mismatch. *)

val contains : ci -> float -> bool
(** Whether a value lies inside the closed interval [\[lo, hi\]]. *)

val of_samples :
  fit_points:int ->
  point:Projection.fit ->
  alpha_point:float ->
  r_samples:float array ->
  theta_max_samples:float array ->
  alpha_samples:float array ->
  t
(** Rebuild a result from its persisted parts — what {!codec} decodes
    through (the percentile summaries are recomputed from the samples, so
    they can never disagree with them).
    @raise Invalid_argument on empty or length-mismatched samples. *)

val codec : t Dl_store.Codec.t
(** The [bootstrap-fit] stage artifact: the point estimates and the
    samples, floats bit-for-bit.  Decoding raises
    {!Dl_util.Binary.Corrupt} on sample arrays of unequal length. *)
