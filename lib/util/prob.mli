(** Discrete probability distributions used by the yield and defect-count
    models (Poisson defect statistics, Stapper's negative-binomial clustered
    yield, Agrawal's faults-per-faulty-chip distribution). *)

val log_factorial : int -> float
(** [ln n!] via lgamma-style accumulation; exact for small [n]. *)

val poisson_pmf : lambda:float -> int -> float
(** P[N = k] for N ~ Poisson(lambda). *)

val poisson_sample : Rng.t -> lambda:float -> int
(** Inversion for small lambda, normal approximation above 500. *)

val gamma_sample : Rng.t -> shape:float -> float
(** Gamma(shape, scale 1) via Marsaglia-Tsang squeeze (boosted below
    shape 1).  Mean and variance both equal [shape].
    @raise Invalid_argument unless [shape > 0]. *)

val gamma_mixing_sample : Rng.t -> alpha:float -> float
(** A mean-1 clustering severity factor: Gamma(alpha, 1/alpha), i.e.
    [gamma_sample ~shape:alpha / alpha].  [alpha = infinity] is the
    Poisson limit and returns exactly 1. *)

val negative_binomial_pmf : mean:float -> alpha:float -> int -> float
(** Stapper's clustered defect count: gamma-mixed Poisson with clustering
    parameter [alpha] ([alpha -> infinity] recovers Poisson). *)

val truncated_poisson_mean : lambda:float -> float
(** E[N | N >= 1] for N ~ Poisson(lambda): the average number of faults on a
    *faulty* chip, the [n] parameter of Agrawal's model (eq. 2). *)
