(** DL(n): defect-level projections under n-detection coverage.

    A multi-detect profile at quota [N] carries the whole curve family
    T{_1}(k) ... T{_N}(k) (a fault counts towards T{_n} once its n-th
    detection has happened), so one simulation yields an eq. 9/11 refit
    per n and a dl-vs-n table: requiring each fault to be detected n
    times pushes the same stuck-at coverage threshold later in the
    sequence, where the realistic coverage Θ is higher and the projected
    defect level correspondingly lower — the n-detection effect of
    Pomeranz & Reddy expressed in the 1994 model's terms. *)

type row = {
  n : int;
  final_t : float;  (** T{_n} over the whole vector sequence. *)
  fit : Projection.fit;
      (** eq. 9 refit of [(T{_n}(k), Θ(k))] samples for this n. *)
  residual_dl : float;
      (** [1 - Y^(1-θmax{_n})]: the model floor under this n's fit. *)
  k_at_target : int;
      (** Smallest vector count with T{_n}(k) >= the shared target
          coverage {!t.t_star}. *)
  dl_at_target : float;
      (** Empirical DL at the shared coverage target: eq. 10 evaluated at
          Θ([k_at_target]).  Monotone non-increasing in n by construction
          (T{_n} is pointwise non-increasing in n and Θ non-decreasing
          in k). *)
}

type t = {
  max_n : int;  (** The profile's quota (curves exist for all n <= it). *)
  t_star : float;
      (** The shared coverage target: the smallest final T{_n} among the
          analyzed ns, so every row reaches it. *)
  yield : float;
  rows : row array;  (** One row per analyzed n, ascending. *)
}

val default_ns : max_n:int -> int array
(** Powers of two up to [max_n], always including 1 and [max_n] itself
    (e.g. [max_n:8] gives [1; 2; 4; 8], [max_n:6] gives [1; 2; 4; 6]). *)

val analyze :
  ?ns:int array ->
  ?fit_points:int ->
  profile:Dl_ndet.Profile.t ->
  theta_curve:Dl_fault.Coverage.t ->
  yield:float ->
  n_vectors:int ->
  unit ->
  t
(** Build the dl-vs-n table.  [ns] defaults to {!default_ns}; every
    entry must be in [1, max_n profile].  [fit_points] (default 100,
    matching the pipeline's own fit) controls the log-spaced sample
    grid, so at [n:1] the fitted parameters are bit-identical to the
    single-detection pipeline fit over the same curves. *)
