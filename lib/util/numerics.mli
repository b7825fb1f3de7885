(** Scalar numerical routines: robust special functions and root finding.

    The defect-level formulas mix exponentials over huge dynamic ranges
    (weights down to 1e-9, ppm-level defect levels), so the helpers here
    avoid catastrophic cancellation where the naive formula would lose all
    precision. *)

val clamp : lo:float -> hi:float -> float -> float

val clamp01 : float -> float

val pow1m : float -> float -> float
(** [pow1m y e] computes [y ** e] as [exp (e * log y)] with the conventions
    [pow1m 0. 0. = 1.] and exact endpoints; requires [y >= 0]. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** [bisect ~f lo hi] finds a root of [f] in [\[lo, hi\]].  Requires a sign
    change over the bracket. *)

val integrate :
  ?steps:int -> f:(float -> float) -> float -> float -> float
(** Composite Simpson integration of [f] on [\[lo, hi\]]. [steps] is rounded
    up to an even count (default 1024). *)

val ppm : float -> float
(** Convert a fraction to parts-per-million. *)
