(** The weighted realistic-fault defect-level model (eqs. 3-6): each layout-
    extracted fault [j] carries [w_j = A_j D_j = -ln (1 - p_j)], yield is
    [Y = exp (-Σ w_j)] and the weighted realistic coverage of a test is
    [Θ = Σ_detected w_j / Σ w_j], giving [DL = 1 - Y^(1-Θ)]. *)

val weight_of_probability : float -> float
(** eq. 4: [w = -ln (1 - p)]. *)

val probability_of_weight : float -> float
(** [p = 1 - e^-w]. *)

val yield_of_weights : float array -> float
(** eq. 5. *)

val scale_to_yield : weights:float array -> target_yield:float -> float array * float
(** Multiply all weights by a common factor so that eq. 5 gives the target
    yield (the paper scales c432's yield to 0.75 this way: "scaling the
    yield value can be interpreted as if the circuit has a different size
    but maintains the same testability features").  Returns the scaled
    weights and the factor. *)

val coverage : weights:float array -> detected:bool array -> float
(** eq. 6: weighted fraction of detected faults. *)

val defect_level : yield:float -> theta:float -> float
(** eq. 3. *)

val defect_level_of_weights :
  weights:float array -> detected:bool array -> float
(** Compose eqs. 3, 5, 6 directly from a fault population. *)
